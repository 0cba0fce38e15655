//! The operability plane's status wire (see `docs/operations.md`).
//!
//! Two transports serve the same four views:
//!
//! * the [`sinclave::protocol::Message::StatusRequest`] opcode on the
//!   regular secure-channel protocol (handled in dispatch), for
//!   clients that already hold a channel;
//! * a small **plaintext status listener** ([`serve_status`]) in the
//!   spirit of an enclave runtime's `/healthz` endpoint: no handshake,
//!   no identity, read-only — a probe (load balancer, fleet
//!   controller, test harness) sends a view name as one raw frame and
//!   receives the rendered view as one raw frame. Each probe is a
//!   connection kind on a reactor, answered on its event loop.
//!
//! The four views:
//!
//! * **`health`** — the fail-closed verdict ([`Health`]) plus the
//!   signals feeding it, one `key: value` per line, topped with the
//!   build identity and uptime.
//! * **`metrics`** — every [`crate::server::CasStats`] counter in
//!   Prometheus text exposition format (`cas_<counter> <value>`), plus
//!   the `cas_uptime_seconds` and `cas_build_info` gauges.
//! * **`histograms`** — the per-stage latency histograms
//!   ([`crate::histogram::StageHistograms`]): count, p50/p95/p99, max
//!   and the non-empty log₂ buckets per stage.
//! * **`trace`** — the tracing layer ([`crate::trace`]): recorder
//!   counters, per-follower replication-lag gauges, and the most
//!   recent pinned traces rendered as indented span trees.
//!
//! Rendering reads only atomics, the breaker's state mutex and the
//! flight recorder's ring locks (all off the hot path) — a probe never
//! touches the volume, the journal, or the issuer's shards.

use crate::reactor::{spawn_reactor, Listen};
use crate::server::CasServer;
use crate::trace::{CompletedTrace, Span};
use sinclave_net::Network;
use std::fmt;
use std::sync::Arc;
use std::thread::JoinHandle;

/// The health verdict the status wire serves (computed by
/// [`CasServer::health`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Health {
    /// Serving normally; durability and replication are keeping up.
    Healthy,
    /// Still serving, but impaired: persists are failing, journal
    /// appends failed since the last probe, or a follower lost its
    /// replication stream. Dependents should expect worse recovery
    /// windows and page an operator.
    Degraded,
    /// Writes are refused: the server is fenced (a failover outranked
    /// it) or the append circuit breaker is open. Dependents must not
    /// drive writes at this server.
    FailClosed,
}

impl Health {
    /// The wire spelling of the verdict.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::FailClosed => "fail-closed",
        }
    }
}

impl fmt::Display for Health {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Renders one status view, or `None` for an unknown view name. The
/// single renderer behind both the plaintext listener and the
/// `StatusRequest` opcode — the two transports can never drift.
#[must_use]
pub fn status_body(server: &CasServer, view: &str) -> Option<String> {
    match view {
        "health" => Some(render_health(server)),
        "metrics" => Some(render_metrics(server)),
        "histograms" => Some(render_histograms(server)),
        "trace" => Some(render_trace(server)),
        _ => None,
    }
}

/// The build identity: crate version plus the git description captured
/// at build time (version alone when built outside a checkout).
fn build_info() -> String {
    match option_env!("SINCLAVE_GIT_DESCRIBE") {
        Some(describe) => format!("{} ({describe})", env!("CARGO_PKG_VERSION")),
        None => env!("CARGO_PKG_VERSION").to_owned(),
    }
}

/// The `health` view: verdict first, then every signal feeding it.
fn render_health(server: &CasServer) -> String {
    let stats = server.stats.snapshot();
    let chain = server.middleware();
    let mut out = String::new();
    out.push_str(&format!("status: {}\n", server.health()));
    out.push_str(&format!("build: {}\n", build_info()));
    out.push_str(&format!("uptime_seconds: {}\n", server.uptime().as_secs()));
    out.push_str(&format!("fenced: {}\n", server.is_fenced()));
    out.push_str(&format!("following: {}\n", server.is_following()));
    out.push_str(&format!("breaker_open: {}\n", chain.breaker_open()));
    out.push_str(&format!("replication_degraded: {}\n", chain.is_degraded()));
    out.push_str(&format!("snapshot_persist_failed: {}\n", stats.snapshot_persist_failed));
    out.push_str(&format!("journal_append_failed: {}\n", stats.journal_append_failed));
    out.push_str(&format!("writes_fenced: {}\n", stats.writes_fenced));
    out
}

/// The `metrics` view: Prometheus text exposition, one counter per
/// `cas_<name>` line, in [`crate::server::StatsSnapshot`] declaration
/// order.
fn render_metrics(server: &CasServer) -> String {
    let mut out = String::new();
    for (name, value) in server.stats.snapshot().named() {
        out.push_str(&format!("# TYPE cas_{name} counter\ncas_{name} {value}\n"));
    }
    out.push_str(&format!(
        "# TYPE cas_uptime_seconds gauge\ncas_uptime_seconds {}\n",
        server.uptime().as_secs()
    ));
    out.push_str(&format!(
        "# TYPE cas_build_info gauge\ncas_build_info{{build=\"{}\"}} 1\n",
        build_info()
    ));
    out
}

/// The `histograms` view: per stage, a summary line plus the
/// non-empty log₂ buckets.
fn render_histograms(server: &CasServer) -> String {
    let mut out = String::new();
    for (name, histogram) in server.latency().named() {
        let view = histogram.view();
        out.push_str(&format!(
            "{name} count={} p50_ns={} p95_ns={} p99_ns={} max_ns={}\n",
            view.count(),
            view.p50().as_nanos(),
            view.p95().as_nanos(),
            view.p99().as_nanos(),
            view.max().as_nanos(),
        ));
        for (lower, upper, count) in view.rows() {
            out.push_str(&format!("{name} bucket {lower} {upper} {count}\n"));
        }
    }
    out
}

/// How many recent pinned traces the `trace` view renders per probe.
const TRACE_VIEW_LIMIT: usize = 8;

/// The `trace` view: tracer and recorder state, replication-lag
/// gauges (per follower on a primary, per stream on a follower), then
/// the most recent pinned traces as indented span trees. Reads
/// atomics, the hub's gauge snapshots and the recorder rings — never
/// the journal or the volume.
fn render_trace(server: &CasServer) -> String {
    let tracer = server.tracer();
    let stats = tracer.recorder().stats();
    let mut out = String::new();
    out.push_str(&format!("tracing: {}\n", if tracer.is_enabled() { "lit" } else { "dark" }));
    out.push_str(&format!("sample_every: {}\n", tracer.sample_every()));
    out.push_str(&format!(
        "recorder: pinned={} sampled={} discarded={} dropped={}\n",
        stats.pinned, stats.sampled, stats.discarded, stats.dropped
    ));
    if let Some(hub) = server.replication_hub() {
        // Primary: one gauge line per subscribed follower. `lag` is
        // the last-acked sequence delta against the local journal.
        let high = server.journal_sequence();
        for (index, (sent_seq, queued, age_ns)) in hub.peer_gauges().into_iter().enumerate() {
            out.push_str(&format!(
                "follower {index}: sent_seq={sent_seq} lag={} queued_batches={queued} \
                 stream_age_ms={}\n",
                high.saturating_sub(sent_seq),
                age_ns / 1_000_000,
            ));
        }
    }
    if let Some((applied, primary_high, age_ns)) = server.follower_lag() {
        // Follower: how far behind the primary's advertised high
        // sequence, and how stale the stream is.
        out.push_str(&format!(
            "replication: applied_seq={applied} primary_high_seq={primary_high} lag={} \
             stream_age_ms={}\n",
            primary_high.saturating_sub(applied),
            age_ns / 1_000_000,
        ));
    }
    // Pinned traces (slow / errored / shed) lead; recent healthy
    // samples follow so the view is useful when nothing is pinned.
    for trace in tracer.recorder().recent_pinned(TRACE_VIEW_LIMIT) {
        render_span_tree(&mut out, &trace);
    }
    for trace in tracer.recorder().recent_sampled(TRACE_VIEW_LIMIT) {
        render_span_tree(&mut out, &trace);
    }
    out
}

/// One trace as an indented span tree: spans sorted by start (ties
/// broken longest-first), each span indented under any earlier span
/// whose interval contains its start. Forwarded requests read as
/// `request` → `forward` → the primary's absorbed remote spans, each
/// tagged with its hop.
fn render_span_tree(out: &mut String, trace: &CompletedTrace) {
    out.push_str(&format!(
        "trace {} reason={} total_ns={} spans={}{}\n",
        trace.id_hex(),
        trace.reason.label(),
        trace.total_ns(),
        trace.spans().len(),
        if trace.truncated { " truncated" } else { "" },
    ));
    let mut spans: Vec<&Span> = trace.spans().iter().collect();
    spans.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
    let mut enclosing: Vec<u64> = Vec::new();
    for span in spans {
        while enclosing.last().is_some_and(|&end| span.start_ns >= end) {
            enclosing.pop();
        }
        let indent = "  ".repeat(enclosing.len() + 1);
        out.push_str(&format!(
            "{indent}{} hop={} start_ns={} dur_ns={} {}\n",
            span.stage,
            span.hop,
            span.start_ns.saturating_sub(trace.begin_ns),
            span.duration_ns(),
            span.outcome.label(),
        ));
        enclosing.push(span.end_ns);
    }
    for (name, value) in trace.notes() {
        out.push_str(&format!("  note {name}={value}\n"));
    }
}

/// Answers one probe frame: the raw frame is a view name, the answer
/// the rendered view (`error: unknown view` for any other name).
pub(crate) fn probe_reply(server: &CasServer, raw: &[u8]) -> Vec<u8> {
    let view = String::from_utf8_lossy(raw);
    status_body(server, view.as_ref()).unwrap_or_else(|| "error: unknown view\n".to_owned()).into()
}

/// Serves the plaintext status endpoint on `addr`: up to `probes`
/// probe connections, each a loop of raw view-name frames answered
/// with rendered view frames (see [`status_body`]). Probes are a
/// connection kind on a reactor with one event loop and no compute
/// worker (see [`crate::reactor`]): rendering is microseconds of
/// atomic reads, so each probe is answered on the loop and a silent
/// probe delays no other (it is hung up after
/// [`sinclave_net::bus::RECV_TIMEOUT`]). After [`CasServer::shutdown`]
/// the returned handle joins.
#[must_use]
pub fn serve_status(
    server: &Arc<CasServer>,
    network: &Network,
    addr: &str,
    probes: usize,
) -> JoinHandle<()> {
    spawn_reactor(server, network, addr, Listen::Status, probes, 0)
}

#[cfg(test)]
mod tests {
    use super::serve_status;
    use crate::server::CasServer;
    use crate::store::CasStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sinclave_crypto::aead::AeadKey;
    use sinclave_crypto::rsa::RsaPrivateKey;
    use sinclave_net::Network;
    use std::time::{Duration, Instant};

    #[test]
    fn a_silent_probe_does_not_delay_the_next_one() {
        let mut rng = StdRng::seed_from_u64(0x51);
        let mut key = || RsaPrivateKey::generate(&mut rng, 1024).unwrap();
        let (channel_key, signer_key, root) = (key(), key(), key());
        let server = CasServer::new(
            channel_key,
            signer_key,
            root.public_key().clone(),
            CasStore::create(AeadKey::new([7; 32])),
        );
        let network = Network::new();
        let listener = serve_status(&server, &network, "status", 2);
        // Accepted first, then never speaks.
        let silent = network.connect("status").unwrap();
        let probe = network.connect("status").unwrap();
        // Long enough to measure a stall rather than fail on it.
        probe.set_recv_timeout(Some(Duration::from_secs(30)));
        let asked = Instant::now();
        probe.send(b"health".to_vec()).unwrap();
        let body = String::from_utf8(probe.recv().unwrap()).unwrap();
        let waited = asked.elapsed();
        assert!(body.starts_with("status: healthy\n"), "{body}");
        assert!(waited < Duration::from_secs(1), "the health reply took {waited:?}");
        drop((silent, probe));
        listener.join().unwrap();
    }
}
