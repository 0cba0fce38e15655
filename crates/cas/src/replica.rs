//! The replicated CAS fleet: sealed-journal streaming, follower
//! replay, and fenced failover.
//!
//! # Fleet topology
//!
//! One **primary** owns all durable writes: it sequences every grant
//! and redemption through its group-commit pipe, appends the sealed
//! batch to its journal, and — via [`serve_replication`] — publishes
//! exactly those on-disk bytes to any number of **followers**. A
//! follower ([`follow`]) bootstraps from a
//! [`ReplicationFrame::Baseline`] (the primary's raw snapshot bytes
//! plus its journal suffix — precisely what the primary's own restart
//! would replay) and then applies live
//! [`ReplicationFrame::Records`] batches through the same idempotent
//! [`apply_record`] path restart recovery uses, journaling each batch
//! locally *before* applying it. Replication is therefore not a
//! second consistency mechanism: it is crash recovery, streamed.
//!
//! Followers serve **read-mostly traffic locally** — ping, challenge,
//! quote verification, policy retrieval, baseline attestation — and
//! linearize the two writes through the primary: grant requests are
//! forwarded whole ([`ReplicationFrame::Forward`] via a
//! [`ForwardLink`]), and a singleton attestation splits — the quote,
//! channel binding and policy checks run on the follower, while the
//! exactly-once token consumption travels as
//! [`ReplicationFrame::Redeem`].
//!
//! # Fencing rules
//!
//! Failover is **fenced by generation**, not by consensus: the
//! deployment (here, the test harness) decides who is primary, and
//! the fence makes a wrong or stale decision safe rather than
//! split-brained.
//!
//! * Every server carries its own fence (the highest it has committed
//!   under) and a persisted *ceiling* (the highest it has ever
//!   observed). `ceiling > own` means deposed: every write — grant,
//!   redemption, checkpoint — is refused at the journal boundary.
//! * [`CasServer::promote`](crate::CasServer::promote) bumps a
//!   replica one past everything it has seen and commits the bump as
//!   a durable [`JournalRecord::Fence`](sinclave::journal_record::JournalRecord)
//!   record, continuing the primary's sequence numbering.
//! * A replication `Hello` carries the sender's observed fence; a
//!   primary that hears a higher one answers
//!   [`ReplicationFrame::Fenced`], persists the observation, and is
//!   deposed from that moment — even if it restarts from its
//!   pre-failover disk image, the persisted ceiling keeps it fenced.
//!
//! An acked redemption therefore cannot replay fleet-wide: the ack
//! implies a durable journal record on the then-primary; a promoted
//! follower either replayed that record (and refuses the token as
//! spent) or the record is above its high sequence — in which case
//! the old primary was partitioned, its ack raced the promotion, and
//! the *fence* guarantees it could not have committed the record
//! after the promotion's fence reached it. The fault harness in
//! `tests/replication.rs` sweeps exactly these windows.
//!
//! # Consistency story (honest version)
//!
//! * **Writes are linearizable through the primary.** Grants and
//!   redemptions either commit on the primary's journal or are
//!   refused; followers never mint durable state of their own while
//!   following.
//! * **Follower reads are stale-bounded, not fresh.** A follower
//!   serves policy retrievals and attestations from its replayed
//!   state, which lags the primary by the in-flight stream window
//!   (one heartbeat interval under no load). A grant acked through
//!   one replica is visible on another only after the covering batch
//!   arrives there.
//! * **A partitioned follower keeps serving, degraded.** Losing the
//!   stream flips the middleware degraded flag and starts a bounded
//!   exponential backoff ([`Backoff`]) of reconnect attempts; reads
//!   continue from the last replayed state the whole time.
//! * **Fleet links are pinned.** The secure channel authenticates *a*
//!   server key, not *the* primary; a routing adversary could
//!   terminate a follower's dial with their own key and forge a
//!   baseline. Every replica holds the shared fleet channel key, so
//!   the pump and every [`ForwardLink`] pin the peer's fingerprint
//!   and hang up on any other before speaking
//!   (`sinclave_attack::hijack` is the attack side of that argument).
//!
//! [`apply_record`]: sinclave::verifier::SingletonIssuer::apply_record

use crate::server::{CasServer, ServeGuard};
use crate::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave::protocol::{Message, TraceContext};
use sinclave::replication::{ReplicaRole, ReplicationFrame, WireSpan};
use sinclave::snapshot::IssuerSnapshot;
use sinclave::AttestationToken;
use sinclave_crypto::sha256::Digest;
use sinclave_net::{Backoff, Connection, NetError, Network, SecureChannel};
use sinclave_sgx::measurement::Measurement;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a subscriber session waits for a fresh batch before
/// sending a liveness heartbeat instead.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(20);

/// The follower pump's receive poll: bounds how long a stop request
/// waits on an idle stream.
const PUMP_POLL: Duration = Duration::from_millis(20);

/// Per-round-trip deadline on a forward link: a dead primary costs a
/// forwarded write one bounded wait, not a hang.
const FORWARD_TIMEOUT: Duration = Duration::from_millis(500);

/// One registered replication subscriber: a queue of sealed batch
/// payloads in commit order, fed by [`ReplicationHub::publish`].
struct Subscriber {
    queue: std::sync::Mutex<VecDeque<Vec<u8>>>,
    ready: std::sync::Condvar,
    /// Set when the serving session ends; the hub prunes closed
    /// subscribers on the next publish.
    closed: AtomicBool,
    /// Lag gauges for the `trace` status view: the highest journal
    /// sequence the session had streamed past as of its last frame,
    /// and when (trace-clock ns) that frame was written.
    sent_seq: std::sync::atomic::AtomicU64,
    last_frame_ns: std::sync::atomic::AtomicU64,
}

impl Subscriber {
    /// The next queued batch, or `None` after `timeout` with an empty
    /// queue (the session sends a heartbeat and asks again).
    fn next(&self, timeout: Duration) -> Option<Vec<u8>> {
        // A poisoned queue degrades to "nothing queued": the session
        // heartbeats and retries rather than unwinding the follower's
        // stream thread. The queue itself is a VecDeque of complete
        // payloads, so a recovered guard never exposes a torn value.
        let queue = self.queue.lock().unwrap_or_else(PoisonError::into_inner);
        let (mut queue, _timed_out) = self
            .ready
            .wait_timeout_while(queue, timeout, |queue| queue.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        queue.pop_front()
    }
}

/// Ends the subscription when the serving session unwinds, however it
/// exits — the hub stops queueing for it.
struct CloseOnDrop<'a>(&'a Subscriber);

impl Drop for CloseOnDrop<'_> {
    fn drop(&mut self) {
        self.0.closed.store(true, Ordering::Relaxed);
    }
}

/// Fans committed journal batches out to live subscriber sessions.
/// The publish side is called from inside the commit pipe's
/// serialized flush, so every subscriber observes batches in sequence
/// order with no gaps between registration and its bootstrap capture.
pub struct ReplicationHub {
    subscribers: parking_lot::Mutex<Vec<Arc<Subscriber>>>,
}

impl ReplicationHub {
    fn new() -> Arc<Self> {
        Arc::new(ReplicationHub { subscribers: parking_lot::Mutex::new(Vec::new()) })
    }

    fn register(&self) -> Arc<Subscriber> {
        let subscriber = Arc::new(Subscriber {
            queue: std::sync::Mutex::new(VecDeque::new()),
            ready: std::sync::Condvar::new(),
            closed: AtomicBool::new(false),
            sent_seq: std::sync::atomic::AtomicU64::new(0),
            last_frame_ns: std::sync::atomic::AtomicU64::new(0),
        });
        self.subscribers.lock().push(subscriber.clone());
        subscriber
    }

    /// Per-subscriber lag gauges for the `trace` status view:
    /// `(sent_seq, queued_batches, stream_age_ns)` for every live
    /// session, in registration order.
    pub(crate) fn peer_gauges(&self) -> Vec<(u64, u64, u64)> {
        let now = trace::now_ns();
        let subscribers = self.subscribers.lock();
        subscribers
            .iter()
            .filter(|s| !s.closed.load(Ordering::Relaxed))
            .map(|s| {
                let queued = s.queue.lock().unwrap_or_else(PoisonError::into_inner).len() as u64;
                let last = s.last_frame_ns.load(Ordering::Relaxed);
                let age = if last == 0 { 0 } else { now.saturating_sub(last) };
                (s.sent_seq.load(Ordering::Relaxed), queued, age)
            })
            .collect()
    }

    /// Queues one sealed batch payload for every live subscriber.
    pub(crate) fn publish(&self, payload: &[u8]) {
        let mut subscribers = self.subscribers.lock();
        subscribers.retain(|s| !s.closed.load(Ordering::Relaxed));
        for subscriber in subscribers.iter() {
            // Publishing runs inside the commit pipe's serialized
            // flush; a poisoned per-subscriber queue must not take the
            // whole fan-out down, so recover the guard and keep going.
            subscriber
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push_back(payload.to_vec());
            subscriber.ready.notify_one();
        }
    }
}

/// Serves `sessions` replication sessions on `addr` — subscriber
/// streams and forward (write-linearization) sessions, dispatched by
/// the opening `Hello`'s role. Installs the publish hub on the
/// server; live commits stream to subscribers from then on. The
/// returned handle joins once all session slots have been served (or
/// their accepts timed out), and uninstalls the hub.
#[must_use]
pub fn serve_replication(
    server: &Arc<CasServer>,
    network: &Network,
    addr: &str,
    sessions: usize,
    seed: u64,
) -> JoinHandle<()> {
    let hub = ReplicationHub::new();
    server.set_replication_hub(Some(hub.clone()));
    let listener = Arc::new(network.listen(addr));
    let guard = ServeGuard::register(server);
    let server = server.clone();
    std::thread::spawn(move || {
        let _serving = guard;
        std::thread::scope(|scope| {
            for slot in 0..sessions {
                let Some(conn) = server.accept_drainable(&listener) else { break };
                let server = &server;
                let hub = &hub;
                scope.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(seed.wrapping_add(slot as u64));
                    let _ = serve_session(server, hub, conn, &mut rng);
                });
            }
        });
        server.set_replication_hub(None);
    })
}

/// One replication session: handshake, hello, then role dispatch.
fn serve_session(
    server: &CasServer,
    hub: &ReplicationHub,
    conn: Connection,
    rng: &mut StdRng,
) -> Result<(), NetError> {
    let mut chan = SecureChannel::server_accept(conn, &server.channel_key, rng)?;
    let raw = chan.recv()?;
    let Ok(ReplicationFrame::Hello { role, last_seq: _, fence }) =
        ReplicationFrame::from_bytes(&raw)
    else {
        server.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
        let reason = "replication session must open with hello".to_owned();
        let _ = chan.send(&ReplicationFrame::Denied { reason }.to_bytes());
        return Ok(());
    };
    // The hello's fence is an observation either way: a peer that has
    // seen a fence above ours deposes us on the spot — before any
    // baseline capture or forwarded write could happen under stale
    // authority.
    if server.observe_fence(fence) {
        let fenced = ReplicationFrame::Fenced { fence: server.fence_ceiling() };
        let _ = chan.send(&fenced.to_bytes());
        return Ok(());
    }
    match role {
        ReplicaRole::Subscribe => serve_subscriber(server, hub, &mut chan),
        ReplicaRole::Forward => serve_forwarder(server, &mut chan, rng),
    }
}

/// Streams the baseline and then live batches to one subscriber.
fn serve_subscriber(
    server: &CasServer,
    hub: &ReplicationHub,
    chan: &mut SecureChannel,
) -> Result<(), NetError> {
    // Register FIRST, then capture: a commit landing between the two
    // shows up in both the baseline and the queue, and the follower's
    // idempotent sequence filter drops the duplicate. The other order
    // could lose the batch entirely.
    let subscriber = hub.register();
    let _closing = CloseOnDrop(&subscriber);
    let snapshot = server.store().restore_state().ok().flatten().unwrap_or_default();
    let baseline_seq =
        IssuerSnapshot::from_bytes(&snapshot).map_or(0, |parsed| parsed.journal_sequence);
    let chunks: Vec<Vec<u8>> = server
        .store()
        .export_journal_chunks()
        .map(|recovery| recovery.chunks.into_iter().map(|chunk| chunk.payload).collect())
        .unwrap_or_default();
    let baseline = ReplicationFrame::Baseline {
        fence: server.fence(),
        high_seq: server.journal_sequence(),
        baseline_seq,
        snapshot,
        chunks,
    };
    chan.send(&baseline.to_bytes())?;
    loop {
        // Shutdown drains subscriber streams cleanly: the ≤20ms
        // heartbeat cadence bounds how long a drain waits on this
        // session.
        if server.is_draining() {
            return Ok(());
        }
        // A primary deposed mid-stream tells its subscribers before
        // going quiet, so they reconnect (and find the new primary)
        // instead of trusting a stale stream.
        if server.is_fenced() {
            let fenced = ReplicationFrame::Fenced { fence: server.fence_ceiling() };
            let _ = chan.send(&fenced.to_bytes());
            return Ok(());
        }
        let frame = match subscriber.next(HEARTBEAT_INTERVAL) {
            Some(batch) => ReplicationFrame::Records { fence: server.fence(), batch },
            None => ReplicationFrame::Heartbeat {
                fence: server.fence(),
                high_seq: server.journal_sequence(),
            },
        };
        chan.send(&frame.to_bytes())?;
        subscriber.sent_seq.store(server.journal_sequence(), Ordering::Relaxed);
        subscriber.last_frame_ns.store(trace::now_ns(), Ordering::Relaxed);
    }
}

/// Answers forwarded writes from one follower, request–response.
fn serve_forwarder(
    server: &CasServer,
    chan: &mut SecureChannel,
    rng: &mut StdRng,
) -> Result<(), NetError> {
    // Ack the hello so the link knows the session is live.
    let ack =
        ReplicationFrame::Heartbeat { fence: server.fence(), high_seq: server.journal_sequence() };
    chan.send(&ack.to_bytes())?;
    let transcript = chan.transcript();
    // Poll the receive in short slices so a shutdown drains this
    // session within one slice; the transport's default budget still
    // bounds how long an idle forwarder stays parked.
    chan.set_recv_timeout(Some(PUMP_POLL));
    let mut last_frame = std::time::Instant::now();
    loop {
        let raw = match chan.recv() {
            Ok(raw) => raw,
            Err(NetError::Timeout) => {
                let idle = last_frame.elapsed() >= sinclave_net::bus::RECV_TIMEOUT;
                if server.is_draining() || idle {
                    return Ok(());
                }
                continue;
            }
            Err(NetError::Disconnected) => return Ok(()),
            Err(e) => return Err(e),
        };
        last_frame = std::time::Instant::now();
        let reply = match ReplicationFrame::from_bytes(&raw) {
            Ok(frame) => forward_reply(server, frame, &transcript, rng),
            Err(_) => {
                server.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
                ReplicationFrame::Denied { reason: "malformed replication frame".into() }
            }
        };
        // Claimed before the reply leaves and run after it, as on the
        // reactor's compute workers.
        let checkpoint = server.checkpoint.claim_due();
        let sent = chan.send(&reply.to_bytes());
        if checkpoint {
            let _ = server.checkpoint.run(server);
        }
        sent?;
    }
}

/// Dispatches one forwarded write on the primary. Forwarded grants go
/// through the full admission + dispatch path (so rate limits,
/// quotas, panic isolation and the breaker all hold at the primary no
/// matter which replica a client talked to); redemptions go straight
/// to the durable exactly-once path.
fn forward_reply(
    server: &CasServer,
    frame: ReplicationFrame,
    transcript: &Digest,
    rng: &mut StdRng,
) -> ReplicationFrame {
    if server.is_fenced() {
        return ReplicationFrame::Fenced { fence: server.fence_ceiling() };
    }
    match frame {
        ReplicationFrame::Forward { request, ctx } => {
            let Ok(message) = Message::from_bytes(&request) else {
                return ReplicationFrame::Denied { reason: "malformed forwarded request".into() };
            };
            if !matches!(message, Message::GrantRequest { .. }) {
                return ReplicationFrame::Denied { reason: "only grants forward".into() };
            }
            // Continue the follower's trace at its propagated hop (a
            // no-op when this primary's tracer is dark — the context
            // is still echoed so the follower's tree stays causal).
            if let Some(started) = ctx.and_then(|c| server.tracer().begin(Some(c))) {
                trace::install(started);
            }
            let chain = server.middleware();
            let response = match server.admit(&chain, message) {
                Err(refused) => Some(refused.to_bytes()),
                Ok(request) => server
                    .dispatch_admitted(&chain, request, &mut None, transcript, rng)
                    .map(|reply| reply.to_bytes()),
            };
            let spans = trace::take()
                .map(|finished| server.tracer().finish(finished).export_wire_spans())
                .unwrap_or_default();
            match response {
                Some(response) => ReplicationFrame::Reply { response, ctx, spans },
                None => ReplicationFrame::Denied { reason: "dispatch panicked".into() },
            }
        }
        ReplicationFrame::Redeem { token, mrenclave } => {
            let token = AttestationToken(token);
            let mrenclave = Measurement(Digest(mrenclave));
            match server.redeem_token(&token, &mrenclave) {
                Ok(common) => ReplicationFrame::RedeemOk { common: *common.as_bytes() },
                Err(e) => ReplicationFrame::Denied { reason: e.to_string() },
            }
        }
        _ => ReplicationFrame::Denied { reason: "unexpected replication frame".into() },
    }
}

/// How one connect-subscribe-replay attempt of the follower pump
/// ended.
enum PumpExit {
    /// The stop flag was raised; the pump shuts down.
    Stopped,
    /// The stream was lost (connect refused, partition, damaged
    /// frame, fence); the pump backs off and reconnects.
    Lost,
}

/// A running follower pump. Dropping the handle leaks the thread;
/// call [`FollowerHandle::stop`] to end it (the deployment does this
/// before promoting the replica).
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<()>,
}

impl FollowerHandle {
    /// Signals the pump to stop and joins it. After this returns the
    /// replica applies nothing further from the old stream — the
    /// precondition for [`CasServer::promote`](crate::CasServer::promote).
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

/// Starts the follower pump: connect to the primary at `addr`,
/// subscribe, adopt the baseline, and replay live batches — forever,
/// across stream losses, with `backoff` bounding the reconnect rate.
/// While the stream is down the replica keeps serving reads from its
/// last replayed state with the middleware degraded flag raised
/// (degraded-but-serving, not down).
#[must_use]
pub fn follow(
    server: Arc<CasServer>,
    network: Network,
    addr: String,
    seed: u64,
    backoff: Backoff,
) -> FollowerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    // Shutdown on the follower raises this flag too, so the pump
    // unsubscribes cleanly instead of racing the drained server.
    server.register_drain_stop(&stop);
    let pump_stop = stop.clone();
    let handle = std::thread::spawn(move || {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut backoff = backoff;
        server.set_following(true);
        while !pump_stop.load(Ordering::Relaxed) {
            match pump_once(&server, &network, &addr, &mut rng, &pump_stop, &mut backoff) {
                PumpExit::Stopped => break,
                PumpExit::Lost => {
                    server.middleware().set_degraded(true);
                    server.stats.replication_reconnects.fetch_add(1, Ordering::Relaxed);
                    sleep_interruptible(&pump_stop, backoff.next_delay());
                }
            }
        }
        server.set_following(false);
    });
    FollowerHandle { stop, handle }
}

/// One connect-subscribe-replay attempt.
fn pump_once(
    server: &Arc<CasServer>,
    network: &Network,
    addr: &str,
    rng: &mut StdRng,
    stop: &AtomicBool,
    backoff: &mut Backoff,
) -> PumpExit {
    let Ok(conn) = network.connect(addr) else { return PumpExit::Lost };
    let Ok(mut chan) = SecureChannel::client_connect(conn, rng) else { return PumpExit::Lost };
    // Fleet binding: the whole fleet shares one channel key, so the
    // primary's fingerprint is our own. A peer presenting any other
    // key is a hijacker terminating the channel with their own key —
    // drop before sending the hello, let alone adopting a baseline.
    if chan.server_key_fingerprint() != server.channel_key.public_key().fingerprint() {
        server.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
        return PumpExit::Lost;
    }
    chan.set_recv_timeout(Some(PUMP_POLL));
    let hello = ReplicationFrame::Hello {
        role: ReplicaRole::Subscribe,
        last_seq: server.journal_sequence(),
        fence: server.fence_ceiling(),
    };
    if chan.send(&hello.to_bytes()).is_err() {
        return PumpExit::Lost;
    }
    let raw = loop {
        if stop.load(Ordering::Relaxed) {
            return PumpExit::Stopped;
        }
        match chan.recv() {
            Ok(raw) => break raw,
            Err(NetError::Timeout) => {}
            Err(_) => return PumpExit::Lost,
        }
    };
    match ReplicationFrame::from_bytes(&raw) {
        Ok(ReplicationFrame::Baseline { fence, high_seq: _, baseline_seq, snapshot, chunks }) => {
            if server.adopt_baseline(fence, baseline_seq, &snapshot, &chunks).is_err() {
                return PumpExit::Lost;
            }
        }
        Ok(ReplicationFrame::Fenced { fence }) => {
            server.observe_fence(fence);
            return PumpExit::Lost;
        }
        Ok(_) => return PumpExit::Lost,
        Err(_) => {
            server.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
            return PumpExit::Lost;
        }
    }
    // Caught up: the stream is healthy again.
    server.middleware().set_degraded(false);
    backoff.reset();
    loop {
        if stop.load(Ordering::Relaxed) {
            return PumpExit::Stopped;
        }
        let raw = match chan.recv() {
            Ok(raw) => raw,
            Err(NetError::Timeout) => continue, // idle poll tick
            Err(_) => return PumpExit::Lost,
        };
        match ReplicationFrame::from_bytes(&raw) {
            Ok(ReplicationFrame::Records { fence, batch }) => {
                // A batch stamped below our fence comes from a stream
                // that outlived its authority; drop the session.
                if fence < server.fence() {
                    return PumpExit::Lost;
                }
                if server.apply_replicated_batch(&batch).is_err() {
                    return PumpExit::Lost;
                }
                server.note_stream_progress(None);
            }
            Ok(ReplicationFrame::Heartbeat { fence: _, high_seq }) => {
                server.note_stream_progress(Some(high_seq));
            }
            Ok(ReplicationFrame::Fenced { fence }) => {
                server.observe_fence(fence);
                return PumpExit::Lost;
            }
            Ok(_) => return PumpExit::Lost,
            Err(_) => {
                server.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
                return PumpExit::Lost;
            }
        }
    }
}

/// Sleeps up to `total`, waking early if `stop` is raised.
fn sleep_interruptible(stop: &AtomicBool, total: Duration) {
    let mut remaining = total;
    while !stop.load(Ordering::Relaxed) && remaining > Duration::ZERO {
        let step = remaining.min(Duration::from_millis(5));
        std::thread::sleep(step);
        remaining = remaining.saturating_sub(step);
    }
}

/// A follower's write-forwarding session to the primary: one secure
/// channel, one request–response round-trip at a time, lazily
/// (re)connected. A send that never reached the primary is retried on
/// a fresh session; a round-trip that died *after* the send is
/// reported as an error instead — blindly retrying a redemption whose
/// first attempt may have committed would turn a lost ack into a
/// spurious "token spent" refusal for the real reply.
pub struct ForwardLink {
    network: Network,
    addr: String,
    /// The primary's channel-key fingerprint: every session is pinned
    /// to it, so a hijacker on the path cannot terminate the link with
    /// their own key and answer forwarded writes.
    pin: Digest,
    session: parking_lot::Mutex<(Option<SecureChannel>, StdRng)>,
}

impl ForwardLink {
    /// A link to the primary's replication address, pinned to the
    /// fleet channel key's fingerprint `pin`. No connection is made
    /// until the first forwarded write.
    #[must_use]
    pub fn new(network: Network, addr: &str, pin: Digest, seed: u64) -> Arc<Self> {
        Arc::new(ForwardLink {
            network,
            addr: addr.to_owned(),
            pin,
            session: parking_lot::Mutex::new((None, StdRng::seed_from_u64(seed))),
        })
    }

    /// Forwards a whole client request (a grant) and returns the
    /// primary's reply to relay verbatim, plus any spans the primary
    /// exported for `ctx` (empty when untraced or the primary's
    /// tracer is dark) so the caller can merge them into its trace.
    ///
    /// # Errors
    ///
    /// Returns the refusal reason — primary unreachable, fenced, or a
    /// protocol-level denial.
    pub fn forward(
        &self,
        request: &Message,
        ctx: Option<TraceContext>,
    ) -> Result<(Message, Vec<WireSpan>), String> {
        let frame = ReplicationFrame::Forward { request: request.to_bytes(), ctx };
        match self.roundtrip(&frame)? {
            ReplicationFrame::Reply { response, ctx: _, spans } => Message::from_bytes(&response)
                .map(|reply| (reply, spans))
                .map_err(|_| "malformed primary reply".to_owned()),
            ReplicationFrame::Fenced { .. } => Err("primary fenced".into()),
            ReplicationFrame::Denied { reason } => Err(reason),
            _ => Err("unexpected primary reply".into()),
        }
    }

    /// Linearizes one exactly-once token redemption through the
    /// primary, returning the common measurement bound at grant time.
    ///
    /// # Errors
    ///
    /// Returns the refusal reason (unknown/spent token, fenced or
    /// unreachable primary, journal failure).
    pub fn redeem(
        &self,
        token: &AttestationToken,
        mrenclave: &Measurement,
    ) -> Result<Measurement, String> {
        let frame =
            ReplicationFrame::Redeem { token: *token.as_bytes(), mrenclave: *mrenclave.as_bytes() };
        match self.roundtrip(&frame)? {
            ReplicationFrame::RedeemOk { common } => Ok(Measurement(Digest(common))),
            ReplicationFrame::Fenced { .. } => Err("primary fenced".into()),
            ReplicationFrame::Denied { reason } => Err(reason),
            _ => Err("unexpected primary reply".into()),
        }
    }

    fn roundtrip(&self, frame: &ReplicationFrame) -> Result<ReplicationFrame, String> {
        let mut slot = self.session.lock();
        for _attempt in 0..2 {
            if slot.0.is_none() {
                let (session, rng) = &mut *slot;
                *session = Self::connect(&self.network, &self.addr, &self.pin, rng);
            }
            let Some(chan) = slot.0.as_mut() else { continue };
            if chan.send(&frame.to_bytes()).is_err() {
                // Never reached the primary: safe to retry fresh.
                slot.0 = None;
                continue;
            }
            match chan.recv().ok().and_then(|raw| ReplicationFrame::from_bytes(&raw).ok()) {
                Some(reply) => return Ok(reply),
                None => {
                    // The request may have reached the primary; do
                    // not blindly retry a write that may have
                    // committed.
                    slot.0 = None;
                    return Err("primary connection lost mid-request".into());
                }
            }
        }
        Err("primary unreachable".into())
    }

    fn connect(
        network: &Network,
        addr: &str,
        pin: &Digest,
        rng: &mut StdRng,
    ) -> Option<SecureChannel> {
        let conn = network.connect(addr).ok()?;
        let mut chan = SecureChannel::client_connect(conn, rng).ok()?;
        if chan.server_key_fingerprint() != *pin {
            return None; // hijacker terminating the link with their own key
        }
        chan.set_recv_timeout(Some(FORWARD_TIMEOUT));
        let hello = ReplicationFrame::Hello { role: ReplicaRole::Forward, last_seq: 0, fence: 0 };
        chan.send(&hello.to_bytes()).ok()?;
        let ack = chan.recv().ok()?;
        match ReplicationFrame::from_bytes(&ack).ok()? {
            // The hello ack; anything else (fenced, denied) means
            // this peer cannot linearize writes for us.
            ReplicationFrame::Heartbeat { .. } => Some(chan),
            _ => None,
        }
    }
}
