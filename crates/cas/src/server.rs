//! The network-facing CAS service loop.
//!
//! One [`CasServer`] is the *trusted verifier* of the paper's system
//! model: the user provisions it with policies; enclaves (and, with
//! SinClave, starters) talk to it over secure channels. Its channel
//! key's fingerprint is CAS's cryptographic identity — the value
//! SinClave bakes into instance pages.
//!
//! # Concurrency model
//!
//! The CAS serves from one **reactor** ([`CasServer::serve_reactor`],
//! in [`crate::reactor`]): a small, connection-count-independent number
//! of event-loop threads multiplex *all* connections through the
//! bus's readiness API (`net::Poller`), driving handshakes and message
//! framing as per-connection state machines and offloading CPU-heavy
//! work (SigStruct verification, grant signing, reply sealing, journal
//! group-commit waits) to a compute pool whose completions re-enqueue
//! the connection. A thousand mostly-idle attesters cost a thousand
//! parked connections, not a thousand threads. Per connection at most
//! one request is in flight at a time — dispatch order is receive
//! order — so one event loop with one compute worker
//! ([`CasServer::serve_reactor_with`]`(.., 1, 1)`) is the strictly
//! sequential instance of the paper's Fig. 7c baseline, and its bytes
//! are pinned by the golden-transcript test (`tests/serving_golden.rs`).
//!
//! Every request passes the **admission-control middleware chain**
//! ([`crate::middleware`], [`CasServer::set_middleware`]), evaluated
//! per request in fixed order: timeouts (slow-loris defense, at the
//! connection layer), per-identity token-bucket rate limiting, then
//! quotas, then panic isolation around dispatch, with a circuit
//! breaker at the journal/volume append boundary that sheds
//! journaling requests with a clean refusal while storage is failing.
//! The default chain disables every layer, and a disabled chain is
//! never consulted on the reply path — serving stays bit-identical to
//! the unprotected loop.
//!
//! The state the compute workers touch is sharded so parallel
//! requests do not contend on a single lock:
//!
//! * the policy store caches decoded [`SessionPolicy`]s as
//!   `Arc`s sharded by config id (see [`CasStore`]) — retrieval is a
//!   shard read-lock plus a pointer bump;
//! * the [`SingletonIssuer`] shards both its prepared-midstate cache
//!   (by base-hash encoding) and its token table (by token bytes), so
//!   concurrent grants for different enclaves and redemptions of
//!   different tokens take different locks, while exactly-once
//!   redemption still holds because one token always maps to one
//!   shard;
//! * service counters ([`CasStats`]) are atomics.
//!
//! # Durable state
//!
//! Two mechanisms share the policy store's encrypted volume:
//!
//! * **Snapshots** — the issuer's verified-SigStruct cache and token
//!   table, sealed as a versioned snapshot by the server's one
//!   checkpointer (`cas::checkpoint`: on a grant/redemption cadence,
//!   after the triggering reply, and at graceful shutdown) and
//!   restored at construction, so a restarted CAS serves its first
//!   repeat grant without re-running the ~0.4 ms RSA SigStruct
//!   verification. Unchanged state is never rewritten
//!   ([`CasStats::snapshot_skipped_clean`]).
//! * **The sealed redemption journal** — an append-only write-ahead
//!   log of token deltas ([`sinclave::journal_record`]) under the
//!   snapshot. Every grant and every redemption is appended **before
//!   its reply is acknowledged**; restore replays the journal suffix
//!   on top of the latest snapshot; each persisted snapshot writes a
//!   checkpoint and truncates the epochs it covers, so the log stays
//!   bounded by the cadence (with the cadence set to `0`, only
//!   explicit persists and shutdown truncate it).
//!
//! Exactly-once token redemption is therefore **crash-absolute**, not
//! snapshot-relative: a token whose redemption was acked is never
//! redeemable again, on any machine restored from this volume, no
//! matter where the crash fell. The price is the group-commit batching
//! window: concurrent redemptions coalesce into one sealed append
//! (see [`crate::commit`]), and each redeem reply is *held until its
//! batch seals* — one append's latency, amortized across every record
//! that rode along. The per-record mode ([`JournalMode::PerRecord`])
//! is the honest no-batching ablation; disabling the journal entirely
//! ([`JournalMode::Disabled`]) re-opens the documented
//! crash-reuse window that snapshots alone leave.
//!
//! Every failure degrades safely and observably. A refused snapshot is
//! counted in [`CasStats::snapshot_rejected`] and the server starts
//! cold — worse latency, never wider trust. A journal whose tail was
//! torn by a crash restores to the last complete record (the torn
//! append was never acked; counted in [`CasStats::journal_rejected`]).
//! Journal damage a crash cannot produce — corruption *before*
//! committed records — and a detected whole-disk-image rollback
//! ([`CasServer::check_rollback`], against a `(generation, journal
//! sequence)` witness the deployment keeps outside the volume; the
//! sequence half catches a host deleting the journal's committed
//! tail, which storage alone cannot distinguish from a clean end)
//! additionally quarantine all outstanding tokens
//! ([`CasStats::tokens_quarantined`]): grants must be re-requested,
//! but no token can ever be redeemed twice.
//!
//! # RNG seed derivation
//!
//! Each connection slot `i` (accept order) gets its own deterministic
//! generator seeded with `seed.wrapping_add(i)`, so runs are
//! seed-stable at any loop and worker count: the set of per-connection
//! seeds depends only on (`seed`, `connections`), never on thread
//! scheduling. (Which dialing peer lands on which slot follows arrival
//! order, as it would on a real listening socket.)

use crate::checkpoint::Checkpointer;
pub use crate::checkpoint::JournalMode;
use crate::commit::CommitPipe;
use crate::histogram::StageHistograms;
use crate::middleware::{MiddlewareChain, MiddlewareConfig, Refusal};
use crate::policy::{PolicyMode, SessionPolicy};
use crate::replica::{ForwardLink, ReplicationHub};
use crate::store::CasStore;
use crate::trace::{self, SpanOutcome, Tracer};
use rand::RngCore;
use sinclave::journal_record::{decode_batch, encode_batch, JournalRecord};
use sinclave::protocol::Message;
use sinclave::snapshot::IssuerSnapshot;
use sinclave::verifier::SingletonIssuer;
use sinclave::{AttestationToken, BaseEnclaveHash, SinclaveError};
use sinclave_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use sinclave_crypto::sha256::Digest;
use sinclave_fs::journal::JournalDamage;
use sinclave_net::Readiness;
use sinclave_sgx::measurement::Measurement;
use sinclave_sgx::quote::Quote;
use sinclave_sgx::report::ReportBody;
use sinclave_sgx::sigstruct::SigStruct;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::sync::Weak;
use std::time::{Duration, Instant};

/// The snapshot cadence a new server starts with: checkpoint, and so
/// truncate the journal, after every this many grants and after every
/// this many redemptions. Without it the sealed journal would keep
/// every group-commit batch for the server's lifetime.
/// [`CasServer::set_snapshot_cadence`] overrides it; `0` turns
/// cadence-triggered checkpoints off.
pub const DEFAULT_SNAPSHOT_CADENCE: u64 = 256;

/// Defines [`CasStats`] (the live atomics) and [`StatsSnapshot`] (its
/// coherent read-side copy) from a single field list, so the status
/// exporter and [`CasStats::snapshot`] can never silently miss a
/// counter added later — a new counter is one entry here and it shows
/// up in the struct, the snapshot, and the metrics view at once.
macro_rules! cas_counters {
    ($($(#[$doc:meta])* $field:ident,)*) => {
        /// Service counters (observability + test assertions).
        #[derive(Debug, Default)]
        pub struct CasStats {
            $($(#[$doc])* pub $field: AtomicU64,)*
        }

        /// A point-in-time copy of every [`CasStats`] counter, taken
        /// by [`CasStats::snapshot`]. Plain `u64`s: tests assert on
        /// whole snapshots instead of scattering per-field atomic
        /// loads, and the status wire renders one of these.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl CasStats {
            /// Reads every counter at once (relaxed loads — each field
            /// is individually monotone, which is all monitoring and
            /// test assertions need).
            #[must_use]
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)*
                }
            }
        }

        impl StatsSnapshot {
            /// Every counter as a `(name, value)` row in declaration
            /// order — the backing of the status wire's metrics view.
            #[must_use]
            pub fn named(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)*]
            }
        }
    };
}

cas_counters! {
    /// Singleton grants issued.
    grants_issued,
    /// Configurations delivered.
    configs_delivered,
    /// Requests denied.
    denials,
    /// Secure-channel records that failed authentication (tampered,
    /// replayed or reordered). A clean peer disconnect is *not* a
    /// rejected record; this counter moving on a production box means
    /// someone is modifying traffic.
    records_rejected,
    /// Singleton tokens redeemed (exactly-once consumptions). Drives
    /// the redemption half of the snapshot cadence.
    tokens_redeemed,
    /// Durable-state snapshots written to the encrypted volume
    /// (cadence-triggered and explicit [`CasServer::persist_state`]
    /// calls).
    snapshot_persisted,
    /// Snapshot writes that failed. Cadence-triggered persists cannot
    /// surface an error to any caller, so this counter is the signal
    /// that durability has silently stopped: it moving (or
    /// `snapshot_persisted` stalling against `grants_issued`) means
    /// the volume is refusing writes and the next restart will fall
    /// back to an old snapshot.
    snapshot_persist_failed,
    /// Snapshots successfully restored at construction — at most 1 per
    /// server lifetime; `0` with `snapshot_rejected == 0` means a cold
    /// volume.
    snapshot_restored,
    /// Snapshots refused at construction (unreadable file, bad
    /// framing/checksum/version, or identity mismatch). The server
    /// starts cold instead; this counter moving on a production box
    /// means the volume was tampered with or rolled back.
    snapshot_rejected,
    /// Snapshot writes skipped because the durable state was unchanged
    /// since the last persist (the dirty-epoch check) — expected to
    /// move on read-heavy workloads; each skip is a volume rewrite
    /// saved.
    snapshot_skipped_clean,
    /// Journal records made durable (each one covered an acked grant
    /// or redemption; batches of concurrent commits count per record).
    journal_appended,
    /// Journal records whose covering append failed — the reply was
    /// denied, the event is not durable. This moving means the volume
    /// refuses writes; redemption service is failing closed.
    journal_append_failed,
    /// State-mutating journal records (grants, redemptions) replayed
    /// onto the restored snapshot at construction. Checkpoint and
    /// fence records adjust metadata but do not count: a *clean*
    /// shutdown's journal holds nothing but its final checkpoint, and
    /// this counter staying zero is how a restart proves the stop was
    /// clean.
    journal_replayed,
    /// Journal damage events at construction: a torn tail degraded to
    /// the last complete record, or corruption/sequence damage that
    /// additionally quarantined outstanding tokens.
    journal_rejected,
    /// Whole-disk-image rollbacks detected by
    /// [`CasServer::check_rollback`].
    rollback_detected,
    /// Outstanding tokens dropped by fail-closed quarantine (journal
    /// corruption or detected rollback). Holders must re-request
    /// grants; no token is ever redeemable twice.
    tokens_quarantined,
    /// Connections dropped by a configured handshake or read deadline
    /// (the slow-loris defense; see
    /// [`MiddlewareConfig::handshake_timeout`] /
    /// [`MiddlewareConfig::idle_timeout`]).
    connections_timed_out,
    /// Requests refused by the per-identity token-bucket rate limiter.
    requests_rate_limited,
    /// Requests refused by the absolute per-identity quota.
    requests_quota_denied,
    /// Journaling requests shed by the open circuit breaker (storage
    /// is refusing appends; the refusal never touched the volume).
    requests_shed,
    /// Dispatch panics contained by panic isolation: the connection
    /// was closed, the serving thread survived.
    panics_isolated,
    /// Writes refused because this server's fence is outranked (a
    /// failover promoted a replica past it). Each one is a
    /// double-redemption the fencing rule prevented.
    writes_fenced,
    /// Times a peer presented a fencing generation above the highest
    /// previously seen (the observation is persisted; see
    /// [`CasServer::observe_fence`]).
    fences_observed,
    /// Writes (grants, redemptions) this replica forwarded to the
    /// primary for linearization.
    forwarded_writes,
    /// Sealed record batches published to live replication
    /// subscribers (counted once per committed batch, not per
    /// subscriber).
    replication_batches_streamed,
    /// Journal records this replica applied from the replication
    /// stream (baseline suffix + live batches).
    replication_records_replayed,
    /// Replication payloads refused by the frame or batch codec
    /// (damaged, torn, or tampered) — the stream is dropped and
    /// resynced, never partially applied.
    replication_frames_rejected,
    /// Times the follower pump lost its stream and scheduled a
    /// reconnect (bounded backoff; the replica keeps serving reads
    /// as degraded in between).
    replication_reconnects,
}

/// The CAS service.
pub struct CasServer {
    pub(crate) channel_key: RsaPrivateKey,
    issuer: SingletonIssuer,
    attestation_root: RsaPublicKey,
    /// Policy store; internally sharded and safe for concurrent use
    /// (retrieval is a shard read-lock plus an `Arc` bump).
    store: CasStore,
    /// Group-commit pipe sequencing journal records.
    pipe: CommitPipe,
    /// The one owner of snapshots, journal truncation and the restore
    /// generation; serving threads run its due checkpoints.
    pub(crate) checkpoint: Checkpointer,
    /// The admission-control stack every served request passes
    /// (default: every layer off). Swapped whole by
    /// [`CasServer::set_middleware`].
    middleware: parking_lot::RwLock<Arc<MiddlewareChain>>,
    /// Test instrumentation for the panic-isolation layer: when set,
    /// the next dispatched `Ping` panics (see
    /// [`CasServer::set_dispatch_panic_for_tests`]).
    panic_on_next_ping: AtomicBool,
    /// This server's own fencing generation: the highest fence it has
    /// *committed under* (restored from the snapshot stamp and from
    /// replayed [`JournalRecord::Fence`] records; bumped by
    /// [`CasServer::promote`]).
    fence: AtomicU64,
    /// The highest fencing generation observed fleet-wide — always at
    /// least [`CasServer::fence`]; strictly above it exactly when this
    /// server is deposed ([`CasServer::is_fenced`]). Persisted through
    /// the store so a deposed primary restarting from a pre-failover
    /// disk image comes back fenced.
    fence_ceiling: AtomicU64,
    /// Set while this server is a live replication subscriber: local
    /// writes are refused (they would collide with the primary's
    /// sequence numbers) and checkpoints are deferred to promotion.
    following: AtomicBool,
    /// A follower's write-forwarding link to the primary; `None` on a
    /// primary (and on a read-only follower, which refuses writes
    /// outright).
    forward: parking_lot::RwLock<Option<Arc<ForwardLink>>>,
    /// The hub live commit batches are published to while replication
    /// serving is up ([`crate::replica::serve_replication`]).
    replication: parking_lot::RwLock<Option<Arc<ReplicationHub>>>,
    /// Counters.
    pub stats: CasStats,
    /// Per-stage latency histograms, fed by the reactor and (via the
    /// issuer's stage observer) the verify/sign stages. In an
    /// `Arc` so the observer closure can hold it without borrowing the
    /// server.
    latency: Arc<StageHistograms>,
    /// The per-request tracing control plane (see [`crate::trace`]):
    /// trace-id minting, tail-sampling classification, and the span
    /// flight recorder behind the `trace` status view. Dark by
    /// default — serving stays byte-identical until an operator lights
    /// it ([`Tracer::set_enabled`]).
    tracer: Tracer,
    /// Construction time — the status views' `uptime_seconds` gauge.
    started: Instant,
    /// The primary's high journal sequence as last heard over the
    /// replication stream (heartbeats carry it): the follower half of
    /// the `trace` view's replication-lag gauge.
    replication_high_seq: AtomicU64,
    /// Trace-clock nanoseconds of the last replication-stream
    /// activity this follower observed (batch applied or heartbeat
    /// heard); `0` until the stream first speaks.
    replication_stream_ns: AtomicU64,
    /// Set by [`CasServer::shutdown`]: serving paths stop accepting,
    /// finish in-flight requests, and exit.
    draining: AtomicBool,
    /// Wakeup handles of parked reactor event loops, signaled at
    /// shutdown so a loop waiting out its (up to 60 s) poll tick
    /// notices the drain immediately.
    drain_wakers: parking_lot::Mutex<Vec<Weak<Readiness>>>,
    /// Stop flags of follower pumps attached to this server, raised at
    /// shutdown so followers unsubscribe cleanly.
    drain_stops: parking_lot::Mutex<Vec<Weak<AtomicBool>>>,
    /// Live reactors; [`CasServer::shutdown`] waits for none to be left
    /// before persisting.
    active_serves: AtomicU64,
    /// The `journal_append_failed` count the last health probe saw —
    /// the probe reports Degraded while the counter moves between
    /// probes (appends failing *now*), not forever after one historic
    /// failure (each failed append already failed its request closed).
    health_journal_failed_seen: AtomicU64,
}

impl fmt::Debug for CasServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("CasServer")
            .field("identity", &self.identity().to_hex()[..12].to_owned())
            .finish()
    }
}

/// RAII registration of one reactor with its server: taken *before*
/// its thread spawns, so a [`CasServer::shutdown`] racing the spawn
/// still waits for it, and released when the reactor ends, panics
/// included.
pub(crate) struct ServeGuard {
    server: Arc<CasServer>,
}

impl ServeGuard {
    /// Registers one reactor; move the guard into its thread.
    pub(crate) fn register(server: &Arc<CasServer>) -> ServeGuard {
        server.active_serves.fetch_add(1, Ordering::SeqCst);
        ServeGuard { server: Arc::clone(server) }
    }
}

impl Drop for ServeGuard {
    fn drop(&mut self) {
        self.server.active_serves.fetch_sub(1, Ordering::SeqCst);
    }
}

/// An admitted client request on its way to dispatch. A grant's
/// common SigStruct is decoded once, at admission: the rate-limit and
/// quota layers charge its signer and the issuer validates and signs
/// from the same parsed value.
pub(crate) struct Request {
    message: Message,
    /// The grant's parsed common SigStruct; `None` for every other
    /// message and for a grant whose SigStruct does not decode.
    grant_sigstruct: Option<SigStruct>,
}

impl Request {
    fn new(message: Message) -> Request {
        let grant_sigstruct = match &message {
            Message::GrantRequest { common_sigstruct, .. } => {
                SigStruct::from_bytes(common_sigstruct).ok()
            }
            _ => None,
        };
        Request { message, grant_sigstruct }
    }

    /// The stable identity the rate-limit and quota layers charge the
    /// request to: the SigStruct signer for grants (one key pair per
    /// application vendor), the config id for attestations. Control
    /// messages (ping, challenge) carry no identity and are never
    /// charged. The signer is the fingerprint of the *parsed* key, so
    /// a non-canonical encoding of one key (say, with leading zero
    /// bytes) cannot open a second identity for the same signer.
    fn identity(&self) -> Option<Digest> {
        match &self.message {
            Message::GrantRequest { .. } => self.grant_sigstruct.as_ref().map(SigStruct::mrsigner),
            Message::AttestRequest { config_id, .. }
            | Message::BaselineAttestRequest { config_id, .. } => {
                Some(sinclave_crypto::sha256::digest_parts(&[config_id.as_bytes()]))
            }
            _ => None,
        }
    }
}

impl Drop for CasServer {
    fn drop(&mut self) {
        // A server dropped without an explicit [`CasServer::shutdown`]
        // used to lose its in-memory dirty window (everything since
        // the last cadence persist) to journal-replay-on-restart.
        // Best-effort persist on the last owner's drop: errors are
        // deliberately discarded — there is no caller to report to,
        // and the journal still covers every acked event — and clean
        // epochs skip the write entirely. Followers and fenced
        // ex-primaries hold no authoritative state to seal.
        if !self.following.load(Ordering::Relaxed) && !self.is_fenced() {
            let _ = self.persist_state();
        }
    }
}

impl CasServer {
    /// Creates a CAS from its channel key, the application signer key
    /// it guards, the attestation root it trusts, and a policy store.
    ///
    /// If the store's volume carries a durable-state snapshot (a
    /// previous instance called [`CasServer::persist_state`]), the
    /// issuer is rehydrated from it, and the sealed redemption journal
    /// is then replayed on top — the restarted CAS comes up with its
    /// verify cache warm and its token table exactly as of the last
    /// *acked* event, not just the last snapshot. Any unreadable,
    /// corrupt, wrong-version or wrong-identity snapshot is counted in
    /// [`CasStats::snapshot_rejected`] and the server starts cold
    /// (journal replay still applies); journal damage is classified
    /// and counted per the module docs. A bad volume can degrade
    /// performance or quarantine outstanding tokens, never widen
    /// trust, and never prevents the CAS from starting.
    #[must_use]
    pub fn new(
        channel_key: RsaPrivateKey,
        signer_key: RsaPrivateKey,
        attestation_root: RsaPublicKey,
        store: CasStore,
    ) -> Arc<Self> {
        let identity = channel_key.public_key().fingerprint();
        let latency = Arc::new(StageHistograms::default());
        let tracer = Tracer::new(Arc::clone(&latency));
        let server = CasServer {
            channel_key,
            issuer: SingletonIssuer::new(signer_key, identity),
            attestation_root,
            store,
            pipe: CommitPipe::new(),
            checkpoint: Checkpointer::new(),
            middleware: parking_lot::RwLock::new(Arc::new(MiddlewareChain::default())),
            panic_on_next_ping: AtomicBool::new(false),
            fence: AtomicU64::new(0),
            fence_ceiling: AtomicU64::new(0),
            following: AtomicBool::new(false),
            forward: parking_lot::RwLock::new(None),
            replication: parking_lot::RwLock::new(None),
            stats: CasStats::default(),
            latency,
            tracer,
            started: Instant::now(),
            replication_high_seq: AtomicU64::new(0),
            replication_stream_ns: AtomicU64::new(0),
            draining: AtomicBool::new(false),
            drain_wakers: parking_lot::Mutex::new(Vec::new()),
            drain_stops: parking_lot::Mutex::new(Vec::new()),
            active_serves: AtomicU64::new(0),
            health_journal_failed_seen: AtomicU64::new(0),
        };
        // Feed the issuer's verify/sign stage latencies into the
        // shared histograms (set-once; absent observers cost nothing).
        let latency = Arc::clone(&server.latency);
        server.issuer.set_stage_observer(move |stage, elapsed| match stage {
            sinclave::verifier::IssueStage::Verify => {
                latency.verify.record(elapsed);
                trace::record_elapsed("verify", elapsed, SpanOutcome::Ok);
            }
            sinclave::verifier::IssueStage::Sign => {
                latency.sign.record(elapsed);
                trace::record_elapsed("sign", elapsed, SpanOutcome::Ok);
            }
        });
        // The on-disk snapshot covers exactly the state restored;
        // journal replay dirties the epoch again if it applies
        // anything beyond the snapshot.
        let baseline = server.restore_state();
        server.replay_journal(baseline);
        // The persisted fence ceiling outlives snapshots and journal
        // replay: a deposed primary restarting from its pre-failover
        // disk image must come back fenced, even though nothing in
        // that image's snapshot or journal carries the newer fence.
        let own = server.fence.load(Ordering::Relaxed);
        let ceiling = match server.store.restore_fence() {
            Ok(Some(ceiling)) => ceiling.max(own),
            Ok(None) => own,
            // Fail closed: an unreadable ceiling could be hiding a
            // deposition, so assume one until an operator promotes.
            Err(_) => own + 1,
        };
        server.fence_ceiling.store(ceiling, Ordering::Relaxed);
        Arc::new(server)
    }

    /// CAS's cryptographic identity (channel-key fingerprint).
    #[must_use]
    pub fn identity(&self) -> Digest {
        self.channel_key.public_key().fingerprint()
    }

    /// The singleton issuer (exposed for offline grant issuance in
    /// benchmarks).
    #[must_use]
    pub fn issuer(&self) -> &SingletonIssuer {
        &self.issuer
    }

    /// Registers (or replaces) a session policy.
    ///
    /// # Errors
    ///
    /// Propagates database failures.
    pub fn add_policy(&self, policy: SessionPolicy) -> Result<(), SinclaveError> {
        self.store.put_policy(&policy)
    }

    /// The policy store (exposed for lifecycle management: a restart
    /// harness snapshots `store().volume()` and reopens it).
    #[must_use]
    pub fn store(&self) -> &CasStore {
        &self.store
    }

    // ---- Durable state lifecycle -----------------------------------------

    /// Writes the issuer's durable state (verify-cache keys + token
    /// table) into the encrypted volume, crash-safely: the volume
    /// stages the new snapshot under a fresh file id and flips the
    /// manifest as the single commit point, so a crash mid-persist
    /// leaves the previous good snapshot readable.
    ///
    /// A persist is the journal's checkpoint (rotate, checkpoint
    /// record, write, truncate; a crash anywhere loses no acked event),
    /// skipped while the state is unchanged
    /// ([`CasStats::snapshot_skipped_clean`]). [`CasServer::shutdown`]
    /// calls this; [`CasServer::set_snapshot_cadence`] checkpoints on a
    /// cadence. A failure is counted in
    /// [`CasStats::snapshot_persist_failed`] and keeps
    /// [`CasServer::health`] Degraded until a persist succeeds.
    ///
    /// # Errors
    ///
    /// Propagates volume failures.
    pub fn persist_state(&self) -> Result<(), SinclaveError> {
        self.checkpoint.run(self)
    }

    /// Persist the durable state automatically after every
    /// `every_events` issued grants and after every `every_events`
    /// redeemed tokens. A new server starts at
    /// [`DEFAULT_SNAPSHOT_CADENCE`]; `0` disables the cadence, and then
    /// the journal grows until an explicit persist or shutdown
    /// truncates it.
    ///
    /// A crossing only marks the checkpoint due. The reactor compute
    /// worker or primary forwarder that served it runs it after the
    /// reply is written: no reply waits for the snapshot write, that
    /// connection's next request does. A direct
    /// [`CasServer::redeem_token`] leaves it due until the next served
    /// reply or shutdown.
    pub fn set_snapshot_cadence(&self, every_events: u64) {
        self.checkpoint.set_cadence(every_events);
    }

    // ---- Operability: health, latency, graceful shutdown -----------------

    /// The per-stage latency histograms request serving feeds (see
    /// [`crate::histogram`]); rendered by the status wire's
    /// `histograms` view.
    #[must_use]
    pub fn latency(&self) -> &StageHistograms {
        &self.latency
    }

    /// The tracing control plane (see [`crate::trace`]). Dark by
    /// default; `tracer().set_enabled(true)` lights it up, and the
    /// `trace` status view renders what the flight recorder kept.
    #[must_use]
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Time since this server object was constructed — rendered as
    /// `uptime_seconds` by the `health` and `metrics` status views.
    #[must_use]
    pub fn uptime(&self) -> Duration {
        self.started.elapsed()
    }

    /// The health verdict the status wire serves (see
    /// [`crate::status::Health`] for what each level means and
    /// `docs/operations.md` for the runbook):
    ///
    /// * **FailClosed** — fenced (a failover outranked this server) or
    ///   the append circuit breaker is open. Writes are refused.
    /// * **Degraded** — still serving, but durability or replication
    ///   is impaired: a persist has failed and not yet succeeded
    ///   again, journal appends failed since the previous
    ///   probe, or a follower lost its replication stream.
    /// * **Healthy** — none of the above.
    pub fn health(&self) -> crate::status::Health {
        if self.is_fenced() || self.middleware().breaker_open() {
            return crate::status::Health::FailClosed;
        }
        let journal_failed = self.stats.journal_append_failed.load(Ordering::Relaxed);
        let seen = self.health_journal_failed_seen.swap(journal_failed, Ordering::Relaxed);
        if self.checkpoint.failing() || journal_failed > seen || self.middleware().is_degraded() {
            return crate::status::Health::Degraded;
        }
        crate::status::Health::Healthy
    }

    /// Whether [`CasServer::shutdown`] has begun: serving loops check
    /// this at their drain points and exit instead of taking new work.
    pub(crate) fn is_draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Registers a parked event loop's wakeup handle so shutdown can
    /// interrupt its poll wait (weak: a finished loop's handle just
    /// fails to upgrade).
    pub(crate) fn register_drain_waker(&self, waker: &Arc<Readiness>) {
        self.drain_wakers.lock().push(Arc::downgrade(waker));
    }

    /// Registers a follower pump's stop flag so shutdown makes it
    /// unsubscribe cleanly (weak: a stopped pump's flag just fails to
    /// upgrade).
    pub(crate) fn register_drain_stop(&self, stop: &Arc<AtomicBool>) {
        self.drain_stops.lock().push(Arc::downgrade(stop));
    }

    /// Graceful shutdown: stop accepting, drain in-flight requests on
    /// every reactor (client, replication and status listeners), stop
    /// follower pumps, then persist the durable state — so a clean
    /// stop restores from the snapshot with **zero** journal replay.
    ///
    /// The commit pipe needs no separate flush: commits are
    /// synchronous within request handling, so once the serving
    /// threads have drained there is nothing in flight to seal.
    ///
    /// Idempotent; callers typically join their serve handles after
    /// this returns. On a follower (or a fenced ex-primary) the
    /// persist is skipped — checkpoints are deferred to promotion, and
    /// a deposed server's state is no longer authoritative — and the
    /// drain alone is the shutdown.
    ///
    /// # Errors
    ///
    /// Propagates the final persist's volume failure (the drain itself
    /// cannot fail; serving threads that outlive the drain deadline
    /// are abandoned to their own timeouts).
    pub fn shutdown(&self) -> Result<(), SinclaveError> {
        let was_following = self.following.load(Ordering::Relaxed);
        self.draining.store(true, Ordering::SeqCst);
        // Wake parked reactor loops (they may be in a poll wait of up
        // to 60 s) so the drain is noticed now, not at the next tick.
        for waker in self.drain_wakers.lock().iter() {
            if let Some(waker) = waker.upgrade() {
                waker.signal();
            }
        }
        // Followers unsubscribe cleanly: raise the pump stop flags.
        for stop in self.drain_stops.lock().iter() {
            if let Some(stop) = stop.upgrade() {
                stop.store(true, Ordering::SeqCst);
            }
        }
        // Wait (bounded) for the serving threads to finish in-flight
        // requests and exit their accept loops.
        let deadline = Instant::now() + sinclave_net::bus::RECV_TIMEOUT;
        while self.active_serves.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        if was_following || self.is_fenced() {
            return Ok(());
        }
        self.persist_state()
    }

    /// Attempts to rehydrate the issuer from the store's snapshot at
    /// construction time. Never fails the construction: a cold volume
    /// is a no-op, and every rejection path (unreadable file, bad
    /// framing, identity mismatch) counts into
    /// [`CasStats::snapshot_rejected`] and leaves the issuer exactly
    /// as cold as a fresh one — restore is all-or-nothing. Returns the
    /// journal sequence the restored snapshot is current through (`0`
    /// when nothing was restored): the continuity baseline journal
    /// replay enforces gap-freedom above.
    fn restore_state(&self) -> u64 {
        let restored = match self.store.restore_state() {
            Ok(None) => return 0, // cold volume: nothing to restore
            Ok(Some(bytes)) => IssuerSnapshot::from_bytes(&bytes)
                .and_then(|snapshot| self.issuer.restore_snapshot(&snapshot).map(|_| snapshot)),
            Err(e) => Err(e),
        };
        let Ok(snapshot) = restored else {
            self.stats.snapshot_rejected.fetch_add(1, Ordering::Relaxed);
            return 0;
        };
        self.checkpoint.record_on_disk(snapshot.generation, self.issuer.mutation_epoch());
        self.fence.store(snapshot.fence, Ordering::Relaxed);
        self.stats.snapshot_restored.fetch_add(1, Ordering::Relaxed);
        snapshot.journal_sequence
    }

    /// Replays the sealed redemption journal on top of whatever the
    /// snapshot restore produced, at construction time. Never fails
    /// the construction:
    ///
    /// * every record in the clean prefix is applied idempotently;
    ///   the state-mutating ones are counted in
    ///   [`CasStats::journal_replayed`];
    /// * a torn tail (the one damage shape a crash can produce; its
    ///   append was never acked) is counted in
    ///   [`CasStats::journal_rejected`] and the state stands at the
    ///   last complete record;
    /// * damage a crash cannot produce — corruption before committed
    ///   records, an unreadable journal, a sequence gap or regression
    ///   — is also counted, and additionally quarantines every
    ///   outstanding token: fail closed, never honor state the log
    ///   cannot vouch for.
    fn replay_journal(&self, baseline: u64) {
        let recovery = match self.store.recover_journal() {
            Ok(recovery) => recovery,
            Err(_) => {
                self.stats.journal_rejected.fetch_add(1, Ordering::Relaxed);
                self.quarantine("journal unreadable");
                return;
            }
        };
        let mut fence = self.fence.load(Ordering::Relaxed);
        let mut last_seq = 0u64;
        let mut torn = matches!(recovery.damage, Some(JournalDamage::TornTail { .. }));
        let mut corrupt = matches!(recovery.damage, Some(JournalDamage::Corrupt { .. }));
        let chunk_count = recovery.chunks.len();
        'replay: for (pos, chunk) in recovery.chunks.iter().enumerate() {
            let batch = decode_batch(&chunk.payload);
            for sequenced in &batch.records {
                if sequenced.seq <= last_seq {
                    // Appends are sequenced strictly forward; a
                    // regression or repeat is tampering, not a crash.
                    corrupt = true;
                    break 'replay;
                }
                if sequenced.seq > baseline && sequenced.seq != last_seq.max(baseline) + 1 {
                    // Above the snapshot's baseline the sequence must
                    // be gap-free: every missing number is an acked
                    // record the snapshot does not cover — a host
                    // deleting a span of committed chunks (or a whole
                    // epoch) looks exactly like this, and storage
                    // alone cannot tell it from a clean end. (Below
                    // the baseline, gaps are safe: those records'
                    // effects are already in the snapshot.)
                    corrupt = true;
                    break 'replay;
                }
                last_seq = sequenced.seq;
                match sequenced.record {
                    // Metadata records are absorbed, not counted: a
                    // clean stop leaves exactly one checkpoint behind,
                    // and `journal_replayed == 0` after a restart is
                    // the observable proof the stop was clean.
                    JournalRecord::Checkpoint { generation } => {
                        self.checkpoint.observe_generation(generation);
                    }
                    JournalRecord::Fence { fence: f } => fence = fence.max(f),
                    _ => {
                        self.issuer.apply_record(&sequenced.record);
                        self.stats.journal_replayed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            if batch.damaged.is_some() {
                // Record-level damage inside a committed chunk: benign
                // only as the very tail of the journal (a torn batch
                // whose suffix was never acked); anywhere else it is
                // corruption.
                if pos == chunk_count - 1 && recovery.damage.is_none() {
                    torn = true;
                } else {
                    corrupt = true;
                }
                break;
            }
        }
        self.fence.store(fence, Ordering::Relaxed);
        self.pipe.resume_after(last_seq.max(baseline));
        if torn || corrupt {
            self.stats.journal_rejected.fetch_add(1, Ordering::Relaxed);
        }
        if corrupt {
            self.quarantine("journal corrupt");
        }
    }

    /// Fail-closed quarantine: drops every outstanding token (each
    /// becomes "unknown", which is refused) and counts them. `reason`
    /// documents the call sites; the counters carry the signal.
    fn quarantine(&self, reason: &'static str) {
        let _ = reason;
        let dropped = self.issuer.quarantine_outstanding();
        self.stats.tokens_quarantined.fetch_add(dropped as u64, Ordering::Relaxed);
    }

    /// The current restore generation (monotonic across persists).
    /// Deployments record this *outside* the volume — together with
    /// [`CasServer::journal_sequence`] — after each graceful persist
    /// and hand both back to [`CasServer::check_rollback`] after a
    /// restore.
    #[must_use]
    pub fn restore_generation(&self) -> u64 {
        self.checkpoint.generation()
    }

    /// The highest journal record sequence number this server has
    /// committed (after a restore: the last sequence replayed). The
    /// second half of the rollback witness: generations only move at
    /// snapshots, so they cannot see a host deleting the journal's
    /// committed *tail* — which is indistinguishable from a clean
    /// journal end at the storage layer. The sequence can.
    #[must_use]
    pub fn journal_sequence(&self) -> u64 {
        self.pipe.sequence()
    }

    /// Compares the restored state against an externally kept witness
    /// `(generation, journal sequence)`. A volume whose snapshot *and*
    /// checkpoints are older than the witnessed generation, or whose
    /// replayed journal ends before the witnessed sequence, can only
    /// be a replayed older disk image or a truncated journal: the
    /// rollback is counted in [`CasStats::rollback_detected`] and
    /// every outstanding token is quarantined — the rolled-back table
    /// may resurrect tokens redeemed (and acked) on the newer image,
    /// so none of them may be honored. Returns whether a rollback was
    /// detected.
    ///
    /// Residual honesty: events acked *after* the witness was last
    /// refreshed are not covered — deleting exactly that suffix is
    /// undetectable by any periodically refreshed witness. Refreshing
    /// per persist bounds the exposure to one checkpoint window; a
    /// platform monotonic counter updated per append would close it
    /// entirely (see ROADMAP).
    pub fn check_rollback(&self, witness_generation: u64, witness_sequence: u64) -> bool {
        if self.checkpoint.generation() >= witness_generation
            && self.pipe.sequence() >= witness_sequence
        {
            return false;
        }
        self.stats.rollback_detected.fetch_add(1, Ordering::Relaxed);
        self.quarantine("disk image rollback");
        true
    }

    /// Selects how redemption journaling is driven (default:
    /// [`JournalMode::GroupCommit`]). Exposed for the
    /// `ablation/journal` bench and for deployments that accept the
    /// documented crash window in exchange for zero append cost.
    pub fn set_journal_mode(&self, mode: JournalMode) {
        self.checkpoint.set_journal_mode(mode);
    }

    /// The current journal mode.
    #[must_use]
    pub fn journal_mode(&self) -> JournalMode {
        self.checkpoint.journal_mode()
    }

    // ---- Replication & fencing -------------------------------------------

    /// This server's own fencing generation — the highest fence it has
    /// committed under.
    #[must_use]
    pub fn fence(&self) -> u64 {
        self.fence.load(Ordering::Relaxed)
    }

    /// The highest fencing generation observed fleet-wide (always at
    /// least [`CasServer::fence`]).
    #[must_use]
    pub fn fence_ceiling(&self) -> u64 {
        self.fence_ceiling.load(Ordering::Relaxed)
    }

    /// Whether this server is deposed: a fence above its own has been
    /// observed (a failover promoted a replica past it). A fenced
    /// server refuses every write — grants, redemptions, checkpoints —
    /// while read-only service (policy retrieval, baseline
    /// attestation) continues.
    #[must_use]
    pub fn is_fenced(&self) -> bool {
        self.fence_ceiling.load(Ordering::Relaxed) > self.fence.load(Ordering::Relaxed)
    }

    /// Records a fencing generation observed from a peer. A fence
    /// above the highest previously seen is counted
    /// ([`CasStats::fences_observed`]) and persisted through the
    /// store, so restarting from this volume stays fenced. Returns
    /// whether the server is now fenced.
    pub fn observe_fence(&self, peer_fence: u64) -> bool {
        let previous = self.fence_ceiling.fetch_max(peer_fence, Ordering::Relaxed);
        if peer_fence > previous {
            self.stats.fences_observed.fetch_add(1, Ordering::Relaxed);
            // Best-effort durability: even if the write fails, the
            // live process stays fenced; only a crash-restart of this
            // exact volume could forget the observation.
            let _ = self.store.persist_fence(peer_fence);
        }
        self.is_fenced()
    }

    /// Promotes this replica to primary under a fresh fencing
    /// generation: one above everything it has ever seen. The bump is
    /// committed durably as a [`JournalRecord::Fence`] record —
    /// continuing the primary's sequence numbering, so the promoted
    /// journal is a strict suffix extension — and persisted as the
    /// fence ceiling. Any still-running old primary that hears this
    /// fence (over a replication session) refuses all further writes.
    ///
    /// The caller must have stopped this replica's follower pump
    /// first; promotion clears the following flag and drops the
    /// forward link, so writes are served locally from here on.
    ///
    /// # Errors
    ///
    /// Propagates journal/volume failures; the promotion is not
    /// durable and must not be announced.
    pub fn promote(&self) -> Result<u64, SinclaveError> {
        let new_fence =
            self.fence.load(Ordering::Relaxed).max(self.fence_ceiling.load(Ordering::Relaxed)) + 1;
        self.following.store(false, Ordering::Relaxed);
        *self.forward.write() = None;
        self.fence.store(new_fence, Ordering::Relaxed);
        self.fence_ceiling.store(new_fence, Ordering::Relaxed);
        self.commit_record(JournalRecord::Fence { fence: new_fence })?;
        self.store.persist_fence(new_fence)?;
        Ok(new_fence)
    }

    /// Marks this server as a live replication subscriber (set by the
    /// follower pump). While following, local writes are refused and
    /// checkpoints are deferred — every durable record must come from
    /// the primary's stream so sequence numbers stay primary-owned.
    pub fn set_following(&self, following: bool) {
        self.following.store(following, Ordering::Relaxed);
    }

    /// Whether this server is currently a live replication subscriber.
    #[must_use]
    pub fn is_following(&self) -> bool {
        self.following.load(Ordering::Relaxed)
    }

    /// Installs (or clears) the write-forwarding link a follower uses
    /// to linearize grants and redemptions through the primary.
    pub fn set_forward_link(&self, link: Option<Arc<ForwardLink>>) {
        *self.forward.write() = link;
    }

    fn forward_link(&self) -> Option<Arc<ForwardLink>> {
        self.forward.read().clone()
    }

    /// Installs (or clears) the hub committed batches are published
    /// to; set by [`crate::replica::serve_replication`].
    pub(crate) fn set_replication_hub(&self, hub: Option<Arc<ReplicationHub>>) {
        *self.replication.write() = hub;
    }

    /// The live replication hub, if this server is serving
    /// subscribers — the primary half of the `trace` view's
    /// replication-lag gauges.
    pub(crate) fn replication_hub(&self) -> Option<Arc<ReplicationHub>> {
        self.replication.read().clone()
    }

    /// Follower-side stream bookkeeping: stamps the last time the
    /// replication stream spoke (a batch applied or a heartbeat
    /// heard) and, when the frame carried it, the primary's high
    /// journal sequence. Called by the follower pump; feeds
    /// [`CasServer::follower_lag`].
    pub(crate) fn note_stream_progress(&self, primary_high_seq: Option<u64>) {
        self.replication_stream_ns.store(trace::now_ns(), Ordering::Relaxed);
        if let Some(high) = primary_high_seq {
            self.replication_high_seq.fetch_max(high, Ordering::Relaxed);
        }
    }

    /// A follower's replication-lag gauges as `(local_seq,
    /// primary_seq, stream_age_ns)`; `None` on a server that is not
    /// following. `primary_seq` trails reality by at most one
    /// heartbeat interval, so `primary_seq - local_seq` is the acked
    /// sequence delta an operator reads as "how far behind".
    pub(crate) fn follower_lag(&self) -> Option<(u64, u64, u64)> {
        if !self.is_following() {
            return None;
        }
        let last = self.replication_stream_ns.load(Ordering::Relaxed);
        let age = if last == 0 { 0 } else { trace::now_ns().saturating_sub(last) };
        Some((self.journal_sequence(), self.replication_high_seq.load(Ordering::Relaxed), age))
    }

    /// Adopts a primary's bootstrap baseline: raw snapshot bytes plus
    /// the sealed journal suffix, exactly what the primary's own
    /// restart would replay.
    ///
    /// A replica already at or past `baseline_seq` skips the snapshot
    /// and applies only the suffix (records at or below its own high
    /// sequence are skipped idempotently) — the reconnect catch-up
    /// path. A cold replica adopts the snapshot wholesale and persists
    /// it before replaying the suffix. A *warm* replica that has
    /// fallen behind the snapshot cannot catch up by suffix alone and
    /// is refused — the deployment re-provisions it from a fresh
    /// store.
    ///
    /// Returns the replica's high journal sequence after adoption.
    ///
    /// # Errors
    ///
    /// Returns [`SinclaveError::ReplicationInvalid`] on a malformed or
    /// inconsistent baseline, or when this replica is too stale;
    /// propagates volume failures.
    pub fn adopt_baseline(
        &self,
        fence: u64,
        baseline_seq: u64,
        snapshot: &[u8],
        chunks: &[Vec<u8>],
    ) -> Result<u64, SinclaveError> {
        let last = self.pipe.sequence();
        if last < baseline_seq {
            if last != 0 || self.checkpoint.snapshot_on_disk() {
                return Err(SinclaveError::ReplicationInvalid {
                    context: "replica too stale for suffix catch-up",
                });
            }
            if snapshot.is_empty() {
                return Err(SinclaveError::ReplicationInvalid {
                    context: "baseline sequence without snapshot",
                });
            }
            let parsed = IssuerSnapshot::from_bytes(snapshot)
                .map_err(|_| SinclaveError::ReplicationInvalid { context: "baseline snapshot" })?;
            if parsed.journal_sequence != baseline_seq {
                return Err(SinclaveError::ReplicationInvalid {
                    context: "baseline sequence mismatch",
                });
            }
            self.issuer
                .restore_snapshot(&parsed)
                .map_err(|_| SinclaveError::ReplicationInvalid { context: "baseline snapshot" })?;
            // Durable bootstrap: persist the adopted snapshot bytes
            // verbatim, so this replica's own restart replays from
            // the same baseline instead of coming up cold.
            self.store.persist_state(snapshot)?;
            self.checkpoint.record_on_disk(parsed.generation, self.issuer.mutation_epoch());
            self.stats.snapshot_restored.fetch_add(1, Ordering::Relaxed);
            self.pipe.resume_after(baseline_seq);
        }
        // Operate under the primary's fence: the follower is in-sync
        // authority-wise, not deposed, so both halves rise together.
        self.fence.fetch_max(fence, Ordering::Relaxed);
        self.fence_ceiling.fetch_max(fence, Ordering::Relaxed);
        let _ = self.store.persist_fence(self.fence_ceiling.load(Ordering::Relaxed));
        for chunk in chunks {
            self.apply_replicated_batch(chunk)?;
        }
        Ok(self.pipe.sequence())
    }

    /// Applies one sealed record batch from the replication stream:
    /// journal it locally first (write-ahead, preserving the
    /// primary's sequence numbers), then replay it through the same
    /// idempotent [`SingletonIssuer::apply_record`] path restart
    /// recovery uses. Records at or below the replica's high sequence
    /// are skipped — re-delivery after a reconnect is a no-op — and a
    /// gap above it refuses the whole batch, forcing a baseline
    /// resync.
    ///
    /// Returns the replica's high journal sequence after the batch.
    ///
    /// # Errors
    ///
    /// Returns [`SinclaveError::ReplicationInvalid`] on a damaged
    /// batch or a sequence gap (counted in
    /// [`CasStats::replication_frames_rejected`] for damage);
    /// propagates append failures.
    // invariant: journal-before-ack
    pub fn apply_replicated_batch(&self, payload: &[u8]) -> Result<u64, SinclaveError> {
        let batch = decode_batch(payload);
        if batch.damaged.is_some() {
            self.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
            return Err(SinclaveError::ReplicationInvalid { context: "damaged record batch" });
        }
        let mut last = self.pipe.sequence();
        let mut fresh = Vec::new();
        for sequenced in &batch.records {
            if sequenced.seq <= last {
                continue;
            }
            if sequenced.seq != last + 1 {
                return Err(SinclaveError::ReplicationInvalid {
                    context: "replication sequence gap",
                });
            }
            last = sequenced.seq;
            fresh.push(*sequenced);
        }
        if fresh.is_empty() {
            return Ok(last);
        }
        // Write-ahead: durable before visible, same as the primary's
        // commit path. A crash between the append and the in-memory
        // replay below loses nothing — restart replays the journal.
        if self.journal_mode() != JournalMode::Disabled {
            self.store.append_journal(&encode_batch(&fresh))?;
        }
        for sequenced in &fresh {
            match sequenced.record {
                JournalRecord::Checkpoint { generation } => {
                    self.checkpoint.observe_generation(generation);
                }
                JournalRecord::Fence { fence } => {
                    self.fence.fetch_max(fence, Ordering::Relaxed);
                    self.fence_ceiling.fetch_max(fence, Ordering::Relaxed);
                }
                _ => {
                    self.issuer.apply_record(&sequenced.record);
                }
            }
            self.stats.replication_records_replayed.fetch_add(1, Ordering::Relaxed);
        }
        self.pipe.resume_after(last);
        Ok(last)
    }

    // ---- Admission-control middleware ------------------------------------

    /// Installs the admission-control stack (see [`crate::middleware`]
    /// for the layers and their fixed order). Replaces the previous
    /// chain whole — limiter buckets, quota counters and breaker state
    /// start fresh. The default chain (every layer off) serves
    /// bit-identically to the unprotected loop.
    pub fn set_middleware(&self, config: MiddlewareConfig) {
        *self.middleware.write() = Arc::new(MiddlewareChain::new(config));
    }

    /// The currently installed middleware chain.
    #[must_use]
    pub fn middleware(&self) -> Arc<MiddlewareChain> {
        self.middleware.read().clone()
    }

    /// Whether dispatching `message` will need a journal append (and
    /// therefore must pass the circuit breaker while journaling is
    /// enabled): grants journal their token delta, singleton
    /// attestations journal the redemption.
    fn needs_journal_append(message: &Message) -> bool {
        matches!(message, Message::GrantRequest { .. } | Message::AttestRequest { .. })
    }

    /// Decodes `message` into a [`Request`] and runs the per-request
    /// admission layers in fixed order (rate limit → quota →
    /// breaker); returns the admitted request to dispatch, or the
    /// refusal reply if any layer refuses. Shared by the reactor and by
    /// forwarded writes on a primary.
    pub(crate) fn admit(
        &self,
        chain: &MiddlewareChain,
        message: Message,
    ) -> Result<Request, Message> {
        let admitting = Instant::now();
        let request = Request::new(message);
        let refusal = match request.identity() {
            Some(identity) => chain.admit(&identity).err(),
            None => None,
        }
        .or_else(|| {
            if Self::needs_journal_append(&request.message)
                && self.journal_mode() != JournalMode::Disabled
            {
                chain.admit_journaling().err()
            } else {
                None
            }
        });
        let Some(refusal) = refusal else {
            trace::record_elapsed("admission", admitting.elapsed(), SpanOutcome::Ok);
            return Ok(request);
        };
        match refusal {
            Refusal::RateLimited => &self.stats.requests_rate_limited,
            Refusal::QuotaExceeded => &self.stats.requests_quota_denied,
            Refusal::LoadShed => &self.stats.requests_shed,
        }
        .fetch_add(1, Ordering::Relaxed);
        // Two spans: the decision span names the refusing layer, the
        // admission span prices the whole chain walk. Refused spans
        // pin the trace (tail sampling keeps every shed request).
        trace::record_elapsed(refusal.trace_stage(), admitting.elapsed(), SpanOutcome::Refused);
        trace::record_elapsed("admission", admitting.elapsed(), SpanOutcome::Refused);
        // The caller counts the Denied reply in `denials` like any
        // other refusal; here only the per-layer counter moves.
        Err(Message::Denied { reason: refusal.reason().into() })
    }

    /// Test instrumentation for the panic-isolation layer: arms a
    /// one-shot panic in the next dispatched `Ping`. Hidden because it
    /// exists only so integration tests can prove a dispatch panic is
    /// contained; it has no production use.
    #[doc(hidden)]
    pub fn set_dispatch_panic_for_tests(&self) {
        self.panic_on_next_ping.store(true, Ordering::Relaxed);
    }

    /// Commits one record through the group-commit pipe (see
    /// [`crate::commit`]); returns once it is durable. In
    /// [`JournalMode::Disabled`] this is a no-op. Every real append
    /// outcome feeds the middleware circuit breaker — this is the
    /// storage boundary the breaker guards, shared by request serving
    /// and by [`CasServer::persist_state`]'s checkpoint.
    /// This is also the **fencing boundary**: a server whose fence is
    /// outranked (a failover promoted a replica past it) refuses every
    /// commit here, so a deposed primary that kept serving through a
    /// partition cannot make a write durable — and therefore cannot
    /// ack it.
    // invariant: journal-before-ack
    pub(crate) fn commit_record(&self, record: JournalRecord) -> Result<(), SinclaveError> {
        if self.is_fenced() {
            self.stats.writes_fenced.fetch_add(1, Ordering::Relaxed);
            return Err(SinclaveError::JournalInvalid { context: "journal fenced" });
        }
        if self.following.load(Ordering::Relaxed) {
            return Err(SinclaveError::JournalInvalid { context: "journal following" });
        }
        let mode = self.journal_mode();
        if mode == JournalMode::Disabled {
            return Ok(());
        }
        let hub = self.replication.read().clone();
        let result = self.pipe.commit(
            mode == JournalMode::GroupCommit,
            record,
            &self.stats,
            |payload, last_seq| {
                let flushing = Instant::now();
                self.store.append_journal(payload)?;
                // One sample per sealed batch (the group-commit flush
                // the paper's durability trade-off is priced in), not
                // per record that rode along. The span lands on the
                // leader's trace only — the requests that rode along
                // paid the wait, not the flush.
                self.latency.journal_flush.record(flushing.elapsed());
                trace::record_elapsed("journal_flush", flushing.elapsed(), SpanOutcome::Ok);
                // Publish exactly the sealed batch that landed on
                // disk. Flushes are serialized by the pipe, so
                // subscribers observe batches in sequence order.
                if let Some(hub) = &hub {
                    hub.publish(payload, last_seq);
                    self.stats.replication_batches_streamed.fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            },
        );
        self.middleware.read().record_commit(result.is_ok());
        result
    }

    /// Redeems a token durably: the in-memory exactly-once transition
    /// first, then the journal append — the reply (and therefore the
    /// ack the caller builds from it) must not exist before the record
    /// does. On append failure the token stays consumed in memory and
    /// the call errors: the service fails closed rather than acking an
    /// event a crash could forget.
    ///
    /// # Errors
    ///
    /// * [`SinclaveError::TokenNotRedeemable`] — unknown, reused, or
    ///   measurement-mismatched token.
    /// * [`SinclaveError::JournalInvalid`] — the durable append
    ///   failed; the redemption must not be acked.
    // invariant: journal-before-ack
    pub fn redeem_token(
        &self,
        token: &AttestationToken,
        attested_mrenclave: &Measurement,
    ) -> Result<Measurement, SinclaveError> {
        // Fencing is checked *before* the in-memory transition: a
        // deposed primary must not even consume the token locally,
        // because the promoted replica owns the authoritative table
        // now and may legitimately honor it.
        if self.is_fenced() {
            self.stats.writes_fenced.fetch_add(1, Ordering::Relaxed);
            return Err(SinclaveError::JournalInvalid { context: "journal fenced" });
        }
        let common = self.issuer.redeem(token, attested_mrenclave)?;
        self.commit_record(SingletonIssuer::redemption_record(token))?;
        let redeemed = self.stats.tokens_redeemed.fetch_add(1, Ordering::Relaxed) + 1;
        self.checkpoint.note_event(redeemed);
        Ok(common)
    }

    /// Default compute-pool width for the reactor: one worker per
    /// core, capped at 8 (CAS is crypto-bound; more workers than cores
    /// only adds scheduling noise).
    #[must_use]
    pub fn default_workers() -> usize {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get).min(8)
    }

    /// The dispatch entry for admitted requests. When the chain
    /// enables panic isolation (see [`crate::middleware`]), a panic
    /// anywhere in request handling is contained
    /// ([`CasStats::panics_isolated`]) and reported as `None`, upon
    /// which the caller closes the connection — one poisoned request
    /// cannot take down a serving thread or an event loop.
    pub(crate) fn dispatch_admitted(
        &self,
        chain: &MiddlewareChain,
        request: Request,
        outstanding_nonce: &mut Option<[u8; 16]>,
        transcript: &Digest,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Option<Message> {
        if !chain.config().isolate_panics {
            return Some(self.dispatch(request, outstanding_nonce, transcript, rng));
        }
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.dispatch(request, outstanding_nonce, transcript, rng)
        }));
        if caught.is_err() {
            self.stats.panics_isolated.fetch_add(1, Ordering::Relaxed);
        }
        caught.ok()
    }

    pub(crate) fn dispatch(
        &self,
        request: Request,
        outstanding_nonce: &mut Option<[u8; 16]>,
        transcript: &Digest,
        rng: &mut (impl RngCore + ?Sized),
    ) -> Message {
        let Request { message, grant_sigstruct } = request;
        // Write routing: a follower linearizes grants through the
        // primary; a fenced (deposed) primary refuses them outright.
        // Reads — ping, challenge, attested retrieval — stay local on
        // every replica.
        if matches!(message, Message::GrantRequest { .. }) {
            if let Some(link) = self.forward_link() {
                self.stats.forwarded_writes.fetch_add(1, Ordering::Relaxed);
                // The trace context travels on the Forward frame with
                // hop + 1; the primary's spans come back on the Reply
                // and are rebased into the forward span's start, so
                // one causal tree spans both nodes.
                let ctx = trace::map_active(|t| t.forward_context());
                let forward_start = trace::now_ns();
                return match link.forward(&message, ctx) {
                    Ok((reply, spans)) => {
                        trace::with_active(|t| {
                            t.record("forward", forward_start, trace::now_ns(), SpanOutcome::Ok);
                            t.absorb_remote(&spans, forward_start);
                        });
                        reply
                    }
                    Err(reason) => {
                        trace::with_active(|t| {
                            t.record("forward", forward_start, trace::now_ns(), SpanOutcome::Error);
                        });
                        Message::Denied { reason }
                    }
                };
            }
            if self.following.load(Ordering::Relaxed) {
                return Message::Denied { reason: "read-only replica".into() };
            }
            if self.is_fenced() {
                self.stats.writes_fenced.fetch_add(1, Ordering::Relaxed);
                return Message::Denied { reason: "server fenced".into() };
            }
        }
        match message {
            Message::Ping => {
                if self.panic_on_next_ping.swap(false, Ordering::Relaxed) {
                    // lint: allow(panic) — test hook, armed only by crash-recovery tests
                    panic!("test-armed dispatch panic");
                }
                Message::Pong
            }
            Message::ChallengeRequest => {
                let mut nonce = [0u8; 16];
                rng.fill_bytes(&mut nonce);
                *outstanding_nonce = Some(nonce);
                Message::Challenge { nonce }
            }
            Message::GrantRequest { base_hash, .. } => {
                self.handle_grant(grant_sigstruct.as_ref(), &base_hash, rng)
            }
            Message::AttestRequest { quote, token, config_id } => {
                self.handle_attest(&quote, Some(token), &config_id, outstanding_nonce, transcript)
            }
            Message::BaselineAttestRequest { quote, config_id } => {
                self.handle_attest(&quote, None, &config_id, outstanding_nonce, transcript)
            }
            // The operability probe: read-only, identity-less, never
            // journaled — answered even fenced or following, because
            // an operator must be able to ask a sick server how sick
            // it is.
            Message::StatusRequest { view } => match crate::status::status_body(self, &view) {
                Some(body) => Message::StatusResponse { body },
                None => Message::Denied { reason: "unknown status view".into() },
            },
            _ => Message::Denied { reason: "unexpected message".into() },
        }
    }

    fn handle_grant(
        &self,
        sigstruct: Option<&SigStruct>,
        base_hash: &[u8],
        rng: &mut (impl RngCore + ?Sized),
    ) -> Message {
        let Some(sigstruct) = sigstruct else {
            return Message::Denied { reason: "sigstruct malformed".into() };
        };
        let Ok(base_hash) = BaseEnclaveHash::decode(base_hash) else {
            return Message::Denied { reason: "base hash malformed".into() };
        };
        // The issuer keeps a prepared midstate *and* a verified-
        // SigStruct cache per registered enclave, so repeat grants for
        // the same binary skip both the instance-page re-hashing and
        // the ~0.4 ms RSA verification — the two cacheable components
        // of Fig. 7c's retrieval cost.
        match self.issuer.issue(rng, sigstruct, &base_hash) {
            Ok(grant) => {
                // Durability ordering: the grant delta is journaled
                // before the reply exists, so a crash after the ack
                // cannot forget a token the starter is about to
                // redeem. (Without the record the token would come
                // back unknown — refused, i.e. failing closed — but
                // the legitimate singleton would be unable to attest.)
                if let Some(record) = self.issuer.grant_record(&grant) {
                    if self.commit_record(record).is_err() {
                        // The denied token never leaves the server;
                        // withdrawing it keeps the table from leaking
                        // a forever-Issued entry per failed append.
                        // (A cadence snapshot racing this window can
                        // still capture the token as Issued; the
                        // withdrawal dirties the epoch so the next
                        // persist corrects it, and until then a crash
                        // restores an unredeemable entry — fails
                        // closed, never honors it.)
                        self.issuer.withdraw_token(&grant.token);
                        return Message::Denied { reason: "journal append failed".into() };
                    }
                }
                let issued = self.stats.grants_issued.fetch_add(1, Ordering::Relaxed) + 1;
                // Every Nth grant makes a checkpoint due; the serving
                // thread runs it after this reply is written.
                self.checkpoint.note_event(issued);
                Message::GrantResponse {
                    token: grant.token,
                    verifier_identity: *grant.verifier_identity.as_bytes(),
                    sigstruct: grant.sigstruct.to_bytes(),
                }
            }
            Err(e) => Message::Denied { reason: e.to_string() },
        }
    }

    fn handle_attest(
        &self,
        quote_bytes: &[u8],
        token: Option<sinclave::AttestationToken>,
        config_id: &str,
        outstanding_nonce: &mut Option<[u8; 16]>,
        transcript: &Digest,
    ) -> Message {
        // Freshness: a challenge must have been requested on this
        // connection, and it is single-use.
        let Some(nonce) = outstanding_nonce.take() else {
            return Message::Denied { reason: "no outstanding challenge".into() };
        };
        let Ok(quote) = Quote::from_bytes(quote_bytes) else {
            return Message::Denied { reason: "quote malformed".into() };
        };
        let body = match quote.verify(&self.attestation_root, &nonce) {
            Ok(body) => body,
            Err(e) => return Message::Denied { reason: e.to_string() },
        };

        // Channel binding: the quote must name *this* channel.
        if &body.report_data.0[..32] != transcript.as_bytes() {
            return Message::Denied { reason: "channel binding mismatch".into() };
        }

        // A shard read-lock plus an `Arc` bump: concurrent retrievals
        // never serialize on the store, and a slow connection cannot
        // hold registration out.
        let Some(policy) = self.store.get_policy(config_id) else {
            return Message::Denied { reason: "unknown config id".into() };
        };

        if let Err(reason) = self.check_identity(body, &policy, token.as_ref()) {
            return Message::Denied { reason };
        }

        self.stats.configs_delivered.fetch_add(1, Ordering::Relaxed);
        Message::ConfigResponse { config: policy.config.to_bytes() }
    }

    /// The redemption half of a follower's split attestation flow:
    /// quote verification, channel binding and policy checks all ran
    /// locally, but the exactly-once token consumption must linearize
    /// through the primary — only one token table in the fleet is
    /// authoritative for writes.
    fn redeem_or_forward(
        &self,
        token: &AttestationToken,
        mrenclave: &Measurement,
    ) -> Result<Measurement, String> {
        if let Some(link) = self.forward_link() {
            self.stats.forwarded_writes.fetch_add(1, Ordering::Relaxed);
            // Redeem forwards ride a compact token frame that carries
            // no trace context; the local forward span still prices
            // the hop, without remote detail.
            let forwarding = Instant::now();
            let result = link.redeem(token, mrenclave);
            let out = if result.is_ok() { SpanOutcome::Ok } else { SpanOutcome::Error };
            trace::record_elapsed("forward", forwarding.elapsed(), out);
            return result;
        }
        if self.following.load(Ordering::Relaxed) {
            return Err("read-only replica".into());
        }
        self.redeem_token(token, mrenclave).map_err(|e| e.to_string())
    }

    fn check_identity(
        &self,
        body: &ReportBody,
        policy: &SessionPolicy,
        token: Option<&sinclave::AttestationToken>,
    ) -> Result<(), String> {
        if body.is_debug() && !policy.allow_debug {
            return Err("debug enclaves not allowed".into());
        }
        if body.mrsigner != policy.expected_mrsigner {
            return Err("unexpected signer identity".into());
        }
        if body.isv_svn < policy.min_isv_svn {
            return Err("security version too old".into());
        }
        match (token, policy.mode) {
            (None, PolicyMode::Singleton) => Err("policy requires singleton attestation".into()),
            (Some(_), PolicyMode::Baseline) => {
                Err("policy does not accept singleton attestation".into())
            }
            (None, PolicyMode::Baseline | PolicyMode::Either) => {
                if body.mrenclave == policy.expected_common {
                    Ok(())
                } else {
                    Err("unexpected enclave measurement".into())
                }
            }
            (Some(token), PolicyMode::Singleton | PolicyMode::Either) => {
                // Exactly-once token redemption, bound to the attested
                // measurement — and made *durable* (journaled) before
                // this arm returns, so the reply acking it cannot
                // outlive a crash the redemption does not. Then bind
                // the singleton to *this* application via its common
                // measurement.
                let common = self.redeem_or_forward(token, &body.mrenclave)?;
                if common == policy.expected_common {
                    Ok(())
                } else {
                    Err("singleton belongs to a different binary".into())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sinclave::layout::EnclaveLayout;
    use sinclave::signer::{sign_enclave, SignerConfig};
    use sinclave::AppConfig;
    use sinclave_crypto::aead::AeadKey;
    use sinclave_net::{Network, SecureChannel};
    use sinclave_sgx::measurement::Measurement;

    fn server(seed: u64) -> (Arc<CasServer>, RsaPrivateKey, RsaPublicKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        let channel_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
        let signer_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
        let attestation_root_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
        let store = CasStore::create(AeadKey::new([7; 32]));
        let cas = CasServer::new(
            channel_key,
            signer_key.clone(),
            attestation_root_key.public_key().clone(),
            store,
        );
        (cas, signer_key, attestation_root_key.public_key().clone())
    }

    #[test]
    fn ping_pong_over_channel() {
        let (cas, _, _) = server(1);
        let network = Network::new();
        let handle = cas.serve_reactor(&network, "cas:443", 1, 10);
        let conn = network.connect("cas:443").unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut chan = SecureChannel::client_connect(conn, &mut rng).unwrap();
        chan.send(&Message::Ping.to_bytes()).unwrap();
        assert_eq!(Message::from_bytes(&chan.recv().unwrap()).unwrap(), Message::Pong);
        drop(chan);
        handle.join().unwrap();
    }

    #[test]
    fn grant_flow_over_network() {
        let (cas, signer_key, _) = server(3);
        let layout = EnclaveLayout::for_program(b"app", 2).unwrap();
        let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).unwrap();

        let network = Network::new();
        let handle = cas.serve_reactor(&network, "cas:443", 1, 30);
        let conn = network.connect("cas:443").unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut chan = SecureChannel::client_connect(conn, &mut rng).unwrap();
        chan.send(
            &Message::GrantRequest {
                common_sigstruct: signed.common_sigstruct.to_bytes(),
                base_hash: signed.base_hash.encode().to_vec(),
            }
            .to_bytes(),
        )
        .unwrap();
        let reply = Message::from_bytes(&chan.recv().unwrap()).unwrap();
        let Message::GrantResponse { verifier_identity, sigstruct, .. } = reply else {
            panic!("expected grant, got {reply:?}");
        };
        assert_eq!(Digest(verifier_identity), cas.identity());
        SigStruct::from_bytes(&sigstruct).unwrap().verify().unwrap();
        assert_eq!(cas.stats.grants_issued.load(Ordering::Relaxed), 1);
        drop(chan);
        handle.join().unwrap();
    }

    #[test]
    fn repeat_grants_share_one_prepared_midstate() {
        let (cas, signer_key, _) = server(11);
        let layout = EnclaveLayout::for_program(b"app", 2).unwrap();
        let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..3 {
            cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
        }
        assert_eq!(cas.issuer().prepared_cache_len(), 1);
    }

    #[test]
    fn grant_denied_for_foreign_signer() {
        let (cas, _, _) = server(5);
        let mut rng = StdRng::seed_from_u64(6);
        let foreign = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
        let layout = EnclaveLayout::for_program(b"app", 2).unwrap();
        let signed = sign_enclave(&layout, &foreign, &SignerConfig::default()).unwrap();

        let network = Network::new();
        let handle = cas.serve_reactor(&network, "cas:443", 1, 60);
        let conn = network.connect("cas:443").unwrap();
        let mut chan = SecureChannel::client_connect(conn, &mut rng).unwrap();
        chan.send(
            &Message::GrantRequest {
                common_sigstruct: signed.common_sigstruct.to_bytes(),
                base_hash: signed.base_hash.encode().to_vec(),
            }
            .to_bytes(),
        )
        .unwrap();
        let reply = Message::from_bytes(&chan.recv().unwrap()).unwrap();
        assert!(matches!(reply, Message::Denied { .. }));
        assert_eq!(cas.stats.denials.load(Ordering::Relaxed), 1);
        drop(chan);
        handle.join().unwrap();
    }

    #[test]
    fn attest_without_challenge_denied() {
        let (cas, _, _) = server(7);
        let network = Network::new();
        let handle = cas.serve_reactor(&network, "cas:443", 1, 70);
        let conn = network.connect("cas:443").unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let mut chan = SecureChannel::client_connect(conn, &mut rng).unwrap();
        chan.send(
            &Message::BaselineAttestRequest { quote: vec![0; 8], config_id: "x".into() }.to_bytes(),
        )
        .unwrap();
        let reply = Message::from_bytes(&chan.recv().unwrap()).unwrap();
        assert!(
            matches!(&reply, Message::Denied { reason } if reason.contains("challenge")),
            "got {reply:?}"
        );
        drop(chan);
        handle.join().unwrap();
    }

    #[test]
    fn tampered_record_counted_and_distinguished_from_close() {
        use sinclave_net::channel::{ClientHello, ServerHello};
        use sinclave_net::wire::{Decode, Encode};

        let (cas, _, _) = server(20);
        let network = Network::new();
        let handle = cas.serve_reactor(&network, "cas:443", 2, 200);

        // Connection 1: handshake by hand (the hello types are public
        // exactly for adversarial tests like this), then inject a
        // garbage record straight on the transport.
        let conn = network.connect("cas:443").unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let mut client_nonce = [0u8; 32];
        rng.fill_bytes(&mut client_nonce);
        conn.send(ClientHello { version: 1, client_nonce }.encode()).unwrap();
        let server_hello = ServerHello::decode_all(&conn.recv().unwrap()).unwrap();
        let server_key = RsaPublicKey::from_bytes(&server_hello.server_key).unwrap();
        let (kem_ct, _shared) = server_key.kem_encapsulate(&mut rng).unwrap();
        conn.send(kem_ct.encode()).unwrap();
        conn.send(vec![0u8; 48]).unwrap(); // fails AEAD authentication
        assert_eq!(conn.recv(), Err(sinclave_net::NetError::Disconnected));

        // Connection 2: a well-behaved client that simply hangs up.
        let conn = network.connect("cas:443").unwrap();
        let mut chan = SecureChannel::client_connect(conn, &mut rng).unwrap();
        chan.send(&Message::Ping.to_bytes()).unwrap();
        assert_eq!(Message::from_bytes(&chan.recv().unwrap()).unwrap(), Message::Pong);
        drop(chan);
        handle.join().unwrap();

        // Exactly the tampered record was counted; the polite
        // disconnect was not.
        assert_eq!(cas.stats.records_rejected.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn pipelined_loop_is_seed_stable_at_one_worker() {
        // Two servers built from the same seed, each serving one
        // connection on one event loop with one compute worker, must
        // answer an identical request sequence with bit-identical reply
        // bytes: dispatch keeps all rng consumption in receive order.
        let run = |addr: &str| {
            let (cas, signer_key, _) = server(30);
            let layout = EnclaveLayout::for_program(b"app", 2).unwrap();
            let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).unwrap();
            let network = Network::new();
            let handle = cas.serve_reactor_with(&network, addr, 1, 123, 1, 1);
            let conn = network.connect(addr).unwrap();
            let mut rng = StdRng::seed_from_u64(31);
            let mut chan = SecureChannel::client_connect(conn, &mut rng).unwrap();
            let mut replies = Vec::new();
            for _ in 0..3 {
                chan.send(
                    &Message::GrantRequest {
                        common_sigstruct: signed.common_sigstruct.to_bytes(),
                        base_hash: signed.base_hash.encode().to_vec(),
                    }
                    .to_bytes(),
                )
                .unwrap();
                replies.push(chan.recv().unwrap());
            }
            chan.send(&Message::ChallengeRequest.to_bytes()).unwrap();
            replies.push(chan.recv().unwrap());
            drop(chan);
            handle.join().unwrap();
            replies
        };
        assert_eq!(run("cas:pipe-a"), run("cas:pipe-b"));
    }

    #[test]
    fn repeat_grants_share_one_verified_sigstruct() {
        let (cas, signer_key, _) = server(32);
        let layout = EnclaveLayout::for_program(b"app", 2).unwrap();
        let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        for _ in 0..3 {
            cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
        }
        assert_eq!(cas.issuer().verified_cache_len(), 1);
    }

    /// Builds a server with a caller-provided store, reusing one key
    /// set across "restarts" (same seed → same keys).
    fn server_with_store(seed: u64, store: CasStore) -> (Arc<CasServer>, RsaPrivateKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        let channel_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
        let signer_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
        let attestation_root_key = RsaPrivateKey::generate(&mut rng, 1024).unwrap();
        let cas = CasServer::new(
            channel_key,
            signer_key.clone(),
            attestation_root_key.public_key().clone(),
            store,
        );
        (cas, signer_key)
    }

    #[test]
    fn restart_restores_verify_cache_and_token_table() {
        let store_key = AeadKey::new([9; 32]);
        let (cas, signer_key) = server_with_store(40, CasStore::create(store_key.clone()));
        let layout = EnclaveLayout::for_program(b"app", 2).unwrap();
        let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let grant =
            cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
        let kept =
            cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
        cas.issuer().redeem(&grant.token, &grant.expected_mrenclave).unwrap();
        cas.persist_state().unwrap();
        assert_eq!(cas.stats.snapshot_persisted.load(Ordering::Relaxed), 1);

        // "Restart": rebuild the server from the same volume bytes.
        let volume = cas.store().volume();
        drop(cas);
        let (restarted, _) = server_with_store(40, CasStore::open(volume, store_key).unwrap());
        assert_eq!(restarted.stats.snapshot_restored.load(Ordering::Relaxed), 1);
        assert_eq!(restarted.stats.snapshot_rejected.load(Ordering::Relaxed), 0);
        // Warm before any grant: the first repeat grant skips the RSA
        // verify.
        assert_eq!(restarted.issuer().verified_cache_len(), 1);
        // Exactly-once across the restart, both directions.
        assert!(restarted.issuer().redeem(&grant.token, &grant.expected_mrenclave).is_err());
        restarted.issuer().redeem(&kept.token, &kept.expected_mrenclave).unwrap();
    }

    #[test]
    fn corrupted_snapshot_degrades_to_cold_start() {
        let store_key = AeadKey::new([10; 32]);
        let (cas, signer_key) = server_with_store(42, CasStore::create(store_key.clone()));
        let layout = EnclaveLayout::for_program(b"app", 2).unwrap();
        let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(43);
        cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
        cas.persist_state().unwrap();

        // Corrupt every ciphertext chunk of the snapshot file (the
        // only file in this volume).
        let mut volume = cas.store().volume();
        for id in volume.raw_chunk_ids() {
            volume.corrupt_chunk(id);
        }
        let (restarted, _) = server_with_store(42, CasStore::open(volume, store_key).unwrap());
        assert_eq!(restarted.stats.snapshot_rejected.load(Ordering::Relaxed), 1);
        assert_eq!(restarted.stats.snapshot_restored.load(Ordering::Relaxed), 0);
        assert_eq!(restarted.issuer().verified_cache_len(), 0, "cold after rejection");
        assert_eq!(restarted.issuer().outstanding_tokens(), 0);
    }

    #[test]
    fn snapshot_cadence_persists_during_serving() {
        let (cas, signer_key, _) = server(44);
        cas.set_snapshot_cadence(2);
        let layout = EnclaveLayout::for_program(b"app", 2).unwrap();
        let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).unwrap();
        let network = Network::new();
        let handle = cas.serve_reactor(&network, "cas:443", 1, 440);
        let conn = network.connect("cas:443").unwrap();
        let mut rng = StdRng::seed_from_u64(45);
        let mut chan = SecureChannel::client_connect(conn, &mut rng).unwrap();
        for _ in 0..5 {
            chan.send(
                &Message::GrantRequest {
                    common_sigstruct: signed.common_sigstruct.to_bytes(),
                    base_hash: signed.base_hash.encode().to_vec(),
                }
                .to_bytes(),
            )
            .unwrap();
            let reply = Message::from_bytes(&chan.recv().unwrap()).unwrap();
            assert!(matches!(reply, Message::GrantResponse { .. }), "got {reply:?}");
        }
        drop(chan);
        handle.join().unwrap();
        // Grants 2 and 4 hit the cadence; grant 5 did not.
        assert_eq!(cas.stats.snapshot_persisted.load(Ordering::Relaxed), 2);
        // The persisted snapshot is the real, restorable article.
        let bytes = cas.store().restore_state().unwrap().unwrap();
        sinclave::snapshot::IssuerSnapshot::from_bytes(&bytes).unwrap();
    }

    #[test]
    fn cadence_checkpoint_runs_after_the_triggering_reply() {
        // The grant that crosses the cadence is answered before its
        // checkpoint runs: under a slow modeled flush the client holds
        // its reply while nothing is persisted yet, and the checkpoint
        // still lands before the serve handle joins.
        let (cas, signer_key, _) = server(48);
        cas.set_snapshot_cadence(1);
        cas.store().set_flush_latency_micros(100_000);
        let layout = EnclaveLayout::for_program(b"app", 2).unwrap();
        let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).unwrap();
        let network = Network::new();
        let handle = cas.serve_reactor(&network, "cas:443", 1, 480);
        let conn = network.connect("cas:443").unwrap();
        let mut chan =
            SecureChannel::client_connect(conn, &mut StdRng::seed_from_u64(481)).unwrap();
        chan.send(
            &Message::GrantRequest {
                common_sigstruct: signed.common_sigstruct.to_bytes(),
                base_hash: signed.base_hash.encode().to_vec(),
            }
            .to_bytes(),
        )
        .unwrap();
        let reply = Message::from_bytes(&chan.recv().unwrap()).unwrap();
        assert!(matches!(reply, Message::GrantResponse { .. }), "got {reply:?}");
        assert_eq!(
            cas.stats.snapshot_persisted.load(Ordering::Relaxed),
            0,
            "the grant reply waited for its checkpoint"
        );
        drop(chan);
        handle.join().unwrap();
        assert_eq!(cas.stats.snapshot_persisted.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn default_snapshot_cadence_bounds_the_journal() {
        // A server left at its defaults serves well over two cadences
        // of grant + redeem pairs on one channel. The journal must be
        // checkpointed and truncated as it goes, so the volume stays
        // under a fixed size; and a crash-restart from the volume must
        // still return every acked token state.
        const PAIRS: u64 = 2 * DEFAULT_SNAPSHOT_CADENCE + 60;
        const OUTSTANDING: u64 = 20;
        const MAX_VOLUME_BYTES: usize = 96 << 10;
        let store_key = AeadKey::new([13; 32]);
        let (cas, signer_key) = server_with_store(47, CasStore::create(store_key.clone()));
        let layout = EnclaveLayout::for_program(b"bounded", 2).unwrap();
        let signed = sign_enclave(&layout, &signer_key, &SignerConfig::default()).unwrap();
        let request = Message::GrantRequest {
            common_sigstruct: signed.common_sigstruct.to_bytes(),
            base_hash: signed.base_hash.encode().to_vec(),
        }
        .to_bytes();
        let network = Network::new();
        let handle = cas.serve_reactor(&network, "cas:443", 1, 470);
        let mut chan = SecureChannel::client_connect(
            network.connect("cas:443").unwrap(),
            &mut StdRng::seed_from_u64(471),
        )
        .unwrap();
        let (mut redeemed, mut outstanding) = (Vec::new(), Vec::new());
        let (mut max_bytes, mut max_epochs) = (0, 0);
        for i in 0..PAIRS {
            chan.send(&request).unwrap();
            let Message::GrantResponse { token, sigstruct, .. } =
                Message::from_bytes(&chan.recv().unwrap()).unwrap()
            else {
                panic!("grant {i} denied");
            };
            let mrenclave = SigStruct::from_bytes(&sigstruct).unwrap().body().enclave_hash;
            if i < PAIRS - OUTSTANDING {
                cas.redeem_token(&token, &mrenclave).unwrap();
                redeemed.push((token, mrenclave));
            } else {
                outstanding.push((token, mrenclave));
            }
            if i % 16 == 15 {
                max_bytes = max_bytes.max(cas.store().volume().size_on_disk());
                max_epochs = max_epochs.max(cas.store().journal_epoch_count().unwrap());
            }
        }
        drop(chan);
        handle.join().unwrap();
        assert!(cas.stats.snapshot_persisted.load(Ordering::Relaxed) >= 4);
        assert!(max_bytes < MAX_VOLUME_BYTES, "volume grew to {max_bytes} bytes");
        assert!(max_epochs <= 2, "{max_epochs} journal epochs on the volume");

        let image = cas.store().volume().to_disk_image();
        let volume = sinclave_fs::Volume::from_disk_image(&image).unwrap();
        let (restarted, _) = server_with_store(47, CasStore::open(volume, store_key).unwrap());
        assert_eq!(restarted.issuer().outstanding_tokens(), OUTSTANDING as usize);
        for (token, mrenclave) in &redeemed {
            assert!(restarted.redeem_token(token, mrenclave).is_err(), "acked redemption replayed");
        }
        for (token, mrenclave) in &outstanding {
            restarted.redeem_token(token, mrenclave).expect("acked grant lost");
            assert!(restarted.redeem_token(token, mrenclave).is_err());
        }
    }

    #[test]
    fn policy_crud_via_server() {
        let (cas, _, _) = server(9);
        let policy = SessionPolicy {
            config_id: "svc".into(),
            expected_common: Measurement(Digest([1; 32])),
            expected_mrsigner: Digest([2; 32]),
            min_isv_svn: 0,
            allow_debug: false,
            mode: PolicyMode::Either,
            config: AppConfig::default(),
        };
        cas.add_policy(policy).unwrap();
        assert_eq!(cas.store.list_policies().unwrap(), vec!["svc".to_owned()]);
        assert_eq!(cas.store.get_policy("svc").unwrap().config_id, "svc");
    }
}
