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
//! second consistency mechanism: it is crash recovery, streamed. Every
//! commit publishes to the server's one [`ReplicationHub`], where the
//! subscribers of all its replication listeners register. On the
//! primary, each subscriber stream and forward session is a connection
//! kind on a reactor ([`crate::reactor`]); the follower's pump, which
//! dials out, is its own thread, parked on a [`Poller`] until a frame,
//! a stop or the drain wakes it.
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
//! split-brained. Each server's `Role` is `Primary` (writes commit
//! here) or `Follower` (writes forward over its link, or are refused
//! without one); `CasServer::route_write` decides every write from the
//! role and the fence pair. The transitions:
//!
//! * `follow` ([`follow`]) makes a server a follower before its pump
//!   starts; `unfollow`, at the pump's exit, leaves a follower without
//!   a link committing locally again.
//! * `observe_fence`: every server carries its own fence (the highest
//!   it has committed under) and a persisted *ceiling* (the highest it
//!   has observed). `ceiling > own` means deposed: every write — grant,
//!   redemption, checkpoint, forwarded write — is refused. A
//!   replication `Hello` carries the sender's ceiling; a primary that
//!   hears a higher one answers [`ReplicationFrame::Fenced`] and is
//!   deposed from that moment, even across a restart from its
//!   pre-failover disk image.
//! * `promote` ([`CasServer::promote`](crate::CasServer::promote))
//!   makes a follower the primary one fence past everything it has
//!   seen, committed as a durable
//!   [`JournalRecord::Fence`](sinclave::journal_record::JournalRecord)
//!   record that continues the primary's sequence numbering.
//!
//! The fence stops a deposed primary only from the moment it observes
//! the new fence, and an ack needs no copy on any follower. So the
//! deployment must keep a precondition: **promote a follower only once
//! it has replayed every record the old primary acked, and the old
//! primary has observed the new fence or is down.** Under it an acked
//! redemption cannot replay fleet-wide: the ack implies a durable
//! journal record on the then-primary, the promoted follower replayed
//! that record and refuses the token as spent, and the old primary,
//! deposed or down, commits nothing after the promotion. The fault
//! harness in `tests/replication.rs` sweeps these windows with the
//! precondition kept: the follower catches up, then is promoted, and
//! the fence reaches the old primary before its next write.
//!
//! Nothing in the code enforces the precondition, and `promote` needs
//! no contact with the old primary. A partition that spans the
//! promotion leaves the old primary acking writes under its old fence
//! until a `Hello` carrying the new ceiling reaches it, while the
//! promoted follower acks under the new one; a redemption acked
//! before the promotion but not yet streamed is unknown to the new
//! primary. Either way one token can be acked as redeemed twice, and
//! one singleton can start twice. Acks and promotions that each need a
//! majority of the fleet would close that window; the fleet has
//! neither yet.
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

use crate::reactor::{spawn_reactor, Listen, Step};
use crate::server::{CasServer, Route};
use crate::trace;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave::protocol::{Message, TraceContext};
use sinclave::replication::{ReplicaRole, ReplicationFrame, WireSpan};
use sinclave::snapshot::IssuerSnapshot;
use sinclave::AttestationToken;
use sinclave_crypto::sha256::Digest;
use sinclave_net::{
    Backoff, ChannelReceiver, ChannelSender, NetError, Network, Poller, Readiness, SecureChannel,
};
use sinclave_sgx::measurement::Measurement;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a subscriber stream may go without a frame before the
/// reactor's timer wheel sends a liveness heartbeat.
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(20);

/// The follower pump's poller tokens: its stream's connection, and
/// the wake handle that [`FollowerHandle::stop`] and the drain signal.
const STREAM: u64 = 0;
const WAKE: u64 = 1;

/// How long a follower waits for the primary while it dials: the
/// server hello of both handshakes (the pump's and a forward link's),
/// and every reply on a forward link. A dead or silent primary costs a
/// forwarded write, or a pump's [`FollowerHandle::stop`], one bounded
/// wait per attempt, not a hang.
const LINK_TIMEOUT: Duration = Duration::from_millis(500);

/// One registered replication subscriber: a queue of sealed batch
/// payloads in commit order, each with the last journal sequence it
/// carries, fed by [`ReplicationHub::publish`]. Its [`Stream`] owns it;
/// the hub holds it weakly, so a closed stream unsubscribes.
struct Subscriber {
    queue: parking_lot::Mutex<VecDeque<(u64, Vec<u8>)>>,
    /// The subscriber connection's readiness handle on its event loop:
    /// a publish signals it, and the loop writes what is queued.
    ready: Arc<Readiness>,
    /// Lag gauges for the `trace` status view: the highest journal
    /// sequence the stream has written (its baseline's, then each
    /// batch's own last), and when (trace-clock ns) it last wrote a
    /// frame.
    sent_seq: AtomicU64,
    last_frame_ns: AtomicU64,
}

/// Fans committed journal batches out to the live subscriber streams
/// of all of a server's replication listeners; the server owns it for
/// life. The publish side is called from inside the commit pipe's
/// serialized flush, so every subscriber observes batches in sequence
/// order with no gaps between registration and its bootstrap capture.
#[derive(Default)]
pub struct ReplicationHub {
    subscribers: parking_lot::Mutex<Vec<Weak<Subscriber>>>,
}

impl ReplicationHub {
    fn register(&self, ready: Arc<Readiness>) -> Arc<Subscriber> {
        let subscriber = Arc::new(Subscriber {
            queue: parking_lot::Mutex::new(VecDeque::new()),
            ready,
            sent_seq: AtomicU64::new(0),
            last_frame_ns: AtomicU64::new(0),
        });
        self.subscribers.lock().push(Arc::downgrade(&subscriber));
        subscriber
    }

    /// Per-subscriber lag gauges for the `trace` status view:
    /// `(sent_seq, queued_batches, stream_age_ns)` for every live
    /// stream, in registration order.
    pub(crate) fn peer_gauges(&self) -> Vec<(u64, u64, u64)> {
        let now = trace::now_ns();
        let subscribers = self.subscribers.lock();
        subscribers
            .iter()
            .filter_map(Weak::upgrade)
            .map(|s| {
                let queued = s.queue.lock().len() as u64;
                let last = s.last_frame_ns.load(Ordering::Relaxed);
                let age = if last == 0 { 0 } else { now.saturating_sub(last) };
                (s.sent_seq.load(Ordering::Relaxed), queued, age)
            })
            .collect()
    }

    /// Queues one sealed batch payload, whose last record has journal
    /// sequence `last_seq`, for every live subscriber and wakes its
    /// stream; subscribers whose stream closed are dropped. Returns
    /// whether a live subscriber took the batch.
    pub(crate) fn publish(&self, payload: &[u8], last_seq: u64) -> bool {
        let mut subscribers = self.subscribers.lock();
        subscribers.retain(|subscriber| {
            let Some(subscriber) = subscriber.upgrade() else { return false };
            subscriber.queue.lock().push_back((last_seq, payload.to_vec()));
            subscriber.ready.signal();
            true
        });
        !subscribers.is_empty()
    }
}

/// Where this server's writes go (`CasServer::route_write`). Being
/// deposed is not a role: it is the fence pair's `ceiling > own`.
#[derive(Clone)]
pub(crate) enum Role {
    /// Writes commit here, and their sealed batches go to the hub.
    Primary,
    /// Writes forward over the link, or are refused without one;
    /// `subscribed` while a pump is attached.
    Follower { link: Option<Arc<ForwardLink>>, subscribed: bool },
}

impl Role {
    /// A follower left with neither a link nor a pump is a primary.
    fn follower(link: Option<Arc<ForwardLink>>, subscribed: bool) -> Role {
        match link {
            None if !subscribed => Role::Primary,
            link => Role::Follower { link, subscribed },
        }
    }

    /// `follow`: a pump attaches, keeping any link.
    pub(crate) fn follow(&mut self) {
        let link = match self {
            Role::Follower { link, .. } => link.take(),
            Role::Primary => None,
        };
        *self = Role::follower(link, true);
    }

    /// `unfollow`: the pump exited.
    pub(crate) fn unfollow(&mut self) {
        if let Role::Follower { link, .. } = self {
            *self = Role::follower(link.take(), false);
        }
    }

    /// A primary given a link forwards its writes from then on.
    pub(crate) fn set_link(&mut self, link: Option<Arc<ForwardLink>>) {
        if let Role::Follower { subscribed, .. } = self {
            *self = Role::follower(link, *subscribed);
        } else if link.is_some() {
            *self = Role::follower(link, false);
        }
    }
}

/// Serves `sessions` replication sessions on `addr` — subscriber
/// streams and forward (write-linearization) sessions, dispatched by
/// the opening `Hello`'s role — as connection kinds on a reactor with
/// one event loop and one compute worker (see [`crate::reactor`]).
/// Subscribers register on the server's one [`ReplicationHub`]. The
/// returned handle joins once all session slots have been served (or
/// accepting timed out after [`sinclave_net::bus::RECV_TIMEOUT`]
/// without a dial) and every session has closed.
#[must_use]
pub fn serve_replication(
    server: &Arc<CasServer>,
    network: &Network,
    addr: &str,
    sessions: usize,
    seed: u64,
) -> JoinHandle<()> {
    spawn_reactor(server, network, addr, Listen::Replication, sessions, seed)
}

/// Reads a replication session's opening frame: the role it asks for,
/// or the frame to answer before hanging up. The hello's fence is an
/// observation either way: a peer that has seen a fence above ours
/// deposes us on the spot — before any baseline capture or forwarded
/// write could happen under stale authority.
pub(crate) fn hello(server: &CasServer, raw: &[u8]) -> Result<ReplicaRole, ReplicationFrame> {
    let Ok(ReplicationFrame::Hello { role, last_seq: _, fence }) =
        ReplicationFrame::from_bytes(raw)
    else {
        server.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
        let reason = "replication session must open with hello".to_owned();
        return Err(ReplicationFrame::Denied { reason });
    };
    if server.observe_fence(fence) {
        return Err(ReplicationFrame::Fenced { fence: server.fence_ceiling() });
    }
    Ok(role)
}

/// A liveness frame: this server's fence and high journal sequence.
/// Also the ack of a forward session's hello.
pub(crate) fn heartbeat(server: &CasServer) -> ReplicationFrame {
    ReplicationFrame::Heartbeat { fence: server.fence(), high_seq: server.journal_sequence() }
}

/// A subscriber stream on the reactor: the channel's two halves plus
/// the registration on the server's hub, which ends when the stream
/// is dropped.
pub(crate) struct Stream {
    sender: ChannelSender,
    receiver: ChannelReceiver,
    subscriber: Arc<Subscriber>,
}

impl Stream {
    /// Subscribes the connection watched by `ready` and writes its
    /// baseline. Registers FIRST, then captures: a commit landing
    /// between the two shows up in both the baseline and the queue, and
    /// the follower's idempotent sequence filter drops the duplicate.
    /// The other order could lose the batch entirely. This runs on the
    /// replication reactor's event loop, so the capture's volume reads
    /// delay that loop's other sessions.
    ///
    /// # Errors
    ///
    /// The baseline could not be written; the connection closes.
    pub(crate) fn open(
        server: &CasServer,
        sender: ChannelSender,
        receiver: ChannelReceiver,
        ready: &Arc<Readiness>,
    ) -> Result<Stream, NetError> {
        let subscriber = server.hub.register(ready.clone());
        let snapshot = server.store().restore_state().ok().flatten().unwrap_or_default();
        let baseline_seq =
            IssuerSnapshot::from_bytes(&snapshot).map_or(0, |parsed| parsed.journal_sequence);
        let chunks: Vec<Vec<u8>> = server
            .store()
            .export_journal_chunks()
            .map(|recovery| recovery.chunks.into_iter().map(|chunk| chunk.payload).collect())
            .unwrap_or_default();
        let high_seq = server.journal_sequence();
        let baseline = ReplicationFrame::Baseline {
            fence: server.fence(),
            high_seq,
            baseline_seq,
            snapshot,
            chunks,
        };
        let mut stream = Stream { sender, receiver, subscriber };
        stream.sender.send(&baseline.to_bytes())?;
        stream.wrote(high_seq);
        Ok(stream)
    }

    /// Writes the oldest queued batch: `Continue` after a write,
    /// `Drained` with nothing queued, `Close` once the follower hung
    /// up or the stream ended. The follower sends nothing after its
    /// hello, so its input is read only to notice a hang-up.
    pub(crate) fn write_next(&mut self, server: &CasServer) -> Step {
        loop {
            match self.receiver.try_recv() {
                Ok(_) => {}
                Err(NetError::Timeout) => break,
                Err(_) => return Step::Close,
            }
        }
        let Some((seq, batch)) = self.subscriber.queue.lock().pop_front() else {
            return Step::Drained;
        };
        self.write(server, &ReplicationFrame::Records { fence: server.fence(), batch }, seq)
    }

    /// Writes a liveness heartbeat: the reactor's timer wheel calls
    /// this once the stream has been quiet for [`HEARTBEAT_INTERVAL`].
    pub(crate) fn heartbeat(&mut self, server: &CasServer) -> Step {
        self.write(server, &heartbeat(server), 0)
    }

    /// The fence is checked before every frame: a primary deposed
    /// mid-stream tells its subscriber before going quiet, so the
    /// follower reconnects (and finds the new primary) instead of
    /// trusting a stale stream.
    fn write(&mut self, server: &CasServer, frame: &ReplicationFrame, seq: u64) -> Step {
        if server.is_fenced() {
            let fenced = ReplicationFrame::Fenced { fence: server.fence_ceiling() };
            let _ = self.sender.send(&fenced.to_bytes());
            return Step::Close;
        }
        if self.sender.send(&frame.to_bytes()).is_err() {
            return Step::Close;
        }
        self.wrote(seq);
        Step::Continue
    }

    /// Records a frame written to the follower that covered journal
    /// sequences up to `seq` (`0`: it carried none).
    fn wrote(&self, seq: u64) {
        self.subscriber.sent_seq.fetch_max(seq, Ordering::Relaxed);
        self.subscriber.last_frame_ns.store(trace::now_ns(), Ordering::Relaxed);
    }
}

/// Answers one frame of a forward session on the primary; the reactor
/// runs this on its compute pool. Forwarded grants go through the full
/// admission + dispatch path (so rate limits, quotas, panic isolation
/// and the breaker all hold at the primary no matter which replica a
/// client talked to); redemptions go straight to the durable
/// exactly-once path.
pub(crate) fn forward_reply(
    server: &CasServer,
    raw: &[u8],
    transcript: &Digest,
    rng: &mut StdRng,
) -> ReplicationFrame {
    let Ok(frame) = ReplicationFrame::from_bytes(raw) else {
        server.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
        return ReplicationFrame::Denied { reason: "malformed replication frame".into() };
    };
    // Only a forwarded grant or redemption is a write, routed like any
    // other; a deposed server answers `Fenced` to every frame.
    let route = match frame {
        ReplicationFrame::Forward { .. } | ReplicationFrame::Redeem { .. } => server.route_write(),
        _ => Route::Refuse { reason: "unexpected replication frame", fenced: server.is_fenced() },
    };
    if let Route::Refuse { reason, fenced } = route {
        return if fenced {
            ReplicationFrame::Fenced { fence: server.fence_ceiling() }
        } else {
            ReplicationFrame::Denied { reason: reason.into() }
        };
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

/// A running follower pump, parked until a frame, a stop or the drain
/// wakes it. Dropping the handle leaks the thread; call
/// [`FollowerHandle::stop`] to end it (the deployment does this
/// before promoting the replica).
pub struct FollowerHandle {
    stop: Arc<AtomicBool>,
    wake: Arc<Readiness>,
    handle: JoinHandle<()>,
}

impl FollowerHandle {
    /// Stops and wakes the pump, and joins it. After this returns the
    /// replica applies nothing further from the old stream — the
    /// precondition for [`CasServer::promote`](crate::CasServer::promote).
    /// The pump's exit makes the `unfollow` transition. The wake cannot
    /// end a handshake in progress, so against a primary that accepted
    /// the dial and stays silent this waits out `LINK_TIMEOUT` (500 ms).
    pub fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.wake.signal();
        let _ = self.handle.join();
    }
}

/// Starts the follower pump: connect to the primary at `addr`,
/// subscribe, adopt the baseline, and replay live batches — forever,
/// across stream losses, with `backoff` bounding the reconnect rate.
/// While the stream is down the replica keeps serving reads from its
/// last replayed state with the middleware degraded flag raised
/// (degraded-but-serving, not down).
///
/// Makes the `follow` transition before it returns, so no write
/// commits locally while the pump starts. The pump parks until its
/// stream is readable, and each backoff lasts its full delay; it exits
/// once [`FollowerHandle::stop`] or the server's drain wakes it.
#[must_use]
pub fn follow(
    server: Arc<CasServer>,
    network: Network,
    addr: String,
    seed: u64,
    mut backoff: Backoff,
) -> FollowerHandle {
    let stop = Arc::new(AtomicBool::new(false));
    let poller = Poller::new();
    let wake = poller.readiness(WAKE);
    server.change_role(Role::follow);
    let (pump_stop, pump_wake) = (stop.clone(), wake.clone());
    let handle = std::thread::spawn(move || {
        server.register_drain_waker(&pump_wake);
        let mut rng = StdRng::seed_from_u64(seed);
        let stopped = || pump_stop.load(Ordering::Relaxed) || server.is_draining();
        while !stopped() {
            pump_once(&server, &network, &addr, &poller, &mut rng, &stopped, &mut backoff);
            if !stopped() {
                server.middleware().set_degraded(true);
                server.stats.replication_reconnects.fetch_add(1, Ordering::Relaxed);
                // Only the wake handle ends a backoff early; a late token
                // of the dropped stream starts the wait over.
                let delay = backoff.next_delay();
                while !stopped() && poller.wait(delay).contains(&STREAM) {}
            }
        }
        server.change_role(Role::unfollow);
    });
    FollowerHandle { stop, wake, handle }
}

/// One connect-subscribe-replay attempt; returns once stopped or once
/// the stream is lost (refused, partitioned, damaged or fenced).
fn pump_once(
    server: &Arc<CasServer>,
    network: &Network,
    addr: &str,
    poller: &Poller,
    rng: &mut StdRng,
    stopped: &impl Fn() -> bool,
    backoff: &mut Backoff,
) {
    let Ok(conn) = network.connect(addr) else { return };
    // The watch moves into the channel with the connection. The wake
    // handle cannot end the handshake's blocking wait for the server
    // hello, so bound it; afterwards the pump only polls the stream.
    conn.watch(&poller.readiness(STREAM));
    conn.set_recv_timeout(Some(LINK_TIMEOUT));
    let Ok(chan) = SecureChannel::client_connect(conn, rng) else { return };
    // Fleet binding: the whole fleet shares one channel key, so the
    // primary's fingerprint is our own. A peer presenting any other
    // key is a hijacker terminating the channel with their own key —
    // drop before sending the hello, let alone adopting a baseline.
    if chan.server_key_fingerprint() != server.channel_key.public_key().fingerprint() {
        server.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
        return;
    }
    let (mut sender, mut receiver) = chan.split();
    let hello = ReplicationFrame::Hello {
        role: ReplicaRole::Subscribe,
        last_seq: server.journal_sequence(),
        fence: server.fence_ceiling(),
    };
    if sender.send(&hello.to_bytes()).is_err() {
        return;
    }
    // The stream is a baseline, then records and heartbeats.
    let mut adopted = false;
    while !stopped() {
        let raw = match receiver.try_recv() {
            Ok(raw) => raw,
            // Drained: park until the stream is readable or woken.
            Err(NetError::Timeout) => {
                let _ = poller.wait(Duration::MAX);
                continue;
            }
            Err(_) => return,
        };
        match ReplicationFrame::from_bytes(&raw) {
            Ok(ReplicationFrame::Baseline { fence, baseline_seq, snapshot, chunks, .. })
                if !adopted =>
            {
                if server.adopt_baseline(fence, baseline_seq, &snapshot, &chunks).is_err() {
                    return;
                }
                // Caught up: the stream is healthy again.
                adopted = true;
                server.middleware().set_degraded(false);
                backoff.reset();
            }
            // A batch stamped below our fence comes from a stream that
            // outlived its authority; drop the session.
            Ok(ReplicationFrame::Records { fence, batch }) if adopted => {
                if fence < server.fence() || server.apply_replicated_batch(&batch).is_err() {
                    return;
                }
                server.note_stream_progress(None);
            }
            Ok(ReplicationFrame::Heartbeat { high_seq, .. }) if adopted => {
                server.note_stream_progress(Some(high_seq));
            }
            Ok(ReplicationFrame::Fenced { fence }) => {
                server.observe_fence(fence);
                return;
            }
            Ok(_) => return,
            Err(_) => {
                server.stats.replication_frames_rejected.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
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
        // Bounds the handshake's wait for the server hello too; the
        // channel keeps the connection's timeout.
        conn.set_recv_timeout(Some(LINK_TIMEOUT));
        let mut chan = SecureChannel::client_connect(conn, rng).ok()?;
        if chan.server_key_fingerprint() != *pin {
            return None; // hijacker terminating the link with their own key
        }
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

#[cfg(test)]
mod tests {
    use super::{follow, forward_reply, serve_replication, ForwardLink, Stream};
    use crate::reactor::Step;
    use crate::server::CasServer;
    use crate::store::CasStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sinclave::journal_record::{decode_batch, JournalRecord};
    use sinclave::protocol::Message;
    use sinclave::replication::{ReplicaRole, ReplicationFrame};
    use sinclave_crypto::aead::AeadKey;
    use sinclave_crypto::rsa::RsaPrivateKey;
    use sinclave_crypto::sha256::Digest;
    use sinclave_net::{Backoff, Connection, Network, Poller, SecureChannel};
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// A server on a fresh store, and its channel key.
    fn server(seed: u64) -> (Arc<CasServer>, RsaPrivateKey) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut key = || RsaPrivateKey::generate(&mut rng, 1024).unwrap();
        let (channel_key, signer_key, root) = (key(), key(), key());
        let server = CasServer::new(
            channel_key.clone(),
            signer_key,
            root.public_key().clone(),
            CasStore::create(AeadKey::new([7; 32])),
        );
        (server, channel_key)
    }

    #[test]
    fn a_redemption_forwarded_to_a_deposed_primary_counts_one_fenced_write() {
        let (server, _) = server(0x1aa);
        assert!(server.observe_fence(1));
        let mut rng = StdRng::seed_from_u64(1);
        let mut reply = |frame: &[u8]| forward_reply(&server, frame, &Digest([0; 32]), &mut rng);
        let redeem = ReplicationFrame::Redeem { token: [3; 32], mrenclave: [4; 32] }.to_bytes();
        assert!(matches!(reply(&redeem), ReplicationFrame::Fenced { fence: 1 }));
        assert_eq!(server.stats.snapshot().writes_fenced, 1);
        // Neither a malformed nor an unexpected frame is a write.
        reply(&[0xff, 0x00]);
        reply(&ReplicationFrame::Heartbeat { fence: 0, high_seq: 0 }.to_bytes());
        assert_eq!(server.stats.snapshot().writes_fenced, 1);
    }

    #[test]
    fn follow_enters_the_follower_role_before_it_returns() {
        let (server, _) = server(0x1ab);
        let backoff = Backoff::new(Duration::from_millis(1), Duration::from_millis(5));
        let pump = follow(server.clone(), Network::new(), "nobody:7443".into(), 1, backoff);
        assert!(server.is_following(), "a write in this window would commit locally");
        pump.stop();
        assert!(!server.is_following(), "the pump unfollows when it exits");
    }

    /// Polls `cond` every millisecond; fails after `limit`.
    fn within(limit: Duration, what: &str, cond: impl Fn() -> bool) {
        let started = Instant::now();
        while !cond() {
            assert!(started.elapsed() < limit, "{what} took over {limit:?}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A pump aimed at an address nobody serves, parked in a 30 s
    /// backoff after its first failed dial.
    fn parked_pump(server: &Arc<CasServer>) -> super::FollowerHandle {
        let backoff = Backoff::new(Duration::from_secs(30), Duration::from_secs(30));
        let pump = follow(server.clone(), Network::new(), "nobody:7443".into(), 1, backoff);
        let reconnects = || server.stats.snapshot().replication_reconnects;
        within(Duration::from_secs(5), "the first failed dial", || reconnects() == 1);
        pump
    }

    #[test]
    fn the_drain_or_a_stop_wakes_a_pump_out_of_its_backoff() {
        let (drained, _) = server(0x1ac);
        let pump = parked_pump(&drained);
        drained.shutdown().unwrap();
        within(Duration::from_secs(1), "the drain", || !drained.is_following());
        pump.stop();

        let (stopped, _) = server(0x1ad);
        let pump = parked_pump(&stopped);
        let stopping = Instant::now();
        pump.stop();
        assert!(stopping.elapsed() < Duration::from_secs(1), "stop took {:?}", stopping.elapsed());
    }

    #[test]
    fn a_fixed_backoff_paces_redials_to_a_listener_that_drops_them() {
        let (server, _) = server(0x1ae);
        let network = Network::new();
        let listener = network.listen("dropper:7443");
        // Accepts and drops every dial until none comes for 500 ms.
        let dropper = std::thread::spawn(move || {
            while listener.accept_timeout(Duration::from_millis(500)).is_ok() {}
        });
        let backoff = Backoff::new(Duration::from_millis(100), Duration::from_millis(100));
        let pump = follow(server, network.clone(), "dropper:7443".into(), 1, backoff);
        std::thread::sleep(Duration::from_secs(1));
        let dials = network.adversary_dial_log().get("dropper:7443").copied().unwrap_or(0);
        pump.stop();
        dropper.join().unwrap();
        assert!((1..=12).contains(&dials), "{dials} dials in 1 s under a 100 ms backoff");
    }

    #[test]
    fn stop_ends_a_pump_held_by_a_silent_primary_within_the_link_timeout() {
        let (server, _) = server(0x1b0);
        let network = Network::new();
        let listener = network.listen("mute:7443");
        // Accepts the pump's dial and holds it without a word until the
        // pump has stopped.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let (dialed_tx, dialed_rx) = std::sync::mpsc::channel::<()>();
        let silent = std::thread::spawn(move || {
            let held = listener.accept_timeout(Duration::from_secs(30)).ok();
            let _ = dialed_tx.send(());
            let _ = done_rx.recv_timeout(Duration::from_secs(30));
            held.is_some()
        });
        let backoff = Backoff::new(Duration::from_secs(30), Duration::from_secs(30));
        let pump = follow(server, network, "mute:7443".into(), 1, backoff);
        dialed_rx.recv_timeout(Duration::from_secs(30)).unwrap();
        let stopping = Instant::now();
        pump.stop();
        let elapsed = stopping.elapsed();
        done_tx.send(()).unwrap();
        assert!(silent.join().unwrap(), "the pump dialed");
        assert!(elapsed < Duration::from_secs(1), "stop took {elapsed:?}");
    }

    #[test]
    fn a_silent_primary_holds_a_forwarded_write_for_the_forward_timeout_only() {
        let network = Network::new();
        let listener = network.listen("silent:7443");
        // Accepts both dials and holds them without a word until the
        // forward has returned.
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let silent = std::thread::spawn(move || {
            let held: Vec<Connection> = (0..2)
                .filter_map(|_| listener.accept_timeout(Duration::from_secs(30)).ok())
                .collect();
            let _ = done_rx.recv_timeout(Duration::from_secs(30));
            held.len()
        });
        let link = ForwardLink::new(network, "silent:7443", Digest([0; 32]), 4);
        let request = Message::GrantRequest { common_sigstruct: vec![1], base_hash: vec![2] };
        let started = Instant::now();
        let outcome = link.forward(&request, None);
        let elapsed = started.elapsed();
        done_tx.send(()).unwrap();
        assert_eq!(outcome.err().as_deref(), Some("primary unreachable"));
        assert!(elapsed < Duration::from_millis(1500), "forward took {elapsed:?}");
        assert_eq!(silent.join().unwrap(), 2, "both attempts dialed");
    }

    #[test]
    fn batches_streamed_counts_only_batches_a_live_subscriber_took() {
        let (server, _) = server(0x1af);
        let network = Network::new();
        let listener = serve_replication(&server, &network, "repl:7443", 1, 2);
        let commit =
            |fill| server.commit_record(JournalRecord::TokenRedeemed { token: [fill; 32] });
        let streamed = || server.stats.snapshot().replication_batches_streamed;
        commit(1).unwrap();
        assert_eq!(streamed(), 0, "a listener without a subscriber streams nothing");

        let conn = network.connect("repl:7443").unwrap();
        let mut follower =
            SecureChannel::client_connect(conn, &mut StdRng::seed_from_u64(3)).unwrap();
        let hello = ReplicationFrame::Hello { role: ReplicaRole::Subscribe, last_seq: 0, fence: 0 };
        follower.send(&hello.to_bytes()).unwrap();
        let baseline = ReplicationFrame::from_bytes(&follower.recv().unwrap()).unwrap();
        assert!(matches!(baseline, ReplicationFrame::Baseline { high_seq: 1, .. }));
        for (fill, expected) in [(2, 1), (3, 2)] {
            commit(fill).unwrap();
            assert_eq!(streamed(), expected, "one count per batch a subscriber took");
        }
        drop(follower);
        listener.join().unwrap();
    }

    #[test]
    fn lag_gauge_reports_the_last_written_batch_not_the_journal_head() {
        let (server, channel_key) = server(0x1a9);
        let (client_end, server_end) = Connection::pair();
        let accepting = std::thread::spawn(move || {
            SecureChannel::server_accept(server_end, &channel_key, &mut StdRng::seed_from_u64(1))
        });
        let mut follower =
            SecureChannel::client_connect(client_end, &mut StdRng::seed_from_u64(2)).unwrap();
        let (sender, receiver) = accepting.join().unwrap().unwrap().split();

        let ready = Poller::new().readiness(7);
        let mut stream = Stream::open(&server, sender, receiver, &ready).unwrap();
        for fill in 1..=3 {
            server.commit_record(JournalRecord::TokenRedeemed { token: [fill; 32] }).unwrap();
        }
        assert_eq!(server.journal_sequence(), 3);
        assert!(matches!(stream.write_next(&server), Step::Continue));

        let (sent_seq, queued, _) = server.hub.peer_gauges()[0];
        assert_eq!((sent_seq, queued), (1, 2), "the gauge must trail the queued batches");
        let baseline = ReplicationFrame::from_bytes(&follower.recv().unwrap()).unwrap();
        assert!(matches!(baseline, ReplicationFrame::Baseline { high_seq: 0, .. }));
        let ReplicationFrame::Records { batch, .. } =
            ReplicationFrame::from_bytes(&follower.recv().unwrap()).unwrap()
        else {
            panic!("expected the first batch");
        };
        assert_eq!(decode_batch(&batch).records[0].seq, 1);
    }
}
