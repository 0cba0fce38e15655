//! The CAS serving path: one readiness-driven reactor behind every
//! listener — clients ([`CasServer::serve_reactor`]), fleet peers
//! ([`crate::replica::serve_replication`]) and status probes
//! ([`crate::status::serve_status`]). A connection must not cost a
//! thread, since thousands of mostly-idle attesters hold sessions open:
//!
//! * a few **event loops** (the thread a `serve_*` call spawns runs
//!   loop 0) each own a [`Poller`] and multiplex their share of the
//!   connections through the bus's readiness API;
//! * each connection is a **state machine** whose first phase its
//!   listener fixes: a client runs `Handshake → Idle ⇄ Busy`; a fleet
//!   peer runs `Handshake → Hello`, and the hello's role picks
//!   `Forward ⇄ Busy` (forwarded writes) or `Subscriber` (baseline,
//!   then the journal stream, which the hub wakes through the
//!   connection's own readiness handle); a status probe is `Probe`, no
//!   handshake, each view rendered on the loop;
//! * handshakes, framing and admission run on the loop; CPU-heavy work
//!   — SigStruct verification, grant signing, sealing, group-commit
//!   waits, forwarded writes — goes to a **compute pool** whose
//!   completion re-enqueues the connection. At most one request per
//!   connection is in flight, so dispatch order is receive order and a
//!   peer's bytes depend only on the seed and its own requests (pinned
//!   by `tests/serving_golden.rs` and `tests/fleet_golden.rs`);
//! * the loop's **timer wheel** holds every connection deadline: the
//!   middleware chain's handshake/idle deadlines for clients (with
//!   both off, the default, a silent client is held until it hangs up
//!   or [`CasServer::shutdown`] runs), [`RECV_TIMEOUT`] of silence for
//!   any other peer, and a heartbeat for a subscriber stream quiet for
//!   `replica::HEARTBEAT_INTERVAL` (20 ms). A slow-loris peer costs
//!   one table entry, never a thread;
//! * a **due checkpoint** (see [`CasServer::set_snapshot_cadence`]) runs
//!   on the compute worker that writes the next reply, after the reply
//!   is written; never on an event loop.
//!
//! Rate-limit and quota refusals are sealed and sent inline from the
//! idle session, so a refused request costs a table lookup, not a
//! compute slot. Panic isolation wraps dispatch on the compute
//! workers; the circuit breaker is consulted pre-dispatch and fed at
//! the commit boundary.

use crate::middleware::MiddlewareChain;
use crate::replica::{self, Stream, HEARTBEAT_INTERVAL};
use crate::server::{CasServer, Request, ServeGuard};
use crate::trace::{self, SpanOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave::protocol::Message;
use sinclave::replication::ReplicaRole;
use sinclave_crypto::sha256::Digest;
use sinclave_net::bus::RECV_TIMEOUT;
use sinclave_net::{
    ChannelReceiver, ChannelSender, Connection, Listener, NetError, Network, Poller, Readiness,
    ServerHandshake,
};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a reactor's listener serves: it fixes the first phase of every
/// connection the listener accepts, and the reactor's thread counts.
pub(crate) enum Listen {
    /// CAS clients, on `loops` event loops and `workers` compute workers.
    Clients { loops: usize, workers: usize },
    /// Fleet peers, on one loop and one compute worker, which the
    /// forwarded writes of every follower share.
    Replication,
    /// Plaintext status probes: one loop, nothing offloaded.
    Status,
}

/// An established session: everything request handling needs, checked
/// out *whole* to a compute worker while a request is in flight (the
/// `Busy` phase) and returned on completion. Keeping the RNG inside
/// keeps its consumption in the connection's request order.
struct Session {
    sender: ChannelSender,
    receiver: ChannelReceiver,
    transcript: Digest,
    outstanding_nonce: Option<[u8; 16]>,
    rng: StdRng,
}

/// Per-connection state machine phase.
enum Phase {
    /// Driving the secure-channel handshake; the RNG lives here until
    /// the session exists.
    Handshake { machine: ServerHandshake, rng: StdRng },
    /// A client session with no request in flight.
    Idle(Box<Session>),
    /// A fleet peer's session, waiting for its hello.
    Hello(Box<Session>),
    /// A forward session with no frame in flight.
    Forward(Box<Session>),
    /// One client request or forwarded frame is in flight on the
    /// compute pool (which holds the session); further readiness events
    /// are deferred until the completion re-enqueues the connection.
    Busy,
    /// A subscriber stream.
    Subscriber(Box<Stream>),
    /// A status probe.
    Probe,
}

struct ConnState {
    conn: Arc<Connection>,
    phase: Phase,
    /// The readiness handle watching `conn`: it tells how long an event
    /// sat queued ([`Readiness::since_signal`], the traced `queue` leg),
    /// and a subscriber hands it to the replication hub.
    ready: Arc<Readiness>,
    /// When the last peer flight was received (or the connection
    /// accepted; for a subscriber, when the last frame was written);
    /// the base for the phase's deadline.
    last_activity: Instant,
}

/// Cross-thread messages into an event loop, paired with a control
/// [`Readiness`] signal so a parked loop wakes to process them.
enum LoopMsg {
    /// Loop 0 routed a freshly accepted connection here.
    NewConn { slot: u64, conn: Connection },
    /// A compute worker finished the work in flight for connection
    /// `token`. `resume` is the phase to go back to, or `None` when the
    /// connection must close (transport failure or contained panic).
    Completed { token: u64, resume: Option<Phase> },
}

/// A unit of offloaded work: what to do, plus the session it belongs
/// to.
struct Job {
    loop_id: usize,
    token: u64,
    session: Box<Session>,
    work: Work,
}

enum Work {
    /// An admitted client request.
    Request {
        request: Box<Request>,
        /// When its frame was read: the start of the `request` latency.
        received: Instant,
        /// Its trace (`None` when tracing is dark), installed for
        /// dispatch and finished after the reply is sent.
        trace: Option<Box<trace::ActiveTrace>>,
    },
    /// One raw frame of a forward session.
    Forward(Vec<u8>),
}

/// Control token: the loop's inbox has messages.
const TOKEN_CONTROL: u64 = 0;
/// Loop 0 only: the listener has queued connections.
const TOKEN_LISTENER: u64 = 1;
/// First connection token; connection `i` in a loop's table is
/// `TOKEN_CONN0 + i`.
const TOKEN_CONN0: u64 = 2;

impl CasServer {
    /// Default event-loop count: 2 — one would serialize handshakes
    /// behind timers, many would waste wakeups; the loops only shuffle
    /// bytes and run admission, the compute pool does the real work.
    #[must_use]
    pub fn default_event_loops() -> usize {
        2
    }

    /// Serves `connections` connections on `addr` from a background
    /// reactor with [`CasServer::default_event_loops`] event loops and
    /// [`CasServer::default_workers`] compute workers (see the module
    /// docs for the model).
    #[must_use]
    pub fn serve_reactor(
        self: &Arc<Self>,
        network: &Network,
        addr: &str,
        connections: usize,
        seed: u64,
    ) -> JoinHandle<()> {
        self.serve_reactor_with(
            network,
            addr,
            connections,
            seed,
            Self::default_event_loops(),
            Self::default_workers(),
        )
    }

    /// [`CasServer::serve_reactor`] with explicit event-loop and
    /// compute-worker counts. `1` loop and `1` compute worker is the
    /// fully serialized configuration: the paper's sequential CAS
    /// instance (the Fig. 7c baseline) and the configuration the
    /// golden-transcript test pins byte for byte.
    ///
    /// Connection slot `i` (accept order) is seeded
    /// `seed.wrapping_add(i)` and handled by loop `i % loops`. The
    /// returned handle joins once all `connections` slots have been
    /// served (or accepting timed out after [`RECV_TIMEOUT`] without a
    /// dial) and every accepted connection has closed.
    #[must_use]
    pub fn serve_reactor_with(
        self: &Arc<Self>,
        network: &Network,
        addr: &str,
        connections: usize,
        seed: u64,
        loops: usize,
        compute_workers: usize,
    ) -> JoinHandle<()> {
        let loops = loops.clamp(1, connections.max(1));
        let listen = Listen::Clients { loops, workers: compute_workers.max(1) };
        spawn_reactor(self, network, addr, listen, connections, seed)
    }
}

/// Everything one event loop needs; built on the loop's own thread
/// except the shared parts.
struct EventLoop<'a> {
    id: usize,
    server: &'a CasServer,
    listen: &'a Listen,
    chain: Arc<MiddlewareChain>,
    poller: Poller,
    jobs: crossbeam::channel::Sender<Job>,
    /// Connection table; the token of entry `i` is `TOKEN_CONN0 + i`.
    /// Closed entries become `None` and their index joins `free`, so
    /// the table is as long as the most connections open at once, not
    /// one entry per connection ever served (each loop iteration scans
    /// it for deadlines).
    conns: Vec<Option<ConnState>>,
    /// Indices of closed entries, reused by the next registrations. A
    /// connection only closes with no request in flight, so no
    /// completion can arrive for a reused token; a stale readiness
    /// event just drains the new connection, which is harmless.
    free: Vec<usize>,
    live: usize,
    /// Loop 0 only: the accept side.
    listener: Option<Listener>,
    accepted: u64,
    last_accept: Instant,
    /// Shared flag: all `connections` slots are accepted (or accepting
    /// timed out); loops may exit once drained.
    accepting_done: Arc<AtomicBool>,
    /// Every loop's control readiness, for loop 0 to broadcast the
    /// accepting-done wakeup.
    all_controls: Vec<Arc<Readiness>>,
    /// Every loop's inbox, indexed by loop id: this loop's own, and
    /// loop 0's routes to the others.
    all_inboxes: Vec<Arc<parking_lot::Mutex<VecDeque<LoopMsg>>>>,
    connections: usize,
    seed: u64,
}

/// Serves `connections` connections of kind `listen` on `addr` from a
/// background thread that runs loop 0 of the reactor; the handle joins
/// once every slot is served (or accepting timed out after
/// [`RECV_TIMEOUT`] without a dial) and every connection has closed.
pub(crate) fn spawn_reactor(
    server: &Arc<CasServer>,
    network: &Network,
    addr: &str,
    listen: Listen,
    connections: usize,
    seed: u64,
) -> JoinHandle<()> {
    let listener = network.listen(addr);
    let guard = ServeGuard::register(server);
    let server = server.clone();
    std::thread::spawn(move || {
        let _serving = guard;
        run_reactor(&server, listener, &listen, connections, seed);
    })
}

fn run_reactor(
    server: &CasServer,
    listener: Listener,
    listen: &Listen,
    connections: usize,
    seed: u64,
) {
    let (loops, compute_workers) = match listen {
        Listen::Clients { loops, workers } => (*loops, *workers),
        Listen::Replication => (1, 1),
        Listen::Status => (1, 0),
    };
    let chain = server.middleware();
    let pollers: Vec<Poller> = (0..loops).map(|_| Poller::new()).collect();
    let controls: Vec<Arc<Readiness>> =
        pollers.iter().map(|p| p.readiness(TOKEN_CONTROL)).collect();
    let inboxes: Vec<Arc<parking_lot::Mutex<VecDeque<LoopMsg>>>> =
        (0..loops).map(|_| Arc::new(parking_lot::Mutex::new(VecDeque::new()))).collect();
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
    let accepting_done = Arc::new(AtomicBool::new(false));
    // A parked loop can wait out up to 60 s between timer events;
    // registering the control handles lets shutdown() wake every loop
    // the moment the drain begins.
    for control in &controls {
        server.register_drain_waker(control);
    }

    std::thread::scope(|scope| {
        let job_rx = &job_rx;
        for _ in 0..compute_workers {
            let chain = chain.clone();
            let inboxes = inboxes.clone();
            let controls = controls.clone();
            scope.spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let (loop_id, token) = (job.loop_id, job.token);
                    let resume = run_job(server, &chain, job);
                    inboxes[loop_id].lock().push_back(LoopMsg::Completed { token, resume });
                    controls[loop_id].signal();
                }
            });
        }

        let mut listener = Some(listener);
        let mut event_loops: Vec<EventLoop<'_>> = pollers
            .into_iter()
            .enumerate()
            .map(|(id, poller)| EventLoop {
                id,
                server,
                listen,
                chain: chain.clone(),
                poller,
                jobs: job_tx.clone(),
                conns: Vec::new(),
                free: Vec::new(),
                live: 0,
                listener: if id == 0 { listener.take() } else { None },
                accepted: 0,
                last_accept: Instant::now(),
                accepting_done: accepting_done.clone(),
                all_controls: controls.clone(),
                all_inboxes: inboxes.clone(),
                connections,
                seed,
            })
            .collect();
        // The loops hold the only live job senders now: the compute
        // pool drains and exits once every loop has finished.
        drop(job_tx);
        for mut event_loop in event_loops.split_off(1) {
            scope.spawn(move || event_loop.run());
        }
        if let Some(mut loop_zero) = event_loops.pop() {
            loop_zero.run();
        }
    });
}

/// Runs one offloaded job on a compute worker and returns the phase to
/// re-enqueue its connection in, or `None` when it must close.
fn run_job(server: &CasServer, chain: &MiddlewareChain, job: Job) -> Option<Phase> {
    let mut session = job.session;
    match job.work {
        Work::Request { request, received, trace } => {
            serve_request(server, chain, *request, received, trace, &mut session)
                .then(|| Phase::Idle(session))
        }
        Work::Forward(raw) => {
            let reply = replica::forward_reply(server, &raw, &session.transcript, &mut session.rng);
            reply_then_checkpoint(server, || session.sender.send(&reply.to_bytes()).is_ok())
                .then(|| Phase::Forward(session))
        }
    }
}

/// Serves one admitted client request: dispatch (under panic isolation
/// when configured), then the sealed reply. Returns whether the reply
/// was written.
fn serve_request(
    server: &CasServer,
    chain: &MiddlewareChain,
    request: Request,
    received: Instant,
    active: Option<Box<trace::ActiveTrace>>,
    session: &mut Session,
) -> bool {
    if let Some(active) = active {
        trace::install(active);
    }
    let Some(reply) = server.dispatch_admitted(
        chain,
        request,
        &mut session.outstanding_nonce,
        &session.transcript,
        &mut session.rng,
    ) else {
        // Contained dispatch panic: the connection closes; pin the
        // orphaned trace as errored so the flight recorder keeps it.
        if let Some(mut orphan) = trace::take() {
            orphan.mark_errored();
            server.tracer().finish(orphan);
        }
        return false;
    };
    if matches!(reply, Message::Denied { .. }) {
        server.stats.denials.fetch_add(1, Ordering::Relaxed);
    }
    reply_then_checkpoint(server, || send_reply(server, session, &reply, Some(received)))
}

/// Seals and sends a client reply and finishes the request's trace,
/// errored when the send failed (the peer went away mid-request; the
/// connection closes). A dispatched reply (`received` is when its
/// request was read) also records its sealing cost and the full
/// received→written span. The trace context is echoed only when the
/// request carried one: untraced clients see the exact bytes of the
/// untraced build.
fn send_reply(
    server: &CasServer,
    session: &mut Session,
    reply: &Message,
    received: Option<Instant>,
) -> bool {
    let active = trace::take();
    let echo = active.as_ref().filter(|t| t.inherited()).map(|t| t.context());
    let sealing = Instant::now();
    let sent = session.sender.send(&reply.to_bytes_traced(echo.as_ref())).is_ok();
    let dispatched = received.filter(|_| sent);
    if let Some(received) = dispatched {
        server.latency().seal.record(sealing.elapsed());
        server.latency().request.record(received.elapsed());
    }
    if let Some(mut active) = active {
        if dispatched.is_some() {
            active.record_elapsed("seal", sealing.elapsed(), SpanOutcome::Ok);
        } else if !sent {
            active.mark_errored();
        }
        server.tracer().finish(active);
    }
    sent
}

/// Writes a reply with `send` around the due checkpoint, for client
/// requests and forwarded frames alike. The checkpoint is claimed
/// before the reply leaves, so an event the peer causes after reading
/// it marks a fresh checkpoint instead of folding into this one, and
/// run after it is written, so it delays this connection's next
/// request, not this reply, and never an event loop.
fn reply_then_checkpoint(server: &CasServer, send: impl FnOnce() -> bool) -> bool {
    let checkpoint = server.checkpoint.claim_due();
    let sent = send();
    if checkpoint {
        let _ = server.checkpoint.run(server);
    }
    sent
}

impl EventLoop<'_> {
    fn run(&mut self) {
        if let Some(listener) = &self.listener {
            listener.watch(&self.poller.readiness(TOKEN_LISTENER));
        }
        loop {
            self.drain_inbox();
            // After the inbox drain, so a routed NewConn is registered
            // and then shed.
            if self.server.is_draining() {
                self.begin_drain();
            }
            if self.id == 0 {
                self.drain_accepts();
            }
            self.enforce_deadlines();
            if self.done() {
                return;
            }
            let timeout = self.next_wait();
            for token in self.poller.wait(timeout) {
                match token {
                    TOKEN_CONTROL => {}  // inbox drained at loop top
                    TOKEN_LISTENER => {} // accepts drained at loop top
                    token => self.drain_conn(token),
                }
            }
        }
    }

    /// All slots served and every local connection closed.
    fn done(&self) -> bool {
        self.accepting_done.load(Ordering::Acquire)
            && self.live == 0
            && self.all_inboxes[self.id].lock().is_empty()
    }

    /// When the connection's phase deadline passes, if it has one: then
    /// a subscriber stream gets a heartbeat and any other peer hangs up.
    fn deadline(&self, state: &ConnState) -> Option<Instant> {
        let config = self.chain.config();
        let timeout = match (&state.phase, self.listen) {
            (Phase::Handshake { .. }, Listen::Clients { .. }) => config.handshake_timeout,
            (Phase::Idle(_), _) => config.idle_timeout,
            (Phase::Subscriber(_), _) => Some(HEARTBEAT_INTERVAL),
            // In flight on the compute pool: its completion is the
            // wakeup, not a timer.
            (Phase::Busy, _) => None,
            _ => Some(RECV_TIMEOUT),
        };
        timeout.map(|t| state.last_activity + t)
    }

    /// How long to park: bounded by the accept deadline (loop 0, while
    /// accepting) and the nearest connection deadline. An unbounded
    /// park would miss timer-only events; everything else arrives as a
    /// readiness signal.
    fn next_wait(&self) -> Duration {
        let mut wait = Duration::from_secs(60);
        if self.id == 0 && !self.accepting_done.load(Ordering::Relaxed) {
            let deadline = self.last_accept + RECV_TIMEOUT;
            wait = wait.min(deadline.saturating_duration_since(Instant::now()));
        }
        let now = Instant::now();
        for deadline in self.conns.iter().flatten().filter_map(|state| self.deadline(state)) {
            wait = wait.min(deadline.saturating_duration_since(now));
        }
        wait.max(Duration::from_millis(1))
    }

    fn drain_inbox(&mut self) {
        loop {
            // Take one message at a time so the lock is never held
            // across connection handling.
            let msg = self.all_inboxes[self.id].lock().pop_front();
            match msg {
                None => return,
                Some(LoopMsg::NewConn { slot, conn }) => self.register(slot, conn),
                Some(LoopMsg::Completed { token, resume }) => self.complete(token, resume),
            }
        }
    }

    /// Loop 0: accept every queued connection (up to the budget) and
    /// route each to its slot's loop.
    fn drain_accepts(&mut self) {
        if self.listener.is_none() {
            return;
        }
        while self.accepted < self.connections as u64 {
            let queued = self.listener.as_ref().map(Listener::try_accept);
            let Some(Ok(conn)) = queued else { break };
            let slot = self.accepted;
            self.accepted += 1;
            self.last_accept = Instant::now();
            let target = (slot as usize) % self.all_inboxes.len();
            if target == self.id {
                self.register(slot, conn);
            } else {
                self.all_inboxes[target].lock().push_back(LoopMsg::NewConn { slot, conn });
                self.all_controls[target].signal();
            }
        }
        let timed_out =
            self.accepted < self.connections as u64 && self.last_accept.elapsed() >= RECV_TIMEOUT;
        if self.accepted == self.connections as u64 || timed_out {
            // Budget served (or dials dried up).
            self.stop_accepting();
        }
    }

    /// Closes the listener and tells every loop it may exit once its
    /// connections drain.
    fn stop_accepting(&mut self) {
        self.accepting_done.store(true, Ordering::Release);
        self.listener = None;
        for control in &self.all_controls {
            control.signal();
        }
    }

    /// Adds a connection to the table in its listener's first phase —
    /// a handshake with its slot-derived RNG, or a probe — and watches
    /// it on this loop's poller (the registration's catch-up signal
    /// covers anything the peer already sent).
    fn register(&mut self, slot: u64, conn: Connection) {
        let conn = Arc::new(conn);
        let index = claim_slot(&mut self.conns, &mut self.free);
        let ready = self.poller.readiness(TOKEN_CONN0 + index as u64);
        conn.watch(&ready);
        let phase = match self.listen {
            Listen::Status => Phase::Probe,
            Listen::Clients { .. } | Listen::Replication => Phase::Handshake {
                machine: ServerHandshake::new(),
                rng: StdRng::seed_from_u64(self.seed.wrapping_add(slot)),
            },
        };
        self.conns[index] = Some(ConnState { conn, phase, ready, last_activity: Instant::now() });
        self.live += 1;
    }

    /// A compute completion: resume the connection's phase (Busy → Idle
    /// or Forward) and immediately drain anything that arrived while
    /// busy, or close. While draining, the work this completion answers
    /// was the connection's last — close instead of resuming.
    fn complete(&mut self, token: u64, resume: Option<Phase>) {
        let draining = self.server.is_draining();
        match (resume, conn_mut(&mut self.conns, token)) {
            (Some(phase), Some(state)) if !draining => {
                state.phase = phase;
                state.last_activity = Instant::now();
                self.drain_conn(token);
            }
            _ => self.close(token),
        }
    }

    fn close(&mut self, token: u64) {
        let Some(index) = conn_index(token) else { return };
        if self.conns.get_mut(index).and_then(Option::take).is_some() {
            self.live -= 1;
            self.free.push(index);
        }
    }

    /// Drives one connection's state machine as far as its queued
    /// input allows: handshake flights, hellos, probes and subscriber
    /// frames inline, then at most one decoded request offloaded to
    /// the compute pool.
    fn drain_conn(&mut self, token: u64) {
        loop {
            // The connection borrow must end before `close` below, so
            // each step reports its outcome instead of acting on self.
            let Some(state) = conn_mut(&mut self.conns, token) else { return };
            let step = step_conn(state, self.server, self.listen, &self.chain, |session, work| {
                let job = Job { loop_id: self.id, token, session, work };
                if self.jobs.send(job).is_err() {
                    Step::Close
                } else {
                    Step::Drained
                }
            });
            match step {
                Step::Continue => {}
                Step::Drained => return,
                Step::Close => return self.close(token),
            }
        }
    }

    /// The timer wheel: act on every connection whose phase deadline
    /// has passed (see `deadline`). A connection only counts as overdue
    /// if it is past its deadline *and* draining it yields nothing: the
    /// peer may have sent bytes this loop hasn't read yet (e.g. while
    /// the thread was decapsulating another connection's handshake),
    /// and queued input is activity.
    fn enforce_deadlines(&mut self) {
        for index in 0..self.conns.len() {
            let token = TOKEN_CONN0 + index as u64;
            let overdue = |this: &Self| {
                let deadline = this.conns[index].as_ref().and_then(|state| this.deadline(state));
                deadline.is_some_and(|deadline| deadline <= Instant::now())
            };
            if !overdue(self) {
                continue;
            }
            self.drain_conn(token);
            if !overdue(self) {
                continue;
            }
            let step = match self.conns[index].as_mut() {
                Some(ConnState { phase: Phase::Subscriber(stream), last_activity, .. }) => {
                    *last_activity = Instant::now();
                    stream.heartbeat(self.server)
                }
                _ => {
                    self.server.stats.connections_timed_out.fetch_add(1, Ordering::Relaxed);
                    Step::Close
                }
            };
            if matches!(step, Step::Close) {
                self.close(token);
            }
        }
    }

    /// Shutdown (every loop, once [`CasServer::shutdown`] set the
    /// drain flag): loop 0 stops accepting, and every connection
    /// without a request in flight closes now. Busy connections finish
    /// on the compute pool and close in `complete`, so in-flight
    /// replies are never dropped.
    fn begin_drain(&mut self) {
        if self.listener.is_some() {
            self.stop_accepting();
        }
        for index in 0..self.conns.len() {
            if self.conns[index].as_ref().is_some_and(|state| !matches!(state.phase, Phase::Busy)) {
                self.close(TOKEN_CONN0 + index as u64);
            }
        }
    }
}

/// Outcome of one connection state-machine step.
pub(crate) enum Step {
    /// Progress was made; step again.
    Continue,
    /// The connection's input is drained (or a request was offloaded);
    /// stop stepping until the next readiness event or completion.
    Drained,
    /// The connection must close.
    Close,
}

/// The index of an empty table entry: a freed one if any, else a new
/// one at the end.
fn claim_slot<T>(table: &mut Vec<Option<T>>, free: &mut Vec<usize>) -> usize {
    free.pop().unwrap_or_else(|| {
        table.push(None);
        table.len() - 1
    })
}

fn conn_index(token: u64) -> Option<usize> {
    usize::try_from(token.checked_sub(TOKEN_CONN0)?).ok()
}

fn conn_mut(conns: &mut [Option<ConnState>], token: u64) -> Option<&mut ConnState> {
    conns.get_mut(conn_index(token)?)?.as_mut()
}

/// One step of a connection's state machine. Handshake flights,
/// hellos, probes and subscriber frames run inline; an admitted request
/// or a forwarded frame checks the session out through `offload`.
fn step_conn(
    state: &mut ConnState,
    server: &CasServer,
    listen: &Listen,
    chain: &MiddlewareChain,
    offload: impl FnOnce(Box<Session>, Work) -> Step,
) -> Step {
    let session = match &mut state.phase {
        // Work is in flight; its completion resumes the drain.
        Phase::Busy => return Step::Drained,
        Phase::Handshake { .. } | Phase::Probe => return step_raw(state, server, listen),
        Phase::Subscriber(stream) => {
            let step = stream.write_next(server);
            if matches!(step, Step::Continue) {
                state.last_activity = Instant::now();
            }
            return step;
        }
        Phase::Idle(session) | Phase::Hello(session) | Phase::Forward(session) => session,
    };
    let raw = match session.receiver.try_recv() {
        Ok(raw) => raw,
        Err(NetError::Timeout) => return Step::Drained,
        Err(NetError::RecordCorrupt) => {
            server.stats.records_rejected.fetch_add(1, Ordering::Relaxed);
            return Step::Close;
        }
        Err(_) => return Step::Close,
    };
    state.last_activity = Instant::now();
    match std::mem::replace(&mut state.phase, Phase::Busy) {
        // Admitted: check the session out to the compute pool and stop
        // draining — at most one request in flight per connection
        // keeps dispatch order equal to receive order. Refusals and
        // malformed messages are answered inline from the idle session:
        // they must not cost a compute slot.
        Phase::Idle(mut session) => match admit(state, server, chain, &raw) {
            Ok(work) => offload(session, work),
            Err(refusal) => {
                // A refused trace still completes (and tail sampling
                // pins it).
                server.stats.denials.fetch_add(1, Ordering::Relaxed);
                if !send_reply(server, &mut session, &refusal, None) {
                    return Step::Close;
                }
                state.phase = Phase::Idle(session);
                Step::Continue
            }
        },
        Phase::Forward(session) => offload(session, Work::Forward(raw)),
        Phase::Hello(mut session) => {
            let opened = match replica::hello(server, &raw) {
                Err(refusal) => {
                    let _ = session.sender.send(&refusal.to_bytes());
                    return Step::Close;
                }
                Ok(ReplicaRole::Forward) => session
                    .sender
                    .send(&replica::heartbeat(server).to_bytes())
                    .map(|()| Phase::Forward(session)),
                Ok(ReplicaRole::Subscribe) => {
                    Stream::open(server, session.sender, session.receiver, &state.ready)
                        .map(|stream| Phase::Subscriber(Box::new(stream)))
                }
            };
            let Ok(phase) = opened else { return Step::Close };
            state.phase = phase;
            Step::Continue
        }
        _ => Step::Close,
    }
}

/// Decodes and admits one client request read at `last_activity`:
/// compute work when admitted, else the refusal (or malformed-message
/// denial) to answer inline.
fn admit(
    state: &ConnState,
    server: &CasServer,
    chain: &MiddlewareChain,
    raw: &[u8],
) -> Result<Work, Message> {
    let queued_for = state.ready.since_signal();
    let Ok((message, inherited)) = Message::from_bytes_traced(raw) else {
        return Err(Message::Denied { reason: "malformed message".into() });
    };
    if let Some(mut started) = server.tracer().begin(inherited) {
        // How long the frame's readiness signal sat before this loop
        // serviced it: the `queue` leg. Coarse (see `since_signal`) but
        // exactly the wait admission control cannot see.
        if let Some(waited) = queued_for {
            started.record_queue(waited);
        }
        trace::install(started);
    }
    let request = server.admit(chain, message)?;
    // `last_activity` was stamped when this raw frame was read — it is
    // the request's receive instant for the end-to-end latency sample.
    let request = Box::new(request);
    Ok(Work::Request { request, received: state.last_activity, trace: trace::take() })
}

/// One raw frame of a connection that has no session: a handshake
/// flight, or a status probe's view name. A completed handshake opens
/// a client session, or a fleet session that waits for its hello.
fn step_raw(state: &mut ConnState, server: &CasServer, listen: &Listen) -> Step {
    let raw = match state.conn.try_recv() {
        Ok(raw) => raw,
        Err(NetError::Timeout) => return Step::Drained,
        Err(_) => return Step::Close,
    };
    state.last_activity = Instant::now();
    let Phase::Handshake { machine, rng } = &mut state.phase else {
        let answered = state.conn.send(crate::status::probe_reply(server, &raw)).is_ok();
        return if answered { Step::Continue } else { Step::Close };
    };
    // Handshake flights stay on the loop, KEM decapsulation included.
    // That is not free: a CRT decapsulation under an RSA-1024 channel
    // key costs ≈0.07 ms on a 2-vCPU x86-64 host with AVX-512 IFMA,
    // both halves on this thread (`ablation/rsa-crt/kem-decapsulate-crt`;
    // ≈0.26 ms on the portable kernel, which offers one half to a
    // helper thread), during which this loop's other connections wait.
    match machine.on_message(&state.conn, &raw, &server.channel_key, rng) {
        Ok(None) => Step::Continue,
        Ok(Some(channel)) => {
            let transcript = channel.transcript();
            let (sender, receiver) = channel.split();
            let Phase::Handshake { rng, .. } = std::mem::replace(&mut state.phase, Phase::Busy)
            else {
                return Step::Close;
            };
            let session =
                Box::new(Session { sender, receiver, transcript, outstanding_nonce: None, rng });
            state.phase = match listen {
                Listen::Replication => Phase::Hello(session),
                Listen::Clients { .. } | Listen::Status => Phase::Idle(session),
            };
            Step::Continue
        }
        Err(_) => Step::Close,
    }
}

#[cfg(test)]
mod tests {
    use crate::policy::{PolicyMode, SessionPolicy};
    use crate::server::CasServer;
    use crate::store::CasStore;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sinclave::protocol::Message;
    use sinclave::AppConfig;
    use sinclave_crypto::aead::AeadKey;
    use sinclave_crypto::rsa::RsaPrivateKey;
    use sinclave_crypto::sha256::Digest;
    use sinclave_net::{Network, SecureChannel};
    use sinclave_sgx::measurement::Measurement;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    fn server(seed: u64) -> (Arc<CasServer>, RsaPrivateKey) {
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
        (cas, signer_key)
    }

    #[test]
    fn closed_slots_are_reused() {
        // Sequential connections, as a client fleet dialing one start
        // after another makes them: the table holds the peak number
        // open at once, not one entry per connection served.
        let (mut table, mut free) = (Vec::<Option<u64>>::new(), Vec::new());
        for conn in 0..1000u64 {
            let index = super::claim_slot(&mut table, &mut free);
            assert!(table[index].is_none());
            table[index] = Some(conn);
            if conn % 2 == 1 {
                // Two open at once, then both close.
                for (i, entry) in table.iter_mut().enumerate() {
                    if entry.take().is_some() {
                        free.push(i);
                    }
                }
            }
        }
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn ping_pong_over_reactor() {
        let (cas, _) = server(1);
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
    fn reactor_serves_many_concurrent_sessions_with_two_loops() {
        let (cas, _) = server(40);
        let network = Network::new();
        let clients = 24;
        let handle = cas.serve_reactor_with(&network, "cas:443", clients, 400, 2, 2);
        std::thread::scope(|scope| {
            for i in 0..clients {
                let network = network.clone();
                scope.spawn(move || {
                    let conn = network.connect("cas:443").unwrap();
                    let mut rng = StdRng::seed_from_u64(500 + i as u64);
                    let mut chan = SecureChannel::client_connect(conn, &mut rng).unwrap();
                    for _ in 0..3 {
                        chan.send(&Message::Ping.to_bytes()).unwrap();
                        assert_eq!(
                            Message::from_bytes(&chan.recv().unwrap()).unwrap(),
                            Message::Pong
                        );
                    }
                });
            }
        });
        handle.join().unwrap();
    }

    #[test]
    fn reactor_policy_attest_denied_reasons_match_pool() {
        // An attestation without a challenge is refused by dispatch
        // with the challenge reason, and counted once.
        let (cas, signer_key) = server(50);
        cas.add_policy(SessionPolicy {
            config_id: "svc".into(),
            expected_common: Measurement(Digest([1; 32])),
            expected_mrsigner: signer_key.public_key().fingerprint(),
            min_isv_svn: 0,
            allow_debug: false,
            mode: PolicyMode::Either,
            config: AppConfig::default(),
        })
        .unwrap();
        let network = Network::new();
        let handle = cas.serve_reactor(&network, "cas:443", 1, 60);
        let conn = network.connect("cas:443").unwrap();
        let mut rng = StdRng::seed_from_u64(61);
        let mut chan = SecureChannel::client_connect(conn, &mut rng).unwrap();
        chan.send(
            &Message::BaselineAttestRequest { quote: vec![0; 8], config_id: "svc".into() }
                .to_bytes(),
        )
        .unwrap();
        let reply = Message::from_bytes(&chan.recv().unwrap()).unwrap();
        assert!(
            matches!(&reply, Message::Denied { reason } if reason.contains("challenge")),
            "got {reply:?}"
        );
        drop(chan);
        handle.join().unwrap();
        assert_eq!(cas.stats.denials.load(Ordering::Relaxed), 1);
    }
}
