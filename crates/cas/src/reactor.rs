//! The CAS serving path: a readiness-driven reactor.
//!
//! At production fan-in thousands of mostly-idle attesters hold
//! sessions open, so a connection must not cost a thread. The reactor
//! serves the protocol from:
//!
//! * a small, connection-count-independent number of **event loops**
//!   each own a [`Poller`] and multiplex their share of all
//!   connections through the bus's readiness API — an idle connection
//!   costs one watch registration, not a thread;
//! * each connection is a **state machine** (`Handshake → Idle ⇄
//!   Busy`): handshake flights and message framing are driven
//!   nonblockingly on the loop, while CPU-heavy request handling —
//!   SigStruct verification, grant signing, reply sealing, journal
//!   group-commit waits — is offloaded to a **compute pool** whose
//!   completion re-enqueues the connection via the loop's inbox;
//! * **at most one request per connection is in flight** at a time:
//!   dispatch order is receive order and the per-connection RNG
//!   advances in that order, so a client's bytes depend only on the
//!   seed and its own requests (pinned by the golden-transcript test,
//!   `tests/serving_golden.rs`);
//! * the loop's **timer wheel** enforces the middleware chain's
//!   handshake/idle deadlines (a slow-loris peer costs one table entry
//!   until its deadline, never a thread). With both deadlines off (the
//!   default chain) a silent peer is held until it hangs up or
//!   [`CasServer::shutdown`] runs;
//! * a **due checkpoint** (see [`CasServer::set_snapshot_cadence`]) runs
//!   on the compute worker that writes the next reply — normally the
//!   one serving the request that made it due — after that reply is
//!   written and before its session goes back to its loop; never on an
//!   event loop.
//!
//! Admission control runs *on the loop*, before a request is allowed
//! to occupy a compute slot: rate-limit and quota refusals are sealed
//! and sent inline from the idle session (a refused request costs the
//! refuser a table lookup, not a compute slot). Panic isolation wraps
//! dispatch on the compute workers; the circuit breaker is consulted
//! pre-dispatch and fed at the commit boundary.

use crate::middleware::{MiddlewareChain, MiddlewareConfig};
use crate::server::{CasServer, Request, ServeGuard};
use crate::trace::{self, SpanOutcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave::protocol::Message;
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
    /// Established, no request in flight; the session is on the loop.
    Idle(Box<Session>),
    /// One request is in flight on the compute pool (which holds the
    /// session); further readiness events are deferred until the
    /// completion re-enqueues the connection.
    Busy,
}

struct ConnState {
    conn: Arc<Connection>,
    phase: Phase,
    /// The readiness handle watching `conn`, kept so the loop can read
    /// how long the event it is servicing sat queued
    /// ([`Readiness::since_signal`] — the traced `queue` leg).
    ready: Arc<Readiness>,
    /// When the last client flight was received (or the connection
    /// accepted); the base for the phase's inactivity deadline.
    last_activity: Instant,
}

/// The inactivity deadline a connection's phase is subject to, if any.
fn phase_timeout(phase: &Phase, config: &MiddlewareConfig) -> Option<Duration> {
    match phase {
        Phase::Handshake { .. } => config.handshake_timeout,
        Phase::Idle(_) => config.idle_timeout,
        // In flight on the compute pool: its completion is the wakeup,
        // not a timer.
        Phase::Busy => None,
    }
}

/// Cross-thread messages into an event loop, paired with a control
/// [`Readiness`] signal so a parked loop wakes to process them.
enum LoopMsg {
    /// Loop 0 routed a freshly accepted connection here.
    NewConn { slot: u64, conn: Connection },
    /// A compute worker finished a request for connection `token`.
    /// `session` is `None` when the connection must close (transport
    /// failure or contained panic).
    Completed { token: u64, session: Option<Box<Session>> },
}

/// A unit of offloaded work: one decoded request plus the session it
/// belongs to.
struct Job {
    loop_id: usize,
    token: u64,
    request: Request,
    session: Box<Session>,
    /// When the request's raw frame was read off the connection — the
    /// start of the end-to-end `request` latency sample the compute
    /// worker records after sending the reply.
    received: Instant,
    /// The admitted request's trace, checked out alongside the session
    /// (`None` when tracing is dark). The compute worker installs it
    /// for dispatch and finishes it after the reply is sent.
    trace: Option<Box<trace::ActiveTrace>>,
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
        let listener = network.listen(addr);
        let server = self.clone();
        let guard = ServeGuard::register(self);
        let loops = loops.clamp(1, connections.max(1));
        let compute_workers = compute_workers.max(1);
        std::thread::spawn(move || {
            let _serving = guard;
            run_reactor(&server, listener, connections, seed, loops, compute_workers);
        })
    }
}

/// Everything one event loop needs; built on the loop's own thread
/// except the shared parts.
struct EventLoop<'a> {
    id: usize,
    server: &'a CasServer,
    chain: Arc<MiddlewareChain>,
    poller: Poller,
    inbox: Arc<parking_lot::Mutex<VecDeque<LoopMsg>>>,
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
    /// Routing: the other loops' inboxes (indexed by loop id).
    all_inboxes: Vec<Arc<parking_lot::Mutex<VecDeque<LoopMsg>>>>,
    connections: usize,
    seed: u64,
    loops: usize,
}

fn run_reactor(
    server: &Arc<CasServer>,
    listener: Listener,
    connections: usize,
    seed: u64,
    loops: usize,
    compute_workers: usize,
) {
    let chain = server.middleware();
    let pollers: Vec<Poller> = (0..loops).map(|_| Poller::new()).collect();
    let controls: Vec<Arc<Readiness>> =
        pollers.iter().map(|p| p.readiness(TOKEN_CONTROL)).collect();
    let inboxes: Vec<Arc<parking_lot::Mutex<VecDeque<LoopMsg>>>> =
        (0..loops).map(|_| Arc::new(parking_lot::Mutex::new(VecDeque::new()))).collect();
    let (job_tx, job_rx) = crossbeam::channel::unbounded::<Job>();
    let job_rx = Arc::new(job_rx);
    let accepting_done = Arc::new(AtomicBool::new(false));
    // A parked loop can wait out up to 60 s between timer events;
    // registering the control handles lets shutdown() wake every loop
    // the moment the drain begins.
    for control in &controls {
        server.register_drain_waker(control);
    }

    std::thread::scope(|scope| {
        for _ in 0..compute_workers {
            let job_rx = job_rx.clone();
            let server = &**server;
            let chain = chain.clone();
            let inboxes = inboxes.clone();
            let controls = controls.clone();
            scope.spawn(move || {
                while let Ok(job) = job_rx.recv() {
                    let completion =
                        run_job(server, &chain, job.request, job.received, job.session, job.trace);
                    inboxes[job.loop_id]
                        .lock()
                        .push_back(LoopMsg::Completed { token: job.token, session: completion });
                    controls[job.loop_id].signal();
                }
            });
        }

        let mut listener = Some(listener);
        let mut pollers = pollers.into_iter();
        for id in 0..loops {
            let mut event_loop = EventLoop {
                id,
                server,
                chain: chain.clone(),
                // lint: allow(panic) — pollers was constructed with exactly `loops` elements
                poller: pollers.next().expect("one poller per loop"),
                inbox: inboxes[id].clone(),
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
                loops,
            };
            scope.spawn(move || event_loop.run());
        }
        // The loops and compute workers hold the only live senders and
        // receivers now; dropping ours lets the compute pool drain and
        // exit once every loop has finished.
        drop(job_tx);
    });
}

/// Runs one offloaded request on a compute worker: admission already
/// passed on the loop; here the request is dispatched (under panic
/// isolation when configured), the reply sealed and sent, and then a
/// checkpoint claimed before the send runs. Returns the session to
/// re-enqueue, or `None` when the connection must close.
fn run_job(
    server: &CasServer,
    chain: &MiddlewareChain,
    request: Request,
    received: Instant,
    mut session: Box<Session>,
    active: Option<Box<trace::ActiveTrace>>,
) -> Option<Box<Session>> {
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
        return None;
    };
    if matches!(reply, Message::Denied { .. }) {
        server.stats.denials.fetch_add(1, Ordering::Relaxed);
    }
    // Claimed before the reply leaves, so an event the client causes
    // after reading it marks a fresh checkpoint instead of folding
    // into this one.
    let checkpoint = server.checkpoint.claim_due();
    let active = trace::take();
    // The trace context is echoed only when the request carried one:
    // untraced clients see the exact bytes of the untraced build.
    let echo = active.as_ref().filter(|t| t.inherited()).map(|t| t.context());
    // A send failure means the peer went away mid-request; close.
    let sealing = Instant::now();
    let sent = session.sender.send(&reply.to_bytes_traced(echo.as_ref())).is_ok();
    if sent {
        // Sealing cost, then the full received→written span.
        server.latency().seal.record(sealing.elapsed());
        server.latency().request.record(received.elapsed());
    }
    if let Some(mut active) = active {
        if sent {
            active.record_elapsed("seal", sealing.elapsed(), SpanOutcome::Ok);
        } else {
            active.mark_errored();
        }
        server.tracer().finish(active);
    }
    // The reply is written: the checkpoint delays this connection's
    // next request, not this reply, and never an event loop.
    if checkpoint {
        let _ = server.checkpoint.run(server);
    }
    sent.then_some(session)
}

impl EventLoop<'_> {
    fn run(&mut self) {
        if let Some(listener) = &self.listener {
            listener.watch(&self.poller.readiness(TOKEN_LISTENER));
        }
        loop {
            self.drain_inbox();
            if self.server.is_draining() {
                // Shutdown: stop accepting and shed every connection
                // without a request in flight; Busy connections close
                // at their completion (see `complete`). Checked after
                // the inbox drain so a routed NewConn is registered,
                // then immediately shed here.
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
            && self.inbox.lock().is_empty()
    }

    /// How long to park: bounded by the accept deadline (loop 0, while
    /// accepting) and the nearest handshake/idle deadline. An
    /// unbounded park would miss timer-only events; everything else
    /// arrives as a readiness signal.
    fn next_wait(&self) -> Duration {
        let mut wait = Duration::from_secs(60);
        if self.id == 0 && !self.accepting_done.load(Ordering::Relaxed) {
            let deadline = self.last_accept + RECV_TIMEOUT;
            wait = wait.min(deadline.saturating_duration_since(Instant::now()));
        }
        let config = self.chain.config();
        let now = Instant::now();
        for state in self.conns.iter().flatten() {
            let deadline = phase_timeout(&state.phase, config).map(|t| state.last_activity + t);
            if let Some(deadline) = deadline {
                wait = wait.min(deadline.saturating_duration_since(now));
            }
        }
        wait.max(Duration::from_millis(1))
    }

    fn drain_inbox(&mut self) {
        loop {
            // Take one message at a time so the lock is never held
            // across connection handling.
            let msg = self.inbox.lock().pop_front();
            match msg {
                None => return,
                Some(LoopMsg::NewConn { slot, conn }) => self.register(slot, conn),
                Some(LoopMsg::Completed { token, session }) => self.complete(token, session),
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
            let target = (slot as usize) % self.loops;
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
            // Budget served (or dials dried up): tell every loop it
            // may exit once its connections drain.
            self.accepting_done.store(true, Ordering::Release);
            self.listener = None;
            for control in &self.all_controls {
                control.signal();
            }
        }
    }

    /// Adds a connection to the table in the `Handshake` phase with
    /// its slot-derived RNG, and watches it on this loop's poller (the
    /// registration's catch-up signal covers anything the client
    /// already sent).
    fn register(&mut self, slot: u64, conn: Connection) {
        let conn = Arc::new(conn);
        let index = claim_slot(&mut self.conns, &mut self.free);
        let ready = self.poller.readiness(TOKEN_CONN0 + index as u64);
        conn.watch(&ready);
        self.conns[index] = Some(ConnState {
            conn,
            phase: Phase::Handshake {
                machine: ServerHandshake::new(),
                rng: StdRng::seed_from_u64(self.seed.wrapping_add(slot)),
            },
            ready,
            last_activity: Instant::now(),
        });
        self.live += 1;
    }

    /// A compute completion: return the session (Busy → Idle) and
    /// immediately drain anything that arrived while busy, or close.
    /// While draining, the in-flight request this completion answers
    /// was the connection's last — close instead of going Idle.
    fn complete(&mut self, token: u64, session: Option<Box<Session>>) {
        match session {
            Some(session) => {
                if self.server.is_draining() {
                    return self.close(token);
                }
                let Some(state) = conn_mut(&mut self.conns, token) else { return };
                state.phase = Phase::Idle(session);
                state.last_activity = Instant::now();
                self.drain_conn(token);
            }
            None => self.close(token),
        }
    }

    fn close(&mut self, token: u64) {
        let Some(index) = token.checked_sub(TOKEN_CONN0).and_then(|i| usize::try_from(i).ok())
        else {
            return;
        };
        if let Some(entry) = self.conns.get_mut(index) {
            if entry.take().is_some() {
                self.live -= 1;
                self.free.push(index);
            }
        }
    }

    /// Drives one connection's state machine as far as its queued
    /// input allows: handshake flights inline, then at most one
    /// decoded request offloaded to the compute pool.
    fn drain_conn(&mut self, token: u64) {
        loop {
            // The connection borrow must end before `close` below, so
            // each step reports its outcome instead of acting on self.
            let step =
                step_conn(&mut self.conns, token, self.server, &self.chain, &self.jobs, self.id);
            match step {
                Step::Continue => {}
                Step::Drained => return,
                Step::Close => return self.close(token),
            }
        }
    }

    /// The timer wheel: close handshakes and idle sessions whose
    /// client has been *inactive* (no flight received) past the
    /// configured deadline. `Busy` connections are exempt — a request
    /// in flight is activity, not a stall. A connection only counts as
    /// stalled if it is past its deadline *and* draining it yields
    /// nothing: the client may have sent bytes this loop hasn't read
    /// yet (e.g. while the thread was decapsulating another
    /// connection's handshake), and queued input is activity.
    fn enforce_deadlines(&mut self) {
        let config = *self.chain.config();
        if config.handshake_timeout.is_none() && config.idle_timeout.is_none() {
            return;
        }
        for index in 0..self.conns.len() {
            let token = TOKEN_CONN0 + index as u64;
            let overdue = |state: Option<&ConnState>| {
                state.is_some_and(|state| {
                    phase_timeout(&state.phase, &config)
                        .is_some_and(|t| state.last_activity.elapsed() >= t)
                })
            };
            if !overdue(self.conns[index].as_ref()) {
                continue;
            }
            self.drain_conn(token);
            if overdue(self.conns[index].as_ref()) {
                self.server.stats.connections_timed_out.fetch_add(1, Ordering::Relaxed);
                self.close(token);
            }
        }
    }

    /// Shutdown (every loop, once [`CasServer::shutdown`] set the
    /// drain flag): loop 0 performs the same stop-accepting broadcast
    /// as an exhausted accept budget, and every connection without a
    /// request in flight closes now. Busy connections finish on the
    /// compute pool and close in `complete`, so in-flight replies are
    /// never dropped.
    fn begin_drain(&mut self) {
        if self.id == 0 && self.listener.is_some() {
            self.accepting_done.store(true, Ordering::Release);
            self.listener = None;
            for control in &self.all_controls {
                control.signal();
            }
        }
        for index in 0..self.conns.len() {
            let busy =
                self.conns[index].as_ref().is_some_and(|state| matches!(state.phase, Phase::Busy));
            if self.conns[index].is_some() && !busy {
                self.close(TOKEN_CONN0 + index as u64);
            }
        }
    }
}

/// Outcome of one connection state-machine step.
enum Step {
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

fn conn_mut(conns: &mut [Option<ConnState>], token: u64) -> Option<&mut ConnState> {
    let index = usize::try_from(token.checked_sub(TOKEN_CONN0)?).ok()?;
    conns.get_mut(index)?.as_mut()
}

/// One step of a connection's state machine (free function so the
/// caller's borrow of the connection table stays disjoint from the
/// loop's other fields): handshake flights run inline, an admitted
/// request checks the session out to the compute pool, refusals and
/// malformed messages are answered inline from the idle session.
fn step_conn(
    conns: &mut [Option<ConnState>],
    token: u64,
    server: &CasServer,
    chain: &MiddlewareChain,
    jobs: &crossbeam::channel::Sender<Job>,
    loop_id: usize,
) -> Step {
    let Some(state) = conn_mut(conns, token) else { return Step::Drained };
    match &mut state.phase {
        // A request is in flight; its completion resumes the drain.
        Phase::Busy => Step::Drained,
        Phase::Handshake { .. } => {
            let raw = match state.conn.try_recv() {
                Ok(raw) => raw,
                Err(NetError::Timeout) => return Step::Drained,
                Err(_) => return Step::Close,
            };
            state.last_activity = Instant::now();
            // lint: allow(panic) — phase variant pinned by the enclosing match arm
            let Phase::Handshake { machine, rng } = &mut state.phase else { unreachable!() };
            // Handshake flights stay on the loop, KEM decapsulation
            // included. That is not free: a CRT decapsulation under an
            // RSA-1024 channel key costs ≈0.12 ms on a 2-vCPU x86-64
            // host with AVX-512 IFMA, both halves on this thread
            // (`ablation/rsa-crt/kem-decapsulate-crt`; ≈0.26 ms on the
            // portable kernel, which offers one half to a helper
            // thread), during which this loop's other connections wait.
            match machine.on_message(&state.conn, &raw, &server.channel_key, rng) {
                Ok(None) => Step::Continue,
                Ok(Some(channel)) => {
                    let transcript = channel.transcript();
                    let (sender, receiver) = channel.split();
                    let Phase::Handshake { rng, .. } =
                        std::mem::replace(&mut state.phase, Phase::Busy)
                    else {
                        // lint: allow(panic) — phase variant pinned by the enclosing match arm
                        unreachable!()
                    };
                    state.phase = Phase::Idle(Box::new(Session {
                        sender,
                        receiver,
                        transcript,
                        outstanding_nonce: None,
                        rng,
                    }));
                    Step::Continue
                }
                Err(_) => Step::Close,
            }
        }
        Phase::Idle(session) => {
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
            let queued_for = state.ready.since_signal();
            let reply = match Message::from_bytes_traced(&raw) {
                Ok((message, inherited)) => {
                    if let Some(mut started) = server.tracer().begin(inherited) {
                        // How long the frame's readiness signal sat
                        // before this loop serviced it: the `queue`
                        // leg. Coarse (see `since_signal`) but exactly
                        // the wait admission control cannot see.
                        if let Some(waited) = queued_for {
                            started.record_queue(waited);
                        }
                        trace::install(started);
                    }
                    match server.admit(chain, message) {
                        // Admitted: check the session out to the compute
                        // pool and stop draining — at most one request in
                        // flight per connection keeps dispatch order equal
                        // to receive order.
                        Ok(request) => {
                            let Phase::Idle(session) =
                                std::mem::replace(&mut state.phase, Phase::Busy)
                            else {
                                // lint: allow(panic) — phase variant pinned by the enclosing match arm
                                unreachable!()
                            };
                            // `last_activity` was stamped when this raw
                            // frame was read — it is the request's receive
                            // instant for the end-to-end latency sample.
                            let received = state.last_activity;
                            let trace = trace::take();
                            return if jobs
                                .send(Job { loop_id, token, request, session, received, trace })
                                .is_err()
                            {
                                Step::Close
                            } else {
                                Step::Drained
                            };
                        }
                        Err(refused) => refused,
                    }
                }
                Err(_) => Message::Denied { reason: "malformed message".into() },
            };
            // Refusals and malformed messages are answered inline from
            // the idle session: they must not cost a compute slot. A
            // refused trace still completes (and tail sampling pins it).
            server.stats.denials.fetch_add(1, Ordering::Relaxed);
            let active = trace::take();
            let echo = active.as_ref().filter(|t| t.inherited()).map(|t| t.context());
            if session.sender.send(&reply.to_bytes_traced(echo.as_ref())).is_err() {
                if let Some(mut orphan) = active {
                    orphan.mark_errored();
                    server.tracer().finish(orphan);
                }
                return Step::Close;
            }
            if let Some(finished) = active {
                server.tracer().finish(finished);
            }
            Step::Continue
        }
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
