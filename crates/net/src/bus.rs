//! The in-process message network with adversary interposition.
//!
//! Models the paper's system model (§2.3): the machine's network is
//! *under adversary control*. Honest parties bind listeners and dial
//! addresses; the adversary — and only code that holds the [`Network`]
//! handle's adversary API — can redirect dialed addresses to their own
//! listeners and wiretap connection metadata. This is exactly the
//! capability the SGX-LKL attack needs (§3.3.2: "the invocation
//! command is intercepted by the adversary").
//!
//! # Readiness
//!
//! Blocking one thread per connection does not scale to high fan-in,
//! so the bus also offers an epoll-shaped readiness layer: a
//! [`Poller`] hands out token-carrying [`Readiness`] handles, a
//! [`Connection`] or [`Listener`] is [`watch`]ed with one, and every
//! event that makes the source readable — a message send, a new
//! connection queued at a listener, a peer endpoint dropping — signals
//! the handle, which enqueues its token at the poller and wakes it
//! through a condvar. [`Poller::wait`] therefore *parks*: an idle bus
//! with thousands of watched connections costs zero CPU until an event
//! arrives (asserted by a unit test via [`Poller::idle_waits`], which
//! counts condvar blocks — a busy-poll would show thousands of
//! iterations where parking shows one).
//!
//! Signals are edge-shaped hints, deduplicated per handle while
//! queued: after draining a token the consumer must read the source
//! until it reports empty ([`Connection::try_recv`] /
//! [`Listener::try_accept`]). Watching a source signals once
//! immediately so anything queued *before* the watch is never lost.
//!
//! [`watch`]: Connection::watch

use crate::error::NetError;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex as StdMutex, OnceLock};
use std::time::{Duration, Instant};

/// Microseconds on a process-wide monotonic clock, used only to stamp
/// readiness signals. Never returns 0 — that value is reserved for
/// "never signaled".
fn monotonic_micros() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    let elapsed = EPOCH.get_or_init(Instant::now).elapsed();
    u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX).max(1)
}

/// Default receive timeout: generous for tests, short enough to fail
/// fast on deadlocks.
pub const RECV_TIMEOUT: Duration = Duration::from_secs(10);

/// A watch slot: where a source keeps the readiness handle that its
/// events signal. Shared between the two endpoints of a connection
/// (each endpoint signals its *peer's* slot).
type WatchSlot = Mutex<Option<Arc<Readiness>>>;

fn signal_slot(slot: &WatchSlot) {
    if let Some(readiness) = slot.lock().as_ref() {
        readiness.signal();
    }
}

// ---- Poller ---------------------------------------------------------------

struct PollerShared {
    state: StdMutex<PollerState>,
    cv: Condvar,
}

struct PollerState {
    /// Handles whose tokens are queued, in signal order.
    ready: Vec<Arc<Readiness>>,
    /// Condvar blocks taken by [`Poller::wait`] — the no-busy-poll
    /// diagnostic: an idle wait parks once (plus rare spurious wakes)
    /// instead of iterating.
    idle_waits: u64,
}

/// A readiness token source: watched connections and listeners signal
/// their [`Readiness`] handles, the poller's owner drains the queued
/// tokens with [`Poller::wait`].
pub struct Poller {
    shared: Arc<PollerShared>,
}

impl Default for Poller {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for Poller {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Poller").finish()
    }
}

impl Poller {
    /// Creates an empty poller.
    #[must_use]
    pub fn new() -> Poller {
        Poller {
            shared: Arc::new(PollerShared {
                state: StdMutex::new(PollerState { ready: Vec::new(), idle_waits: 0 }),
                cv: Condvar::new(),
            }),
        }
    }

    /// Creates a readiness handle that enqueues `token` at this poller
    /// when signaled. Hand it to [`Connection::watch`] /
    /// [`Listener::watch`], or keep it to inject control events.
    #[must_use]
    pub fn readiness(&self, token: u64) -> Arc<Readiness> {
        Arc::new(Readiness {
            shared: self.shared.clone(),
            token,
            queued: AtomicBool::new(false),
            signaled_at_micros: AtomicU64::new(0),
        })
    }

    /// Waits until at least one token is queued (returning the drained
    /// tokens in signal order) or `timeout` passes (returning empty).
    /// Parks on a condvar while idle — never spins.
    ///
    /// A `timeout` too large to land on the monotonic clock (e.g.
    /// [`Duration::MAX`] as "wait forever") is treated as unbounded:
    /// the wait parks in long chunks until a token arrives instead of
    /// panicking on `Instant` overflow.
    #[must_use]
    pub fn wait(&self, timeout: Duration) -> Vec<u64> {
        // `None` = effectively infinite: `Instant + timeout` would
        // overflow, so there is no deadline to miss.
        let deadline = Instant::now().checked_add(timeout);
        let mut state = self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        loop {
            if !state.ready.is_empty() {
                return state
                    .ready
                    .drain(..)
                    .map(|readiness| {
                        // Clear the dedup flag before reporting: a
                        // signal arriving after this re-queues the
                        // token (at worst a spurious extra event; the
                        // consumer drains to empty either way).
                        readiness.queued.store(false, Ordering::Release);
                        readiness.token
                    })
                    .collect();
            }
            let now = Instant::now();
            let remaining = match deadline {
                Some(deadline) if now >= deadline => return Vec::new(),
                Some(deadline) => deadline - now,
                // Unbounded: park in hour-long chunks (a signal wakes
                // the condvar immediately either way).
                None => Duration::from_secs(3600),
            };
            state.idle_waits += 1;
            state = self
                .shared
                .cv
                .wait_timeout(state, remaining)
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .0;
        }
    }

    /// How many times [`Poller::wait`] has parked on the condvar.
    /// Diagnostic for the no-busy-poll contract: an idle wait adds 1
    /// (plus rare spurious wakeups), a spinning implementation would
    /// add thousands per second.
    #[must_use]
    pub fn idle_waits(&self) -> u64 {
        self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner).idle_waits
    }
}

/// A token-carrying readiness handle (see [`Poller::readiness`]).
///
/// Signals are deduplicated while queued: however many events fire
/// between two [`Poller::wait`] drains, the token is reported once.
pub struct Readiness {
    shared: Arc<PollerShared>,
    token: u64,
    queued: AtomicBool,
    /// Monotonic microseconds of the signal that queued the token
    /// (0 = never signaled). Lets a consumer price how long readiness
    /// sat unserviced before the drain that delivered the event.
    signaled_at_micros: AtomicU64,
}

impl fmt::Debug for Readiness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Readiness").field("token", &self.token).finish()
    }
}

impl Readiness {
    /// The token this handle enqueues.
    #[must_use]
    pub fn token(&self) -> u64 {
        self.token
    }

    /// Enqueues the token at the owning poller and wakes it. Idempotent
    /// while the token is still queued.
    pub fn signal(self: &Arc<Self>) {
        if !self.queued.swap(true, Ordering::AcqRel) {
            // Stamp only on the queueing transition: later deduplicated
            // signals belong to the same pending drain, and the age of
            // the *oldest* undrained event is the wait that matters.
            self.signaled_at_micros.store(monotonic_micros(), Ordering::Relaxed);
            let mut state =
                self.shared.state.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            state.ready.push(self.clone());
            drop(state);
            self.shared.cv.notify_one();
        }
    }

    /// Time since the signal that queued this token; `None` before the
    /// first signal. Read after draining an event to measure how long
    /// readiness sat unserviced (e.g. the queue leg of a traced
    /// request). The value is a coarse hint: a fresh signal racing the
    /// drain shortens it.
    #[must_use]
    pub fn since_signal(&self) -> Option<Duration> {
        match self.signaled_at_micros.load(Ordering::Relaxed) {
            0 => None,
            at => Some(Duration::from_micros(monotonic_micros().saturating_sub(at))),
        }
    }
}

// ---- Network --------------------------------------------------------------

struct ListenerEntry {
    tx: Sender<Connection>,
    /// Signaled when a connection is queued at the listener.
    watch: Arc<WatchSlot>,
}

struct NetworkInner {
    listeners: HashMap<String, ListenerEntry>,
    /// Adversary-installed address rewrites, applied at dial time.
    redirects: HashMap<String, String>,
    /// Count of observed dials per (requested) address.
    dial_log: BTreeMap<String, u64>,
}

/// A simulated network: a switchboard of named listeners.
///
/// Cloneable handle; all clones share the same switchboard.
#[derive(Clone)]
pub struct Network {
    inner: Arc<Mutex<NetworkInner>>,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("Network")
            .field("listeners", &inner.listeners.len())
            .field("redirects", &inner.redirects.len())
            .finish()
    }
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Network {
            inner: Arc::new(Mutex::new(NetworkInner {
                listeners: HashMap::new(),
                redirects: HashMap::new(),
                dial_log: BTreeMap::new(),
            })),
        }
    }

    /// Binds a listener at `address`, replacing any previous listener
    /// at the same address (the host controls its port namespace).
    #[must_use]
    pub fn listen(&self, address: &str) -> Listener {
        let (tx, rx) = unbounded();
        let watch = Arc::new(Mutex::new(None));
        self.inner
            .lock()
            .listeners
            .insert(address.to_owned(), ListenerEntry { tx, watch: watch.clone() });
        Listener { address: address.to_owned(), rx, watch }
    }

    /// Dials `address`, returning the caller's end of a fresh
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::AddressUnreachable`] if (after adversary
    /// redirects) no listener is bound.
    pub fn connect(&self, address: &str) -> Result<Connection, NetError> {
        let mut inner = self.inner.lock();
        *inner.dial_log.entry(address.to_owned()).or_insert(0) += 1;
        let effective = inner.redirects.get(address).cloned().unwrap_or_else(|| address.to_owned());
        let entry = inner
            .listeners
            .get(&effective)
            .ok_or_else(|| NetError::AddressUnreachable { address: effective.clone() })?;
        let (listener_tx, listener_watch) = (entry.tx.clone(), entry.watch.clone());
        drop(inner);

        let (client_side, server_side) = Connection::wired(effective, format!("dial:{address}"));
        listener_tx
            .send(server_side)
            .map_err(|_| NetError::AddressUnreachable { address: address.to_owned() })?;
        signal_slot(&listener_watch);
        Ok(client_side)
    }

    // ---- Adversary API ---------------------------------------------------
    // In the paper's threat model the host network belongs to the
    // adversary; these methods model that power.

    /// Adversary: transparently redirect future dials of `from` to `to`.
    pub fn adversary_redirect(&self, from: &str, to: &str) {
        self.inner.lock().redirects.insert(from.to_owned(), to.to_owned());
    }

    /// Adversary: remove a redirect.
    pub fn adversary_clear_redirect(&self, from: &str) {
        self.inner.lock().redirects.remove(from);
    }

    /// Adversary: observe which addresses have been dialed, and how
    /// often (one entry per requested address, so the log stays
    /// bounded by the address space, not the dial count).
    #[must_use]
    pub fn adversary_dial_log(&self) -> BTreeMap<String, u64> {
        self.inner.lock().dial_log.clone()
    }
}

/// A bound listener.
///
/// `Listener` is `Sync`: several threads may share one listener
/// (behind an `Arc`) and call [`Listener::accept`] concurrently — each
/// queued connection is handed to exactly one accepter, like
/// `accept(2)` on a shared listening socket. The CAS reactor instead
/// [`watch`]es the listener and drains it with
/// [`Listener::try_accept`] from one event loop.
///
/// [`watch`]: Listener::watch
#[derive(Debug)]
pub struct Listener {
    address: String,
    rx: Receiver<Connection>,
    /// Readiness handle signaled when a connection is queued.
    watch: Arc<WatchSlot>,
}

impl Listener {
    /// The bound address.
    #[must_use]
    pub fn address(&self) -> &str {
        &self.address
    }

    /// Accepts the next incoming connection.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] if nothing arrives within
    /// [`RECV_TIMEOUT`].
    pub fn accept(&self) -> Result<Connection, NetError> {
        self.rx.recv_timeout(RECV_TIMEOUT).map_err(|_| NetError::Timeout)
    }

    /// Accepts with a caller-chosen timeout.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] when the deadline passes.
    pub fn accept_timeout(&self, timeout: Duration) -> Result<Connection, NetError> {
        self.rx.recv_timeout(timeout).map_err(|_| NetError::Timeout)
    }

    /// Accepts a queued connection without waiting.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] when none is queued.
    pub fn try_accept(&self) -> Result<Connection, NetError> {
        self.rx.try_recv().map_err(|_| NetError::Timeout)
    }

    /// Registers `readiness` to be signaled whenever a connection is
    /// queued at this listener, and signals it once immediately so
    /// connections queued before the watch are not missed. Replaces
    /// any previous watch.
    pub fn watch(&self, readiness: &Arc<Readiness>) {
        *self.watch.lock() = Some(readiness.clone());
        readiness.signal();
    }
}

/// One endpoint of a bidirectional, message-oriented connection.
#[derive(Debug)]
pub struct Connection {
    /// `Some` until drop: [`Connection`]'s `Drop` impl must disconnect
    /// the peer's receive side *before* signaling its watch slot (see
    /// there), and field drop glue runs after `Drop::drop`.
    tx: Option<Sender<Vec<u8>>>,
    rx: Receiver<Vec<u8>>,
    peer: String,
    /// Signaled when *this* endpoint becomes readable (peer sent or
    /// hung up).
    watch: Arc<WatchSlot>,
    /// The peer endpoint's watch slot: signaled by our sends and drop.
    peer_watch: Arc<WatchSlot>,
    /// Receive-timeout override in microseconds for [`Connection::recv`]
    /// (`0` = the [`RECV_TIMEOUT`] default). Lets a server bound how
    /// long a stalled peer can hold a blocking reader.
    recv_timeout_micros: AtomicU64,
}

impl Connection {
    /// Builds a cross-wired endpoint pair: each side's sends (and
    /// drop) signal the other side's watch slot.
    fn wired(peer_a: String, peer_b: String) -> (Connection, Connection) {
        let (a_tx, b_rx) = unbounded();
        let (b_tx, a_rx) = unbounded();
        let a_watch: Arc<WatchSlot> = Arc::new(Mutex::new(None));
        let b_watch: Arc<WatchSlot> = Arc::new(Mutex::new(None));
        (
            Connection {
                tx: Some(a_tx),
                rx: a_rx,
                peer: peer_a,
                watch: a_watch.clone(),
                peer_watch: b_watch.clone(),
                recv_timeout_micros: AtomicU64::new(0),
            },
            Connection {
                tx: Some(b_tx),
                rx: b_rx,
                peer: peer_b,
                watch: b_watch,
                peer_watch: a_watch,
                recv_timeout_micros: AtomicU64::new(0),
            },
        )
    }

    /// Description of the peer (informational).
    #[must_use]
    pub fn peer(&self) -> &str {
        &self.peer
    }

    /// Registers `readiness` to be signaled whenever this endpoint
    /// becomes readable — a message arrives or the peer endpoint is
    /// dropped — and signals it once immediately so messages queued
    /// before the watch are not missed. Replaces any previous watch.
    pub fn watch(&self, readiness: &Arc<Readiness>) {
        *self.watch.lock() = Some(readiness.clone());
        readiness.signal();
    }

    /// Overrides the timeout [`Connection::recv`] blocks for (`None`
    /// restores the [`RECV_TIMEOUT`] default): how a blocking reader —
    /// a client awaiting a reply, a replication pump polling its
    /// stream — bounds the time a silent peer can hold it.
    pub fn set_recv_timeout(&self, timeout: Option<Duration>) {
        let micros = timeout.map_or(0, |t| t.as_micros().try_into().unwrap_or(u64::MAX).max(1));
        self.recv_timeout_micros.store(micros, Ordering::Relaxed);
    }

    /// Sends one message.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Disconnected`] if the peer endpoint was
    /// dropped.
    pub fn send(&self, message: Vec<u8>) -> Result<(), NetError> {
        let tx = self.tx.as_ref().ok_or(NetError::Disconnected)?;
        tx.send(message).map_err(|_| NetError::Disconnected)?;
        signal_slot(&self.peer_watch);
        Ok(())
    }

    /// Receives one message if one is already queued, without waiting.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] when the queue is empty and
    /// [`NetError::Disconnected`] if the peer endpoint was dropped.
    pub fn try_recv(&self) -> Result<Vec<u8>, NetError> {
        match self.rx.try_recv() {
            Ok(m) => Ok(m),
            Err(std::sync::mpsc::TryRecvError::Empty) => Err(NetError::Timeout),
            Err(std::sync::mpsc::TryRecvError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Receives one message.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::Timeout`] after the configured receive
    /// timeout ([`RECV_TIMEOUT`] unless overridden via
    /// [`Connection::set_recv_timeout`]) and [`NetError::Disconnected`]
    /// if the peer endpoint was dropped.
    pub fn recv(&self) -> Result<Vec<u8>, NetError> {
        let micros = self.recv_timeout_micros.load(Ordering::Relaxed);
        let timeout = if micros == 0 { RECV_TIMEOUT } else { Duration::from_micros(micros) };
        match self.rx.recv_timeout(timeout) {
            Ok(m) => Ok(m),
            Err(crossbeam::channel::RecvTimeoutError::Timeout) => Err(NetError::Timeout),
            Err(crossbeam::channel::RecvTimeoutError::Disconnected) => Err(NetError::Disconnected),
        }
    }

    /// Creates a connected pair directly (for tests and local links).
    #[must_use]
    pub fn pair() -> (Connection, Connection) {
        Connection::wired("pair:b".to_owned(), "pair:a".to_owned())
    }
}

impl Drop for Connection {
    fn drop(&mut self) {
        // A watched peer must learn about the hang-up without polling:
        // its next try_recv reports Disconnected. The sender half MUST
        // go first: signals are consumed edge-style, so if the wakeup
        // fired while our sender was still alive, a fast peer could
        // drain `Empty` (not `Disconnected`), park again, and never be
        // signaled about this connection again.
        drop(self.tx.take());
        signal_slot(&self.peer_watch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn listen_connect_exchange() {
        let net = Network::new();
        let listener = net.listen("svc:1");
        let client = net.connect("svc:1").unwrap();
        let server = listener.accept().unwrap();

        client.send(b"ping".to_vec()).unwrap();
        assert_eq!(server.recv().unwrap(), b"ping");
        server.send(b"pong".to_vec()).unwrap();
        assert_eq!(client.recv().unwrap(), b"pong");
    }

    #[test]
    fn unknown_address_unreachable() {
        let net = Network::new();
        assert!(matches!(net.connect("nowhere"), Err(NetError::AddressUnreachable { .. })));
    }

    #[test]
    fn adversary_redirect_hijacks_dials() {
        let net = Network::new();
        let _honest = net.listen("cas:443");
        let evil = net.listen("evil:443");

        net.adversary_redirect("cas:443", "evil:443");
        let client = net.connect("cas:443").unwrap();
        let hijacked = evil.accept().unwrap();
        client.send(b"secret hello".to_vec()).unwrap();
        assert_eq!(hijacked.recv().unwrap(), b"secret hello");

        // Clearing the redirect restores honest routing.
        net.adversary_clear_redirect("cas:443");
        let _client2 = net.connect("cas:443").unwrap();
        assert!(evil.accept_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn dial_log_records_requested_addresses() {
        let net = Network::new();
        let _l = net.listen("a");
        let _ = net.connect("a");
        let _ = net.connect("a");
        let _ = net.connect("missing");
        let expected = BTreeMap::from([("a".to_owned(), 2), ("missing".to_owned(), 1)]);
        assert_eq!(net.adversary_dial_log(), expected);
    }

    #[test]
    fn disconnect_detected() {
        let (a, b) = Connection::pair();
        drop(b);
        assert_eq!(a.send(b"x".to_vec()), Err(NetError::Disconnected));
        assert_eq!(a.recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn shared_listener_hands_each_connection_to_one_accepter() {
        // Threads sharing one listener each get a distinct connection,
        // none is lost, and none is delivered twice.
        let net = Network::new();
        let listener = std::sync::Arc::new(net.listen("svc:pool"));
        let workers = 4;
        let conns_per_worker = 8;
        let total = workers * conns_per_worker;

        let accepted = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    let listener = listener.clone();
                    scope.spawn(move || {
                        let mut got = Vec::new();
                        for _ in 0..conns_per_worker {
                            let conn = listener.accept().unwrap();
                            got.push(conn.recv().unwrap());
                        }
                        got
                    })
                })
                .collect();
            // Client ends stay alive until every worker has drained
            // its messages.
            let mut clients = Vec::new();
            for i in 0..total {
                let conn = net.connect("svc:pool").unwrap();
                conn.send(vec![i as u8]).unwrap();
                clients.push(conn);
            }
            handles.into_iter().flat_map(|h| h.join().unwrap()).collect::<Vec<_>>()
        });

        let mut seen: Vec<u8> = accepted.into_iter().map(|m| m[0]).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..total as u8).collect::<Vec<_>>());
    }

    #[test]
    fn rebinding_replaces_listener() {
        let net = Network::new();
        let old = net.listen("svc");
        let new = net.listen("svc");
        let _c = net.connect("svc").unwrap();
        assert!(new.accept_timeout(Duration::from_millis(100)).is_ok());
        assert!(old.accept_timeout(Duration::from_millis(50)).is_err());
    }

    #[test]
    fn messages_preserve_order() {
        let (a, b) = Connection::pair();
        for i in 0..100u8 {
            a.send(vec![i]).unwrap();
        }
        for i in 0..100u8 {
            assert_eq!(b.recv().unwrap(), vec![i]);
        }
    }

    #[test]
    fn recv_timeout_override_bounds_the_stall() {
        let (a, _b) = Connection::pair();
        a.set_recv_timeout(Some(Duration::from_millis(20)));
        let start = Instant::now();
        assert_eq!(a.recv(), Err(NetError::Timeout));
        let elapsed = start.elapsed();
        assert!(elapsed >= Duration::from_millis(20), "returned early: {elapsed:?}");
        assert!(elapsed < RECV_TIMEOUT, "override ignored");
    }

    // ---- Readiness --------------------------------------------------------

    #[test]
    fn since_signal_tracks_the_queueing_transition() {
        let poller = Poller::new();
        let ready = poller.readiness(42);
        assert!(ready.since_signal().is_none(), "unsignaled handle has no age");
        ready.signal();
        let first = ready.since_signal().expect("signaled handle has an age");
        std::thread::sleep(Duration::from_millis(5));
        // A deduplicated re-signal must not refresh the stamp: the
        // oldest undrained event defines the wait.
        ready.signal();
        let second = ready.since_signal().expect("still signaled");
        assert!(second >= first, "age went backwards: {first:?} -> {second:?}");
        assert!(second >= Duration::from_millis(5), "dedup refreshed the stamp");
        assert_eq!(poller.wait(Duration::from_millis(100)), vec![42]);
    }

    #[test]
    fn watched_connection_signals_on_send_and_drop() {
        let poller = Poller::new();
        let (a, b) = Connection::pair();
        a.watch(&poller.readiness(7));
        // The watch itself signals once (catch-up semantics).
        assert_eq!(poller.wait(Duration::from_millis(100)), vec![7]);

        b.send(b"x".to_vec()).unwrap();
        assert_eq!(poller.wait(Duration::from_millis(100)), vec![7]);
        assert_eq!(a.try_recv().unwrap(), b"x");
        assert_eq!(a.try_recv(), Err(NetError::Timeout));

        drop(b);
        assert_eq!(poller.wait(Duration::from_millis(100)), vec![7]);
        assert_eq!(a.try_recv(), Err(NetError::Disconnected));
    }

    #[test]
    fn hang_up_signal_never_precedes_the_disconnect() {
        // Regression: `Connection`'s `Drop` once signaled the peer's
        // watch *before* its sender field was dropped. A reactor waking
        // on that signal could drain `Empty` (the channel still looked
        // connected), consume the edge, and then park forever — the
        // disconnect landed after the only wakeup it would ever get.
        // Now the signal is ordered after the sender drop, so once the
        // token is reported the disconnect must be observable.
        for _ in 0..500 {
            let poller = Poller::new();
            let (a, b) = Connection::pair();
            b.watch(&poller.readiness(1));
            let _ = poller.wait(Duration::from_millis(10)); // catch-up
            let dropper = std::thread::spawn(move || drop(a));
            while poller.wait(Duration::from_millis(100)).is_empty() {}
            assert_eq!(b.try_recv(), Err(NetError::Disconnected), "lost hang-up edge");
            dropper.join().unwrap();
        }
    }

    #[test]
    fn watch_catches_up_on_messages_sent_before_registration() {
        let poller = Poller::new();
        let (a, b) = Connection::pair();
        b.send(b"early".to_vec()).unwrap();
        a.watch(&poller.readiness(3));
        assert_eq!(poller.wait(Duration::from_millis(100)), vec![3]);
        assert_eq!(a.try_recv().unwrap(), b"early");
    }

    #[test]
    fn signals_deduplicate_while_queued() {
        let poller = Poller::new();
        let readiness = poller.readiness(9);
        for _ in 0..100 {
            readiness.signal();
        }
        assert_eq!(poller.wait(Duration::from_millis(100)), vec![9]);
        assert!(poller.wait(Duration::from_millis(10)).is_empty());
    }

    #[test]
    fn unbounded_wait_survives_duration_max() {
        // Regression: `wait` computed `Instant::now() + timeout`, which
        // panics on overflow when a caller passes `Duration::MAX` as
        // "wait forever". The overflow-checked deadline treats such
        // timeouts as unbounded — the wait must park (not panic) and
        // still wake on the next signal.
        let poller = Poller::new();
        let readiness = poller.readiness(7);
        let signaler = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            readiness.signal();
        });
        assert_eq!(poller.wait(Duration::MAX), vec![7]);
        signaler.join().unwrap();
    }

    #[test]
    fn watched_listener_signals_on_connect() {
        let net = Network::new();
        let listener = net.listen("svc:reactor");
        let poller = Poller::new();
        listener.watch(&poller.readiness(1));
        let _ = poller.wait(Duration::from_millis(50)); // catch-up signal
        assert!(matches!(listener.try_accept(), Err(NetError::Timeout)));

        let _client = net.connect("svc:reactor").unwrap();
        assert_eq!(poller.wait(Duration::from_millis(100)), vec![1]);
        assert!(listener.try_accept().is_ok());
    }

    #[test]
    fn idle_bus_parks_instead_of_spinning() {
        // The no-busy-poll contract behind the reactor: a poller
        // watching a 1k-connection idle bus must *park* — one condvar
        // block for the whole wait, not a poll loop over the sources.
        let net = Network::new();
        let listener = net.listen("svc:idle");
        let poller = Poller::new();
        listener.watch(&poller.readiness(0));
        let mut conns = Vec::new();
        for i in 0..1000u64 {
            let client = net.connect("svc:idle").unwrap();
            let server = listener.try_accept().unwrap();
            server.watch(&poller.readiness(1 + i));
            conns.push((client, server));
        }
        // Drain the registration catch-up signals.
        while !poller.wait(Duration::from_millis(10)).is_empty() {}

        let baseline = poller.idle_waits();
        let start = Instant::now();
        assert!(poller.wait(Duration::from_millis(120)).is_empty(), "idle bus produced events");
        assert!(start.elapsed() >= Duration::from_millis(120));
        let blocks = poller.idle_waits() - baseline;
        assert!(
            blocks <= 4,
            "idle 1k-connection wait must park (≤ a few condvar blocks), took {blocks}"
        );

        // And a single event still wakes it promptly.
        conns[500].0.send(b"wake".to_vec()).unwrap();
        assert_eq!(poller.wait(Duration::from_millis(200)), vec![501]);
    }
}
