//! Admission-control middleware for the CAS serving path.
//!
//! Production verifier deployments front their request loop with a
//! small, *fixed-order* stack of defensive layers (cf. the 17-layer
//! middleware stack of production CAS deployments). This module is
//! that stack for the CAS reactor ([`crate::reactor`]), evaluated per
//! request in a fixed order:
//!
//! 1. **Timeouts** — handshake and read idle deadlines (enforced at
//!    the connection layer by the reactor's timer wheel; configured
//!    here) so a slow-loris peer cannot hold a connection slot.
//! 2. **Rate limiting** — a token bucket per client identity. Sits
//!    first among the per-request layers because it is the cheapest
//!    check and protects everything behind it from a single noisy
//!    identity.
//! 3. **Quotas** — an absolute per-identity request budget. After rate
//!    limiting so a quota-exhausted identity still pays the rate
//!    limiter first and cannot use quota probes to bypass it.
//! 4. **Panic isolation** — dispatch runs under `catch_unwind` so a
//!    panic poisons one connection, not the serving thread (enforced
//!    by the reactor's compute workers; configured here).
//! 5. **Circuit breaker** — wraps the volume/journal append boundary,
//!    the one layer that talks to storage. Last, at the resource it
//!    guards: when appends fail repeatedly the breaker opens and
//!    journaling requests are shed with a clean refusal instead of
//!    queueing behind a dead volume.
//!
//! The order is fixed — cheap and outermost first, the resource guard
//! innermost — so every refusal is as cheap as possible and the layers
//! compose predictably; making it configurable would let a deployment
//! accidentally run the breaker in front of the rate limiter and turn
//! an overload refusal into a quota charge.
//!
//! The default [`MiddlewareConfig`] disables every layer: the chain
//! admits everything and serving behaves bit-identically to the
//! unprotected loop (the determinism contract the golden-transcript
//! test and the ablation gates pin).
//! [`MiddlewareConfig::hardened`] is the everything-on preset.
//!
//! Alongside the per-request layers, the chain carries the fleet's
//! **degraded flag**: a follower that loses its replication stream
//! keeps serving reads (stale-bounded, by design) and reconnects with
//! bounded backoff — the breaker stays closed, because the local
//! volume is healthy and opening it would shed traffic the replica can
//! still serve correctly. The flag makes the state observable instead
//! of silent.
//!
//! Time is read from a chain-local clock that tests can step with
//! [`MiddlewareChain::advance`] — layer tests never sleep.

use parking_lot::Mutex;
use sinclave_crypto::sha256::Digest;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Token-bucket rate limiting parameters (per client identity).
#[derive(Clone, Copy, Debug)]
pub struct RateLimitConfig {
    /// Bucket capacity: how many requests an idle identity may burst.
    pub burst: u32,
    /// Sustained refill rate in requests per second.
    pub per_second: u32,
}

/// The removed request-dedup layer's former parameters, now a type
/// with no values: [`MiddlewareConfig::dedup`] can only be `None`.
///
/// The layer cached grant replies keyed on the hash of the request
/// bytes. Every start of one binary sends the same bytes (its common
/// SigStruct and base hash), so the cache answered the next start
/// with the previous start's already-redeemed token. The protocol has
/// no client-chosen retry id to key it soundly, and the per-identity
/// quota already bounds what a retried grant costs, so the layer was
/// deleted rather than re-keyed. The field remains only because the
/// benchmark harness builds the config as a struct literal; the next
/// change to the benchmark deletes the field together with that
/// literal.
#[derive(Clone, Copy, Debug)]
pub enum DedupConfig {}

/// Circuit-breaker parameters for the journal/volume append boundary.
#[derive(Clone, Copy, Debug)]
pub struct BreakerConfig {
    /// Consecutive append failures that open the breaker.
    pub failure_threshold: u32,
    /// How long the breaker stays open before admitting one half-open
    /// probe.
    pub cooldown: Duration,
}

/// Configuration for the full middleware stack. The default disables
/// every layer (bit-identical serving); see the module docs for the
/// fixed evaluation order.
#[derive(Clone, Copy, Debug, Default)]
pub struct MiddlewareConfig {
    /// Inactivity deadline during the secure-channel handshake: the
    /// longest a connection may go without delivering a handshake
    /// flight (`None` = no deadline: a silent peer is held until it
    /// hangs up or the server shuts down). A slow loris that
    /// drips flights buys at most one extra deadline per flight — the
    /// handshake has only two.
    pub handshake_timeout: Option<Duration>,
    /// Inactivity deadline for an established session to send its
    /// next request (`None` = no deadline, as above).
    pub idle_timeout: Option<Duration>,
    /// Per-identity token-bucket rate limiting (`None` = off).
    pub rate_limit: Option<RateLimitConfig>,
    /// Absolute per-identity request budget (`None` = off).
    pub quota: Option<u64>,
    /// Vestige of the removed request-dedup layer; always `None` and
    /// never read (see [`DedupConfig`]).
    pub dedup: Option<DedupConfig>,
    /// Run dispatch under `catch_unwind`, refusing the connection
    /// instead of crashing the serving thread.
    pub isolate_panics: bool,
    /// Circuit breaker around journal/volume appends (`None` = off).
    pub breaker: Option<BreakerConfig>,
}

impl MiddlewareConfig {
    /// The everything-on preset: aggressive slow-loris deadlines,
    /// burst-tolerant rate limiting, a generous quota, panic
    /// isolation, and a breaker that opens fast and probes after a
    /// short cooldown.
    #[must_use]
    pub fn hardened() -> MiddlewareConfig {
        MiddlewareConfig {
            handshake_timeout: Some(Duration::from_millis(500)),
            idle_timeout: Some(Duration::from_secs(2)),
            rate_limit: Some(RateLimitConfig { burst: 64, per_second: 32 }),
            quota: Some(100_000),
            isolate_panics: true,
            breaker: Some(BreakerConfig {
                failure_threshold: 3,
                cooldown: Duration::from_millis(100),
            }),
            ..MiddlewareConfig::default()
        }
    }
}

/// Why the chain refused a request. The reactor encodes the
/// reason into a [`Message::Denied`] reply, so clients can tell an
/// admission refusal (retryable) from a verification failure (not).
///
/// [`Message::Denied`]: sinclave::protocol::Message::Denied
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refusal {
    /// The identity's token bucket is empty.
    RateLimited,
    /// The identity's absolute request budget is spent.
    QuotaExceeded,
    /// The circuit breaker is open: storage is refusing appends and
    /// the request would need one.
    LoadShed,
}

impl Refusal {
    /// The wire-visible refusal reason.
    #[must_use]
    pub fn reason(self) -> &'static str {
        match self {
            Refusal::RateLimited => "rate limited: retry later",
            Refusal::QuotaExceeded => "quota exceeded",
            Refusal::LoadShed => "service overloaded: retry later",
        }
    }

    /// The trace-span stage name of the refusing layer (see
    /// [`crate::trace`]): the decision span a refused request's trace
    /// carries alongside the admission span.
    #[must_use]
    pub fn trace_stage(self) -> &'static str {
        match self {
            Refusal::RateLimited => "rate_limit",
            Refusal::QuotaExceeded => "quota",
            Refusal::LoadShed => "breaker_shed",
        }
    }
}

/// A monotonic clock the tests can step without sleeping.
struct Clock {
    base: Instant,
    skew_micros: AtomicU64,
}

impl Clock {
    fn new() -> Clock {
        Clock { base: Instant::now(), skew_micros: AtomicU64::new(0) }
    }

    fn now_micros(&self) -> u64 {
        let elapsed = u64::try_from(self.base.elapsed().as_micros()).unwrap_or(u64::MAX);
        elapsed.saturating_add(self.skew_micros.load(Ordering::Relaxed))
    }

    fn advance(&self, by: Duration) {
        let micros = u64::try_from(by.as_micros()).unwrap_or(u64::MAX);
        self.skew_micros.fetch_add(micros, Ordering::Relaxed);
    }
}

/// One identity's token bucket, in micro-tokens (integer arithmetic:
/// `1_000_000` micro-tokens = one admission).
struct Bucket {
    micro_tokens: u64,
    refilled_at_micros: u64,
}

const MICRO: u64 = 1_000_000;

/// Bucket-map size below which the rate limiter never sweeps.
const SWEEP_FLOOR: usize = 1024;

/// Layer 2: per-identity token buckets.
struct RateLimiter {
    config: RateLimitConfig,
    buckets: Mutex<Buckets>,
}

/// The rate limiter's bucket map. Identities are client-chosen (a
/// grant's SigStruct signer, an attestation's config id) and charged
/// before verification, so the map is swept of full buckets whenever
/// it has doubled since the last sweep (never below [`SWEEP_FLOOR`]).
/// A bucket refilled to `burst` admits exactly like an absent one, so
/// sweeping changes no admission decision.
struct Buckets {
    map: HashMap<Digest, Bucket>,
    sweep_at: usize,
}

impl RateLimiter {
    fn new(config: RateLimitConfig) -> RateLimiter {
        RateLimiter {
            config,
            buckets: Mutex::new(Buckets { map: HashMap::new(), sweep_at: SWEEP_FLOOR }),
        }
    }

    /// `bucket`'s micro-tokens once refilled up to `now_micros`,
    /// capped at `cap`.
    fn refilled(&self, bucket: &Bucket, now_micros: u64, cap: u64) -> u64 {
        let elapsed = now_micros.saturating_sub(bucket.refilled_at_micros);
        let refill = elapsed.saturating_mul(u64::from(self.config.per_second));
        bucket.micro_tokens.saturating_add(refill).min(cap)
    }

    fn admit(&self, identity: &Digest, now_micros: u64) -> bool {
        let cap = u64::from(self.config.burst) * MICRO;
        let mut buckets = self.buckets.lock();
        let Buckets { map, sweep_at } = &mut *buckets;
        if map.len() >= *sweep_at && !map.contains_key(identity) {
            map.retain(|_, bucket| self.refilled(bucket, now_micros, cap) < cap);
            *sweep_at = (2 * map.len()).max(SWEEP_FLOOR);
        }
        let bucket = map
            .entry(*identity)
            .or_insert(Bucket { micro_tokens: cap, refilled_at_micros: now_micros });
        bucket.micro_tokens = self.refilled(bucket, now_micros, cap);
        bucket.refilled_at_micros = now_micros;
        if bucket.micro_tokens >= MICRO {
            bucket.micro_tokens -= MICRO;
            true
        } else {
            false
        }
    }
}

/// Layer 3: absolute per-identity budgets.
struct QuotaTracker {
    limit: u64,
    spent: Mutex<HashMap<Digest, u64>>,
}

impl QuotaTracker {
    fn admit(&self, identity: &Digest) -> bool {
        let mut spent = self.spent.lock();
        let count = spent.entry(*identity).or_insert(0);
        if *count >= self.limit {
            false
        } else {
            *count += 1;
            true
        }
    }
}

/// Layer 5: the journal/volume append circuit breaker.
enum BreakerState {
    /// Appends flowing; counts consecutive failures.
    Closed { failures: u32 },
    /// Shedding journaling requests until the cooldown passes.
    Open { since_micros: u64 },
    /// One probe request is in flight; its outcome decides.
    HalfOpen,
}

struct CircuitBreaker {
    config: BreakerConfig,
    state: Mutex<BreakerState>,
}

impl CircuitBreaker {
    fn admit(&self, now_micros: u64) -> bool {
        let mut state = self.state.lock();
        match *state {
            BreakerState::Closed { .. } => true,
            BreakerState::Open { since_micros } => {
                let cooldown = u64::try_from(self.config.cooldown.as_micros()).unwrap_or(u64::MAX);
                if now_micros.saturating_sub(since_micros) >= cooldown {
                    *state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
            // The admitted probe is still in flight; hold the line
            // until its outcome is recorded.
            BreakerState::HalfOpen => false,
        }
    }

    fn record(&self, ok: bool, now_micros: u64) {
        let mut state = self.state.lock();
        match (&*state, ok) {
            (BreakerState::Closed { .. }, true) => *state = BreakerState::Closed { failures: 0 },
            (BreakerState::Closed { failures }, false) => {
                let failures = failures + 1;
                *state = if failures >= self.config.failure_threshold {
                    BreakerState::Open { since_micros: now_micros }
                } else {
                    BreakerState::Closed { failures }
                };
            }
            (BreakerState::HalfOpen, true) => *state = BreakerState::Closed { failures: 0 },
            (BreakerState::HalfOpen, false) => {
                *state = BreakerState::Open { since_micros: now_micros };
            }
            // Late results from requests admitted before the breaker
            // opened carry no new information.
            (BreakerState::Open { .. }, _) => {}
        }
    }
}

/// The instantiated middleware stack one [`CasServer`] consults.
///
/// [`CasServer`]: crate::server::CasServer
pub struct MiddlewareChain {
    config: MiddlewareConfig,
    clock: Clock,
    limiter: Option<RateLimiter>,
    quotas: Option<QuotaTracker>,
    breaker: Option<CircuitBreaker>,
    /// Degraded-but-serving: the replication stream is down and the
    /// replica is reconnecting with bounded backoff. Observability
    /// only — reads keep flowing and the breaker stays out of it.
    degraded: AtomicBool,
}

impl Default for MiddlewareChain {
    fn default() -> Self {
        MiddlewareChain::new(MiddlewareConfig::default())
    }
}

impl std::fmt::Debug for MiddlewareChain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MiddlewareChain").field("config", &self.config).finish()
    }
}

impl MiddlewareChain {
    /// Instantiates the stack for `config`.
    #[must_use]
    pub fn new(config: MiddlewareConfig) -> MiddlewareChain {
        MiddlewareChain {
            config,
            clock: Clock::new(),
            limiter: config.rate_limit.map(RateLimiter::new),
            quotas: config
                .quota
                .map(|limit| QuotaTracker { limit, spent: Mutex::new(HashMap::new()) }),
            breaker: config.breaker.map(|b| CircuitBreaker {
                config: b,
                state: Mutex::new(BreakerState::Closed { failures: 0 }),
            }),
            degraded: AtomicBool::new(false),
        }
    }

    /// The configuration this chain was built from.
    #[must_use]
    pub fn config(&self) -> &MiddlewareConfig {
        &self.config
    }

    /// The per-request admission layers in fixed order: rate limit,
    /// then quota. `identity` is the requester's stable identity (the
    /// SigStruct signer for grants, the config id for attestations);
    /// identity-less messages (ping, challenge) are not charged.
    ///
    /// # Errors
    ///
    /// Returns the outermost refusing layer's [`Refusal`].
    pub fn admit(&self, identity: &Digest) -> Result<(), Refusal> {
        if let Some(limiter) = &self.limiter {
            if !limiter.admit(identity, self.clock.now_micros()) {
                return Err(Refusal::RateLimited);
            }
        }
        if let Some(quotas) = &self.quotas {
            if !quotas.admit(identity) {
                return Err(Refusal::QuotaExceeded);
            }
        }
        Ok(())
    }

    /// The breaker layer's pre-dispatch check for a request that will
    /// need a journal/volume append.
    ///
    /// # Errors
    ///
    /// Returns [`Refusal::LoadShed`] while the breaker is open.
    pub fn admit_journaling(&self) -> Result<(), Refusal> {
        match &self.breaker {
            Some(breaker) if !breaker.admit(self.clock.now_micros()) => Err(Refusal::LoadShed),
            _ => Ok(()),
        }
    }

    /// Feeds an append outcome to the breaker (no-op when disabled).
    pub fn record_commit(&self, ok: bool) {
        if let Some(breaker) = &self.breaker {
            breaker.record(ok, self.clock.now_micros());
        }
    }

    /// Whether the append circuit breaker is currently open — the
    /// health probe's read-only view. Unlike
    /// [`MiddlewareChain::admit_journaling`] this never transitions
    /// the breaker (an open→half-open probe admission must be spent
    /// by a real request, not consumed by a monitoring poll).
    #[must_use]
    pub fn breaker_open(&self) -> bool {
        self.breaker
            .as_ref()
            .is_some_and(|breaker| matches!(*breaker.state.lock(), BreakerState::Open { .. }))
    }

    /// Marks or clears the degraded-but-serving state (replication
    /// stream lost / restored). Deliberately independent of the
    /// circuit breaker: the local volume is healthy, so journaling
    /// writes (on a primary) and reads (on a follower) keep flowing.
    pub fn set_degraded(&self, degraded: bool) {
        self.degraded.store(degraded, Ordering::Relaxed);
    }

    /// Whether the replica is currently serving without a live
    /// replication stream.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Steps the chain's clock forward — the test hook that replaces
    /// sleeping in rate-limit and breaker tests.
    pub fn advance(&self, by: Duration) {
        self.clock.advance(by);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(byte: u8) -> Digest {
        Digest([byte; 32])
    }

    #[test]
    fn default_chain_admits_everything() {
        let chain = MiddlewareChain::default();
        for i in 0..10_000 {
            assert_eq!(chain.admit(&identity((i % 7) as u8)), Ok(()));
        }
        assert_eq!(chain.admit_journaling(), Ok(()));
        chain.record_commit(false); // no breaker: outcome discarded
        assert_eq!(chain.admit_journaling(), Ok(()));
    }

    #[test]
    fn rate_limiter_allows_burst_then_refuses() {
        let chain = MiddlewareChain::new(MiddlewareConfig {
            rate_limit: Some(RateLimitConfig { burst: 3, per_second: 1 }),
            ..MiddlewareConfig::default()
        });
        let id = identity(1);
        for _ in 0..3 {
            assert_eq!(chain.admit(&id), Ok(()));
        }
        assert_eq!(chain.admit(&id), Err(Refusal::RateLimited));
        // Refill: one second buys one token, not a full burst.
        chain.advance(Duration::from_secs(1));
        assert_eq!(chain.admit(&id), Ok(()));
        assert_eq!(chain.admit(&id), Err(Refusal::RateLimited));
    }

    #[test]
    fn rate_limiter_buckets_are_per_identity() {
        let chain = MiddlewareChain::new(MiddlewareConfig {
            rate_limit: Some(RateLimitConfig { burst: 1, per_second: 1 }),
            ..MiddlewareConfig::default()
        });
        assert_eq!(chain.admit(&identity(1)), Ok(()));
        assert_eq!(chain.admit(&identity(1)), Err(Refusal::RateLimited));
        // A different identity has its own untouched bucket.
        assert_eq!(chain.admit(&identity(2)), Ok(()));
    }

    #[test]
    fn rate_limiter_refill_caps_at_burst() {
        let chain = MiddlewareChain::new(MiddlewareConfig {
            rate_limit: Some(RateLimitConfig { burst: 2, per_second: 10 }),
            ..MiddlewareConfig::default()
        });
        let id = identity(3);
        chain.advance(Duration::from_secs(3600)); // long idle
        assert_eq!(chain.admit(&id), Ok(()));
        assert_eq!(chain.admit(&id), Ok(()));
        assert_eq!(chain.admit(&id), Err(Refusal::RateLimited), "burst must cap the refill");
    }

    #[test]
    fn rate_limiter_sweeps_full_buckets_of_departed_identities() {
        // Identities are client-chosen, so a flood of fresh ones must
        // not grow the bucket map without bound. 8 × the floor lands
        // the last admission below on a doubling threshold.
        // One admission leaves a bucket a whole token (a second of
        // real time at this rate) short of full.
        let config = RateLimitConfig { burst: 4, per_second: 1 };
        let chain = MiddlewareChain::new(MiddlewareConfig {
            rate_limit: Some(config),
            ..MiddlewareConfig::default()
        });
        let flood = 8 * SWEEP_FLOOR;
        for i in 0..flood {
            let mut id = [0u8; 32];
            id[..8].copy_from_slice(&(i as u64).to_le_bytes());
            assert_eq!(chain.admit(&Digest(id)), Ok(()));
        }
        let buckets =
            |chain: &MiddlewareChain| chain.limiter.as_ref().unwrap().buckets.lock().map.len();
        assert_eq!(buckets(&chain), flood, "no bucket is full before the refill");
        // Every flooded bucket refills to `burst`: indistinguishable
        // from an absent one, so the next new identity sweeps them.
        chain.advance(Duration::from_secs(u64::from(config.burst / config.per_second)));
        assert_eq!(chain.admit(&identity(0xff)), Ok(()));
        assert!(buckets(&chain) < SWEEP_FLOOR, "{} buckets kept", buckets(&chain));
    }

    #[test]
    fn quota_is_absolute_and_per_identity() {
        let chain = MiddlewareChain::new(MiddlewareConfig {
            quota: Some(2),
            ..MiddlewareConfig::default()
        });
        let id = identity(4);
        assert_eq!(chain.admit(&id), Ok(()));
        assert_eq!(chain.admit(&id), Ok(()));
        assert_eq!(chain.admit(&id), Err(Refusal::QuotaExceeded));
        // No refill, ever: quotas are budgets, not rates.
        chain.advance(Duration::from_secs(3600));
        assert_eq!(chain.admit(&id), Err(Refusal::QuotaExceeded));
        assert_eq!(chain.admit(&identity(5)), Ok(()));
    }

    #[test]
    fn rate_limit_refuses_before_quota_is_charged() {
        // Fixed order: the rate limiter sits in front of the quota, so
        // a rate-limited request must not burn budget.
        let chain = MiddlewareChain::new(MiddlewareConfig {
            rate_limit: Some(RateLimitConfig { burst: 1, per_second: 1 }),
            quota: Some(2),
            ..MiddlewareConfig::default()
        });
        let id = identity(6);
        assert_eq!(chain.admit(&id), Ok(())); // quota 1/2
        for _ in 0..10 {
            assert_eq!(chain.admit(&id), Err(Refusal::RateLimited));
        }
        // The refusals above spent no quota: one admission remains.
        chain.advance(Duration::from_secs(1));
        assert_eq!(chain.admit(&id), Ok(())); // quota 2/2
        chain.advance(Duration::from_secs(1));
        assert_eq!(chain.admit(&id), Err(Refusal::QuotaExceeded));
    }

    #[test]
    fn breaker_opens_after_threshold_and_recovers_through_half_open() {
        let chain = MiddlewareChain::new(MiddlewareConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(100),
            }),
            ..MiddlewareConfig::default()
        });
        // Closed: admits, counts consecutive failures.
        assert_eq!(chain.admit_journaling(), Ok(()));
        chain.record_commit(false);
        assert_eq!(chain.admit_journaling(), Ok(()), "one failure is below the threshold");
        chain.record_commit(false);
        // Open: sheds without touching storage.
        assert_eq!(chain.admit_journaling(), Err(Refusal::LoadShed));
        assert_eq!(chain.admit_journaling(), Err(Refusal::LoadShed));
        // After the cooldown: exactly one half-open probe.
        chain.advance(Duration::from_millis(100));
        assert_eq!(chain.admit_journaling(), Ok(()));
        assert_eq!(chain.admit_journaling(), Err(Refusal::LoadShed), "one probe at a time");
        // Probe failure reopens (and restarts the cooldown).
        chain.record_commit(false);
        assert_eq!(chain.admit_journaling(), Err(Refusal::LoadShed));
        chain.advance(Duration::from_millis(100));
        assert_eq!(chain.admit_journaling(), Ok(()));
        // Probe success closes: appends flow again.
        chain.record_commit(true);
        assert_eq!(chain.admit_journaling(), Ok(()));
        assert_eq!(chain.admit_journaling(), Ok(()));
    }

    #[test]
    fn breaker_success_resets_the_failure_streak() {
        let chain = MiddlewareChain::new(MiddlewareConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 2,
                cooldown: Duration::from_millis(100),
            }),
            ..MiddlewareConfig::default()
        });
        chain.record_commit(false);
        chain.record_commit(true); // streak broken
        chain.record_commit(false);
        assert_eq!(
            chain.admit_journaling(),
            Ok(()),
            "threshold counts consecutive failures, not lifetime failures"
        );
    }

    #[test]
    fn degraded_flag_is_independent_of_the_breaker() {
        let chain = MiddlewareChain::new(MiddlewareConfig {
            breaker: Some(BreakerConfig {
                failure_threshold: 1,
                cooldown: Duration::from_millis(100),
            }),
            ..MiddlewareConfig::default()
        });
        assert!(!chain.is_degraded());
        chain.set_degraded(true);
        // A lost replication stream is not a storage failure: the
        // breaker still admits journaling requests.
        assert!(chain.is_degraded());
        assert_eq!(chain.admit_journaling(), Ok(()));
        chain.set_degraded(false);
        assert!(!chain.is_degraded());
    }

    #[test]
    fn refusal_reasons_are_distinct_and_stable() {
        // The wire encoding tests (and clients) rely on these exact
        // strings to tell admission refusals apart.
        assert_eq!(Refusal::RateLimited.reason(), "rate limited: retry later");
        assert_eq!(Refusal::QuotaExceeded.reason(), "quota exceeded");
        assert_eq!(Refusal::LoadShed.reason(), "service overloaded: retry later");
    }

    #[test]
    fn hardened_preset_enables_every_layer() {
        let config = MiddlewareConfig::hardened();
        assert!(config.handshake_timeout.is_some());
        assert!(config.idle_timeout.is_some());
        assert!(config.rate_limit.is_some());
        assert!(config.quota.is_some());
        assert!(config.isolate_panics);
        assert!(config.breaker.is_some());
    }
}
