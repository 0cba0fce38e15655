//! The Configuration and Attestation Service (CAS) — the paper's
//! trusted verifier (§2.3, §4.4, Fig. 7c).
//!
//! CAS stores per-application *session policies* (expected enclave
//! identity plus the configuration/secrets to hand out) in an
//! encrypted database, verifies attestation quotes against the
//! attestation service's root key, and — with SinClave enabled — runs
//! the singleton machinery: issuing one-time tokens, computing
//! expected singleton measurements from base enclave hashes, and
//! signing on-demand SigStructs.
//!
//! * [`policy`] — session policies and binary registrations.
//! * [`store`] — the encrypted policy database (the "loading and
//!   parsing of the configuration details from the encrypted
//!   database" that dominates Fig. 7c's miscellaneous time).
//! * [`server`] — the network-facing service loop.
//! * [`commit`] — group commit for the sealed redemption journal
//!   (batched durability; what makes exactly-once crash-absolute
//!   without a volume write per event).
//! * [`middleware`] — the fixed-order admission-control stack (rate
//!   limits, quotas, timeouts, panic isolation, circuit breaker) every
//!   served request passes.
//! * [`reactor`] — the readiness-driven serving path: a few event
//!   loops multiplex every connection, offloading crypto to a compute
//!   pool.
//! * [`replica`] — the replicated fleet: a primary streams its sealed
//!   journal to followers, followers serve read-mostly traffic
//!   locally and forward writes, and failover is fenced by a
//!   monotonic generation so a deposed primary can never double-spend
//!   a token (see that module's docs for the topology, the fencing
//!   rules, and the honest consistency story).
//! * [`witness`] — the sealed monotonic rollback witness
//!   [`CasServer::check_rollback`] compares restored state against,
//!   kept in its own encrypted volume.
//! * [`histogram`] — fixed-bucket atomic latency histograms, the
//!   recorders behind the per-stage latency views.
//! * [`status`] — the operability plane's status wire: the health
//!   verdict, the counter dump, and the latency histograms, over a
//!   plaintext probe listener and a protocol opcode.
//! * [`trace`] — per-request causal tracing: trace ids propagated
//!   across fleet hops, span records for every instrumented stage,
//!   and the tail-sampling flight recorder behind the `trace` status
//!   view.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod commit;
pub mod histogram;
pub mod middleware;
pub mod policy;
pub mod reactor;
pub mod replica;
pub mod server;
pub mod status;
pub mod store;
pub mod trace;
pub mod witness;

pub use histogram::{Histogram, HistogramView, StageHistograms};
pub use middleware::{BreakerConfig, DedupConfig, MiddlewareConfig, RateLimitConfig, Refusal};
pub use policy::{PolicyMode, SessionPolicy};
pub use replica::{follow, serve_replication, FollowerHandle, ForwardLink};
pub use server::{CasServer, JournalMode, StatsSnapshot};
pub use status::{serve_status, status_body, Health};
pub use trace::{
    ActiveTrace, CompletedTrace, FlightRecorder, PinReason, Span, SpanOutcome, Tracer,
};
pub use witness::{SealedWitness, WitnessMark};
