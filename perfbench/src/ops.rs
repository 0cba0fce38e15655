//! The operations the workloads issue, each with its output checks.

use crate::world::{World, CONFIG_ID};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave::protocol::Message;
use sinclave::InstancePage;
use sinclave_net::SecureChannel;
use sinclave_runtime::scone::{StartOptions, WireGrant};
use sinclave_sgx::attributes::Attributes;
use sinclave_sgx::enclave::Enclave;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Why an op did not count as a success.
#[derive(Debug)]
pub enum OpError {
    /// The stack returned an error or a refusal.
    Failed(String),
    /// The op completed but an output check failed.
    Wrong(String),
}

impl std::fmt::Display for OpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpError::Failed(why) => write!(f, "failed: {why}"),
            OpError::Wrong(why) => write!(f, "wrong output: {why}"),
        }
    }
}

/// Client-side spans of one start, one per `SconeHost` call.
#[derive(Clone, Copy, Debug, Default)]
pub struct StartSpans {
    pub request_grant: Duration,
    pub build_enclave: Duration,
    pub resume_singleton: Duration,
}

/// One full SinClave start against `addr`: `request_grant` on a fresh
/// connection, `build_enclave`, then `resume_singleton` (challenge,
/// quote, attest with redemption, config, run), with the output checks
/// of [`resume`].
///
/// # Errors
///
/// [`OpError::Failed`] when a call fails, [`OpError::Wrong`] when an
/// output check fails.
pub fn start_once(world: &World, addr: &str, op_seed: u64) -> Result<StartSpans, OpError> {
    let t0 = Instant::now();
    let grant = request_grant(world, addr, op_seed)?;
    let t1 = Instant::now();
    let enclave = build(world, &grant)?;
    let t2 = Instant::now();
    resume(world, addr, &grant, enclave, op_seed)?;
    let t3 = Instant::now();
    Ok(StartSpans { request_grant: t1 - t0, build_enclave: t2 - t1, resume_singleton: t3 - t2 })
}

/// `SconeHost::request_grant` on a fresh connection.
///
/// # Errors
///
/// [`OpError::Failed`] on any error or denial.
pub fn request_grant(world: &World, addr: &str, op_seed: u64) -> Result<WireGrant, OpError> {
    let mut rng = StdRng::seed_from_u64(op_seed);
    world
        .host
        .request_grant(&world.packaged, addr, &mut rng)
        .map_err(|e| OpError::Failed(format!("request_grant: {e}")))
}

/// `SconeHost::build_enclave` for a grant's instance page.
///
/// # Errors
///
/// [`OpError::Failed`] when construction or `EINIT` fails.
pub fn build(world: &World, grant: &WireGrant) -> Result<Arc<Enclave>, OpError> {
    let page = InstancePage::new(grant.token, grant.verifier_identity);
    world
        .host
        .build_enclave(
            &world.packaged,
            &page.to_page_bytes(),
            &grant.sigstruct,
            Attributes::production(),
        )
        .map(Arc::new)
        .map_err(|e| OpError::Failed(format!("build_enclave: {e}")))
}

/// `SconeHost::resume_singleton`, then the output checks: the
/// delivered configuration equals the policy's, the program printed
/// its secret, the singleton's measurement is not the common one; the
/// token is recorded (a token acknowledged twice aborts the run).
///
/// # Errors
///
/// [`OpError::Failed`] when the start fails, [`OpError::Wrong`] when an
/// output check fails.
pub fn resume(
    world: &World,
    addr: &str,
    grant: &WireGrant,
    enclave: Arc<Enclave>,
    op_seed: u64,
) -> Result<(), OpError> {
    let packaged = &world.packaged;
    let app = world
        .host
        .resume_singleton(packaged, enclave, &StartOptions::new(addr, CONFIG_ID).with_seed(op_seed))
        .map_err(|e| OpError::Failed(format!("resume_singleton: {e}")))?;
    if app.config.to_bytes() != world.config_bytes {
        return Err(OpError::Wrong("delivered config differs from the policy's".into()));
    }
    if app.outcome.stdout != world.expected_stdout {
        return Err(OpError::Wrong(format!("program printed {:?}", app.outcome.stdout)));
    }
    if app.enclave.mrenclave() == packaged.signed.common_measurement() {
        return Err(OpError::Wrong("singleton ran with the common measurement".into()));
    }
    world.record_token(grant.token.0);
    Ok(())
}

/// A control request: `ChallengeRequest` or `Ping`.
#[must_use]
pub fn control_request(challenge: bool) -> Vec<u8> {
    if challenge {
        Message::ChallengeRequest.to_bytes()
    } else {
        Message::Ping.to_bytes()
    }
}

/// Checks a control reply's type against its request.
///
/// # Errors
///
/// [`OpError::Wrong`] when the reply is not the request's answer.
pub fn check_control_reply(challenge: bool, raw: &[u8]) -> Result<(), OpError> {
    match (challenge, Message::from_bytes(raw)) {
        (false, Ok(Message::Pong)) | (true, Ok(Message::Challenge { .. })) => Ok(()),
        (_, Ok(Message::Denied { reason })) => Err(OpError::Failed(format!("denied: {reason}"))),
        (_, other) => Err(OpError::Wrong(format!("unexpected reply {other:?}"))),
    }
}

/// One lockstep ping on an established session.
///
/// # Errors
///
/// As [`check_control_reply`], plus transport failures.
pub fn ping(chan: &mut SecureChannel) -> Result<(), OpError> {
    chan.send(&control_request(false)).map_err(|e| OpError::Failed(format!("send: {e}")))?;
    let raw = chan.recv().map_err(|e| OpError::Failed(format!("recv: {e}")))?;
    check_control_reply(false, &raw)
}
