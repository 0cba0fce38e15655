//! One benchmark deployment: attestation infrastructure, a packaged
//! singleton binary, a CAS served by the reactor (and, for the fleet
//! workload, a forwarding follower), plus the client-side bookkeeping
//! the output checks need.

use crate::Workload;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use sinclave::signer::SignerConfig;
use sinclave::AppConfig;
use sinclave_cas::store::CasStore;
use sinclave_cas::{
    follow, serve_replication, BreakerConfig, CasServer, FollowerHandle, ForwardLink,
    MiddlewareConfig, PolicyMode, RateLimitConfig, SessionPolicy,
};
use sinclave_crypto::aead::AeadKey;
use sinclave_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use sinclave_net::{Backoff, Network, SecureChannel};
use sinclave_runtime::scone::{package_app, PackagedApp, SconeHost};
use sinclave_runtime::ProgramImage;
use sinclave_sgx::attestation::AttestationService;
use sinclave_sgx::platform::Platform;
use sinclave_sgx::quote::QuotingEnclave;
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Where the primary serves clients.
pub const CAS_ADDR: &str = "cas:443";
/// Where the follower serves clients (fleet workload).
pub const FOLLOWER_ADDR: &str = "cas-follower:443";
/// The primary's replication listener (subscriber stream + forwards).
pub const REPL_ADDR: &str = "cas-repl:7443";
/// The configuration id every start requests.
pub const CONFIG_ID: &str = "bench-app";
/// The paper's SigStruct signer size.
pub const SIGNER_KEY_BITS: usize = 3072;
/// Infrastructure keys (attestation service, quoting enclave, channel).
pub const INFRA_KEY_BITS: usize = 1024;
/// Modeled device flush per committed journal write, as in the
/// `ablation/journal` bench.
pub const FLUSH_MICROS: u64 = 10;
/// Connection budget of a serving reactor: never the limit.
const UNBOUNDED_CONNECTIONS: usize = 1 << 30;
/// Starts run during set-up so the verify and midstate caches are warm
/// before the first timed op.
const WARMUP_STARTS: usize = 3;
/// Sessions the pipeline workload opens during set-up.
pub const PIPELINE_SESSIONS: usize = 2;
/// How long set-up waits for a follower to catch up before giving up.
const CATCHUP_DEADLINE: Duration = Duration::from_secs(20);

/// The middleware chain every server runs: every layer on except
/// dedup, sized so the offered load never trips a limit. See NOTES.md
/// for why dedup stays off.
#[must_use]
pub fn middleware() -> MiddlewareConfig {
    MiddlewareConfig {
        handshake_timeout: Some(Duration::from_secs(30)),
        idle_timeout: Some(Duration::from_secs(300)),
        rate_limit: Some(RateLimitConfig { burst: 100_000, per_second: 1_000_000 }),
        quota: Some(1 << 40),
        dedup: None,
        isolate_panics: true,
        breaker: Some(BreakerConfig { failure_threshold: 3, cooldown: Duration::from_millis(100) }),
    }
}

/// A follower replica serving clients and forwarding writes.
pub struct Fleet {
    pub follower: Arc<CasServer>,
    pump: FollowerHandle,
    /// Baseline adoption plus suffix replay, measured during set-up.
    pub catchup: Duration,
}

pub struct World {
    pub host: SconeHost,
    pub network: Network,
    pub primary: Arc<CasServer>,
    pub fleet: Option<Fleet>,
    pub packaged: PackagedApp,
    pub signer_key: RsaPrivateKey,
    pub channel_key: RsaPrivateKey,
    pub attestation_root: RsaPublicKey,
    /// The session policy every server holds (policies are
    /// configuration; they do not replicate).
    policy: SessionPolicy,
    /// The policy's configuration bytes every start must receive.
    pub config_bytes: Vec<u8>,
    /// What the packaged entry script must print.
    pub expected_stdout: Vec<String>,
    /// Sessions opened during set-up (pipeline workload).
    pub sessions: Vec<SecureChannel>,
    /// Successful starts, set-up and probes included.
    pub starts_ok: AtomicU64,
    tokens: Mutex<HashSet<[u8; 32]>>,
    serving: Mutex<Vec<JoinHandle<()>>>,
}

impl World {
    /// Sets the deployment up: keys, packaging, policy registration,
    /// serving, warm-up starts, session opening and follower catch-up.
    #[must_use]
    pub fn build(workload: Workload, seed: u64) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let service =
            AttestationService::new(&mut rng, INFRA_KEY_BITS).expect("attestation service");
        let platform = Arc::new(Platform::new(&mut rng));
        service.register_platform(platform.manufacturing_record());
        let qe = Arc::new(
            QuotingEnclave::provision(platform.clone(), &service, &mut rng, INFRA_KEY_BITS)
                .expect("quoting enclave"),
        );
        let network = Network::new();
        let host = SconeHost::new(platform, qe, network.clone());
        let signer_key = RsaPrivateKey::generate(&mut rng, SIGNER_KEY_BITS).expect("signer key");
        let channel_key = RsaPrivateKey::generate(&mut rng, INFRA_KEY_BITS).expect("channel key");
        let attestation_root = service.root_public_key().clone();

        // Seeded inputs: the binary's name and the secret it prints.
        let mut secret = [0u8; 16];
        rng.fill_bytes(&mut secret);
        let greeting: String = secret.iter().map(|b| format!("{b:02x}")).collect();
        let image = ProgramImage::with_entry(
            &format!("bench-{:08x}", rng.next_u32()),
            "secret greeting -> g\nprint $g",
            8,
        )
        .sinclave_aware();
        let packaged = package_app(&image, &signer_key, &SignerConfig::default()).expect("package");
        let config = AppConfig {
            entry: "embedded".into(),
            env: vec![("BENCH_SEED".into(), seed.to_string())],
            secrets: vec![("greeting".into(), greeting.clone().into_bytes())],
            ..AppConfig::default()
        };
        let policy = SessionPolicy {
            config_id: CONFIG_ID.to_owned(),
            expected_common: packaged.signed.common_measurement(),
            expected_mrsigner: signer_key.public_key().fingerprint(),
            min_isv_svn: 0,
            allow_debug: false,
            mode: PolicyMode::Singleton,
            config: config.clone(),
        };

        let primary = new_server(&channel_key, &signer_key, &attestation_root, &policy, &mut rng);
        let serve =
            primary.serve_reactor(&network, CAS_ADDR, UNBOUNDED_CONNECTIONS, rng.next_u64());

        let mut world = World {
            host,
            network,
            primary,
            fleet: None,
            packaged,
            signer_key,
            channel_key,
            attestation_root,
            policy,
            config_bytes: config.to_bytes(),
            expected_stdout: vec![greeting],
            sessions: Vec::new(),
            starts_ok: AtomicU64::new(0),
            tokens: Mutex::new(HashSet::new()),
            serving: Mutex::new(vec![serve]),
        };
        match workload {
            Workload::SingletonStart => world.warm_up(&mut rng),
            Workload::SessionPipeline => {
                world.warm_up(&mut rng);
                for _ in 0..PIPELINE_SESSIONS {
                    let conn = world.network.connect(CAS_ADDR).expect("connect");
                    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("session");
                    for _ in 0..8 {
                        crate::ops::ping(&mut chan).expect("warm-up ping");
                    }
                    world.sessions.push(chan);
                }
            }
            Workload::FleetStart => {
                // The primary carries history before the follower
                // arrives, so catch-up replays a real suffix.
                world.warm_up(&mut rng);
                world.attach_follower(rng.next_u64());
                world.warm_up(&mut rng);
            }
        }
        world
    }

    /// Adds a follower on a fresh store: it subscribes to the primary's
    /// journal stream, forwards writes over a `ForwardLink`, and serves
    /// clients at [`FOLLOWER_ADDR`] once caught up (the wait is timed).
    pub fn attach_follower(&mut self, seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        let follower = new_server(
            &self.channel_key,
            &self.signer_key,
            &self.attestation_root,
            &self.policy,
            &mut rng,
        );
        let repl = serve_replication(&self.primary, &self.network, REPL_ADDR, 8, rng.next_u64());
        let pin = self.channel_key.public_key().fingerprint();
        follower.set_forward_link(Some(ForwardLink::new(
            self.network.clone(),
            REPL_ADDR,
            pin,
            rng.next_u64(),
        )));
        let following = Instant::now();
        let pump = follow(
            follower.clone(),
            self.network.clone(),
            REPL_ADDR.into(),
            rng.next_u64(),
            Backoff::new(Duration::from_millis(2), Duration::from_millis(20)),
        );
        let target = self.primary.journal_sequence();
        wait_until(CATCHUP_DEADLINE, || follower.journal_sequence() >= target)
            .expect("follower catch-up");
        let catchup = following.elapsed();
        let serve = follower.serve_reactor(
            &self.network,
            FOLLOWER_ADDR,
            UNBOUNDED_CONNECTIONS,
            rng.next_u64(),
        );
        self.serving.lock().expect("serving list").extend([repl, serve]);
        self.fleet = Some(Fleet { follower, pump, catchup });
    }

    fn warm_up(&self, rng: &mut StdRng) {
        for _ in 0..WARMUP_STARTS {
            crate::ops::start_once(self, self.client_addr(), rng.next_u64())
                .expect("warm-up start");
        }
    }

    /// The address clients dial: the follower in a fleet.
    #[must_use]
    pub fn client_addr(&self) -> &'static str {
        if self.fleet.is_some() {
            FOLLOWER_ADDR
        } else {
            CAS_ADDR
        }
    }

    /// The server clients talk to.
    #[must_use]
    pub fn serving_node(&self) -> &Arc<CasServer> {
        self.fleet.as_ref().map_or(&self.primary, |f| &f.follower)
    }

    /// Starts another reactor on `addr` for the serving node (default
    /// loop and worker counts); joined at shutdown.
    pub fn serve_extra(&self, addr: &str, seed: u64) {
        let handle =
            self.serving_node().serve_reactor(&self.network, addr, UNBOUNDED_CONNECTIONS, seed);
        self.serving.lock().expect("serving list").push(handle);
    }

    /// Records a redeemed token. A token acknowledged twice breaks the
    /// singleton guarantee the benchmark exists to measure, so the run
    /// aborts instead of counting a failure.
    pub fn record_token(&self, token: [u8; 32]) {
        let fresh = self.tokens.lock().expect("token set").insert(token);
        if !fresh {
            eprintln!("perfbench: ABORT: token acknowledged twice; singleton guarantee broken");
            std::process::exit(4);
        }
        self.starts_ok.fetch_add(1, Ordering::Relaxed);
    }

    /// Drains every serving path and joins its threads.
    pub fn shutdown(mut self) {
        self.sessions.clear();
        if let Some(fleet) = self.fleet.take() {
            let _ = fleet.follower.shutdown();
            fleet.pump.stop();
        }
        let _ = self.primary.shutdown();
        for handle in self.serving.lock().expect("serving list").drain(..) {
            let _ = handle.join();
        }
    }
}

/// A CAS on a fresh store with the modeled flush, the benchmark's
/// middleware and the policy.
fn new_server(
    channel_key: &RsaPrivateKey,
    signer_key: &RsaPrivateKey,
    attestation_root: &RsaPublicKey,
    policy: &SessionPolicy,
    rng: &mut StdRng,
) -> Arc<CasServer> {
    let mut store_key = [0u8; 32];
    rng.fill_bytes(&mut store_key);
    let server = CasServer::new(
        channel_key.clone(),
        signer_key.clone(),
        attestation_root.clone(),
        CasStore::create(AeadKey::new(store_key)),
    );
    server.store().set_flush_latency_micros(FLUSH_MICROS);
    server.set_middleware(middleware());
    server.add_policy(policy.clone()).expect("policy");
    server
}

/// Polls `cond` every millisecond until it holds or `deadline` passes.
///
/// # Errors
///
/// Returns the time waited when the deadline passes first.
pub fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> Result<(), Duration> {
    let start = Instant::now();
    while !cond() {
        if start.elapsed() > deadline {
            return Err(start.elapsed());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    Ok(())
}
