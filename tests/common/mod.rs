#![allow(dead_code)] // shared across test targets; not all use every helper

//! Shared fixture for cross-crate integration tests: a complete world
//! with attestation infrastructure, a platform, a quoting enclave, a
//! real CAS, and a packaged victim application.

use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::{PolicyMode, SessionPolicy};
use sinclave_repro::cas::store::CasStore;
use sinclave_repro::cas::witness::SealedWitness;
use sinclave_repro::cas::{CasServer, Health};
use sinclave_repro::core::signer::SignerConfig;
use sinclave_repro::core::AppConfig;
use sinclave_repro::crypto::aead::AeadKey;
use sinclave_repro::crypto::rsa::RsaPrivateKey;
use sinclave_repro::fs::Volume;
use sinclave_repro::net::Network;
use sinclave_repro::runtime::scone::{package_app, PackagedApp, SconeHost};
use sinclave_repro::runtime::ProgramImage;
use sinclave_repro::sgx::attestation::AttestationService;
use sinclave_repro::sgx::platform::Platform;
use sinclave_repro::sgx::quote::QuotingEnclave;
use std::sync::Arc;

/// The real CAS's address in every test world.
pub const CAS_ADDR: &str = "cas:443";
/// The user's configuration id.
pub const CONFIG_ID: &str = "user-app";
/// Key protecting the CAS store's encrypted volume in every world.
pub const STORE_KEY: [u8; 32] = [0x42; 32];
/// Key protecting the rollback witness's own (separate) volume.
pub const WITNESS_KEY: [u8; 32] = [0x57; 32];
/// The primary's replication address in fleet tests.
pub const REPL_ADDR: &str = "cas-repl:7443";
/// The plaintext status endpoint's address in operability tests.
pub const STATUS_ADDR: &str = "cas-status:9443";

pub struct World {
    pub host: SconeHost,
    pub cas: Arc<CasServer>,
    pub network: Network,
    pub packaged: PackagedApp,
    pub signer_key: RsaPrivateKey,
    pub channel_key: RsaPrivateKey,
    pub attestation_root: sinclave_repro::crypto::rsa::RsaPublicKey,
    /// The session policy registered at build time; fleet tests
    /// provision it onto follower replicas too (policies are
    /// configuration, not journaled state — they do not replicate).
    pub policy: SessionPolicy,
    /// The rollback witness the deployment keeps *outside* the CAS
    /// volume: a sealed monotonic `(generation, journal sequence)`
    /// counter in its **own** encrypted volume, advanced after each
    /// graceful persist and handed to `CasServer::check_rollback`
    /// after a restore. Separation is the point — a host must roll
    /// back both volumes consistently to silence the alarm.
    pub witness: SealedWitness,
}

impl World {
    /// Builds a world around `image`, registering a policy that
    /// delivers `config` under the given mode.
    pub fn new(seed: u64, image: ProgramImage, config: AppConfig, mode: PolicyMode) -> World {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = AttestationService::new(&mut rng, 1024).expect("attestation service");
        let platform = Arc::new(Platform::new(&mut rng));
        service.register_platform(platform.manufacturing_record());
        let qe = Arc::new(
            QuotingEnclave::provision(platform.clone(), &service, &mut rng, 1024)
                .expect("qe provision"),
        );
        let network = Network::new();
        let host = SconeHost::new(platform, qe, network.clone());

        let signer_key = RsaPrivateKey::generate(&mut rng, 1024).expect("signer key");
        let packaged = package_app(&image, &signer_key, &SignerConfig::default()).expect("package");

        let channel_key = RsaPrivateKey::generate(&mut rng, 1024).expect("channel key");
        let store = CasStore::create(AeadKey::new(STORE_KEY));
        let cas = CasServer::new(
            channel_key.clone(),
            signer_key.clone(),
            service.root_public_key().clone(),
            store,
        );
        let policy = SessionPolicy {
            config_id: CONFIG_ID.to_owned(),
            expected_common: packaged.signed.common_measurement(),
            expected_mrsigner: signer_key.public_key().fingerprint(),
            min_isv_svn: 0,
            allow_debug: false,
            mode,
            config,
        };
        cas.add_policy(policy.clone()).expect("policy");

        World {
            host,
            cas,
            network,
            packaged,
            signer_key,
            channel_key,
            attestation_root: service.root_public_key().clone(),
            policy,
            witness: SealedWitness::create(AeadKey::new(WITNESS_KEY)),
        }
    }

    /// Spawns the CAS serving `connections` connections with the
    /// default event-loop and compute-worker counts.
    pub fn serve_cas(&self, connections: usize, seed: u64) -> std::thread::JoinHandle<()> {
        self.cas.serve_reactor(&self.network, CAS_ADDR, connections, seed)
    }

    /// Gracefully restarts the CAS: persist its durable state, drop
    /// the server, and rebuild one from the *same volume bytes* (a
    /// disk-image round trip, exactly what a redeploy sees). The new
    /// server holds the same keys and identity; whatever state was
    /// persisted comes back through the snapshot-restore path.
    pub fn restart_cas(&mut self) {
        self.cas.persist_state().expect("persist state");
        self.witness
            .advance(self.cas.restore_generation(), self.cas.journal_sequence())
            .expect("advance witness");
        // Round-trip the witness through *its own* disk image too — a
        // restart reopens both volumes, and they must stay separable.
        let witness_image = self.witness.volume().to_disk_image();
        self.witness = SealedWitness::open(
            Volume::from_disk_image(&witness_image).expect("witness image"),
            AeadKey::new(WITNESS_KEY),
        )
        .expect("reopen witness");
        let image = self.cas.store().volume().to_disk_image();
        self.rebuild_cas_from_image(&image);
        // A graceful restart restores the image just written; the
        // freshness check against the external witness must pass.
        let mark = self.witness.read().expect("read witness");
        assert!(!self.cas.check_rollback(mark.generation, mark.sequence), "false rollback alarm");
    }

    /// Builds a follower replica for the fleet tests: a fresh CAS on
    /// its own empty store but sharing this world's channel key,
    /// signer key, and attestation root (snapshot adoption checks the
    /// verifier identity, so a fleet is one identity on many
    /// machines), with the same session policy provisioned out of
    /// band (policies are configuration — they are not journaled and
    /// do not replicate).
    pub fn new_replica(&self) -> Arc<CasServer> {
        let store = CasStore::create(AeadKey::new(STORE_KEY));
        let replica = CasServer::new(
            self.channel_key.clone(),
            self.signer_key.clone(),
            self.attestation_root.clone(),
            store,
        );
        replica.add_policy(self.policy.clone()).expect("replica policy");
        replica
    }

    /// Spawns the plaintext status endpoint serving up to `probes`
    /// probe connections.
    pub fn serve_status(&self, probes: usize) -> std::thread::JoinHandle<()> {
        sinclave_repro::cas::serve_status(&self.cas, &self.network, STATUS_ADDR, probes)
    }

    /// One status probe: connect to the status endpoint, send `view`
    /// as a raw frame, return the rendered body.
    pub fn probe_view(&self, view: &str) -> String {
        let conn = self.network.connect(STATUS_ADDR).expect("status endpoint reachable");
        conn.send(view.as_bytes().to_vec()).expect("send view name");
        String::from_utf8(conn.recv().expect("status body")).expect("utf-8 status body")
    }

    /// Probes the `health` view and parses the verdict line.
    pub fn probe_health(&self) -> Health {
        let body = self.probe_view("health");
        let verdict = body
            .lines()
            .find_map(|line| line.strip_prefix("status: "))
            .unwrap_or_else(|| panic!("no verdict line in health view:\n{body}"));
        match verdict {
            "healthy" => Health::Healthy,
            "degraded" => Health::Degraded,
            "fail-closed" => Health::FailClosed,
            other => panic!("unknown health verdict {other:?}"),
        }
    }

    /// The deployment's startup probe, mirroring an enclave runtime's
    /// `/healthz` contract: a controller checks health before routing
    /// traffic, and **refuses to drive a fail-closed server**. Returns
    /// the full health body on refusal so the operator sees why.
    pub fn startup_probe(&self) -> Result<Health, String> {
        match self.probe_health() {
            Health::FailClosed => Err(self.probe_view("health")),
            verdict => Ok(verdict),
        }
    }

    /// Crash-restarts the CAS from an explicit volume image — used by
    /// fault-injection tests that interrupt or corrupt the volume
    /// between persist and rebuild. Does *not* persist first: whatever
    /// the image holds is what the "rebooted machine" finds on disk.
    pub fn rebuild_cas_from_image(&mut self, image: &[u8]) {
        let volume = Volume::from_disk_image(image).expect("volume image");
        let store = CasStore::open(volume, AeadKey::new(STORE_KEY)).expect("open store");
        self.cas = CasServer::new(
            self.channel_key.clone(),
            self.signer_key.clone(),
            self.attestation_root.clone(),
            store,
        );
    }
}

/// The canonical user secrets every attack test tries to steal.
pub fn user_config_with_secrets() -> AppConfig {
    AppConfig {
        entry: "embedded".into(),
        env: vec![("DEPLOYMENT".into(), "production".into())],
        secrets: vec![
            ("db-password".into(), b"correct horse battery staple".to_vec()),
            ("api-key".into(), b"sk-live-0123456789".to_vec()),
        ],
        ..AppConfig::default()
    }
}

/// A victim interpreter image (baseline flavor).
pub fn victim_interpreter() -> ProgramImage {
    ProgramImage::interpreter("python-3.8", 8)
}
