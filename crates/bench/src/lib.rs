//! Shared fixtures for the figure-reproduction benchmarks.
//!
//! Every bench and the `experiments` harness build their worlds
//! through this module so that Criterion runs and the printed
//! paper-vs-measured tables measure exactly the same code paths.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave::signer::SignerConfig;
use sinclave::AppConfig;
use sinclave_cas::policy::{PolicyMode, SessionPolicy};
use sinclave_cas::store::CasStore;
use sinclave_cas::CasServer;
use sinclave_crypto::aead::AeadKey;
use sinclave_crypto::rsa::{RsaPrivateKey, RsaPublicKey};
use sinclave_net::Network;
use sinclave_runtime::scone::{package_app, PackagedApp, SconeHost};
use sinclave_runtime::ProgramImage;
use sinclave_sgx::attestation::AttestationService;
use sinclave_sgx::platform::Platform;
use sinclave_sgx::quote::QuotingEnclave;
use std::sync::Arc;

/// RSA modulus size used for the signer key, matching the paper's
/// SGX SigStruct RSA-3072.
pub const SIGNER_KEY_BITS: usize = 3072;
/// Smaller keys for infrastructure whose latency is not under test.
pub const INFRA_KEY_BITS: usize = 1024;

/// A complete benchmark world.
pub struct BenchWorld {
    /// The machine.
    pub host: SconeHost,
    /// The verifier.
    pub cas: Arc<CasServer>,
    /// The network.
    pub network: Network,
    /// The signer key (RSA-3072).
    pub signer_key: RsaPrivateKey,
    /// The fleet channel key (shared by every replica; its fingerprint
    /// is the replication pin).
    pub channel_key: RsaPrivateKey,
    /// The attestation service's root public key.
    pub attestation_root: RsaPublicKey,
}

impl BenchWorld {
    /// Builds a world with an RSA-3072 signer and a large EPC.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = AttestationService::new(&mut rng, INFRA_KEY_BITS).expect("service");
        // 4 GiB EPC so Fig. 8's heap sweep fits.
        let platform = Arc::new(Platform::with_epc_pages(&mut rng, 4 << 30 >> 12));
        service.register_platform(platform.manufacturing_record());
        let qe = Arc::new(
            QuotingEnclave::provision(platform.clone(), &service, &mut rng, INFRA_KEY_BITS)
                .expect("qe"),
        );
        let network = Network::new();
        let host = SconeHost::new(platform, qe, network.clone());

        let signer_key = RsaPrivateKey::generate(&mut rng, SIGNER_KEY_BITS).expect("signer key");
        let channel_key = RsaPrivateKey::generate(&mut rng, INFRA_KEY_BITS).expect("channel");
        let attestation_root = service.root_public_key().clone();
        let cas = CasServer::new(
            channel_key.clone(),
            signer_key.clone(),
            attestation_root.clone(),
            CasStore::create(AeadKey::new([0xbe; 32])),
        );
        BenchWorld { host, cas, network, signer_key, channel_key, attestation_root }
    }

    /// Builds a follower replica on a fresh store, sharing the fleet's
    /// channel key, signer key and attestation root.
    #[must_use]
    pub fn new_replica(&self) -> Arc<CasServer> {
        CasServer::new(
            self.channel_key.clone(),
            self.signer_key.clone(),
            self.attestation_root.clone(),
            CasStore::create(AeadKey::new([0xbf; 32])),
        )
    }

    /// Packages an image under the world's signer.
    #[must_use]
    pub fn package(&self, image: &ProgramImage) -> PackagedApp {
        package_app(image, &self.signer_key, &SignerConfig::default()).expect("package")
    }

    /// Registers a policy delivering `config` for `config_id`.
    pub fn add_policy(
        &self,
        config_id: &str,
        packaged: &PackagedApp,
        mode: PolicyMode,
        config: AppConfig,
    ) {
        self.cas
            .add_policy(SessionPolicy {
                config_id: config_id.to_owned(),
                expected_common: packaged.signed.common_measurement(),
                expected_mrsigner: self.signer_key.public_key().fingerprint(),
                min_isv_svn: 0,
                allow_debug: false,
                mode,
                config,
            })
            .expect("policy");
    }
}

/// Client threads [`fan_in_burst`] multiplexes its connections over —
/// deliberately few, so huge fan-ins don't cost one OS thread per
/// client and the interesting thread budget is the *server's*.
pub const FAN_IN_CLIENT_THREADS: usize = 8;

/// Drives `connections` mostly-idle concurrent sessions against a CAS
/// at `addr`: every session handshakes, then sends `pings` pings (each
/// awaited) interleaved across its thread's whole batch, and every
/// session stays open until the batch finishes — so at any moment most
/// connections are idle, the high-fan-in regime the reactor exists
/// for. The CAS serves them from a reactor with `loops` event loops
/// and `compute` compute workers. Callers should install generous
/// middleware timeouts first (idle sessions are the point, reaping
/// them isn't).
pub fn fan_in_burst(
    world: &BenchWorld,
    addr: &str,
    connections: usize,
    pings: usize,
    loops: usize,
    compute: usize,
    seed: u64,
) {
    use sinclave::protocol::Message;
    use sinclave_net::SecureChannel;

    let server =
        world.cas.serve_reactor_with(&world.network, addr, connections, seed, loops, compute);
    let threads = FAN_IN_CLIENT_THREADS.min(connections.max(1));
    std::thread::scope(|scope| {
        for t in 0..threads {
            scope.spawn(move || {
                let quota = connections / threads + usize::from(t < connections % threads);
                let mut rng = StdRng::seed_from_u64(seed ^ 0xfa9 ^ ((t as u64) << 32));
                let mut chans = Vec::with_capacity(quota);
                for _ in 0..quota {
                    let conn = world.network.connect(addr).expect("connect");
                    // Only the server's deadlines are under test;
                    // clients wait out crypto serialization patiently.
                    conn.set_recv_timeout(Some(std::time::Duration::from_secs(600)));
                    chans.push(SecureChannel::client_connect(conn, &mut rng).expect("handshake"));
                }
                for _ in 0..pings {
                    for chan in &mut chans {
                        chan.send(&Message::Ping.to_bytes()).expect("send");
                    }
                    for chan in &mut chans {
                        let reply =
                            Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
                        assert_eq!(reply, Message::Pong);
                    }
                }
            });
        }
    });
    server.join().expect("serve");
}

/// Formats a byte count like the paper's axes (2 KB, 1 MB, …).
#[must_use]
pub fn human_size(bytes: usize) -> String {
    if bytes >= 1 << 20 {
        format!("{} MB", bytes >> 20)
    } else {
        format!("{} KB", bytes >> 10)
    }
}

/// A deterministic pseudo-random buffer for hashing benchmarks.
#[must_use]
pub fn hash_buffer(len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len);
    let mut x = 0x12345678_9abcdef0u64;
    while out.len() < len {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        out.extend_from_slice(&x.to_le_bytes());
    }
    out.truncate(len);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_buffer_is_deterministic() {
        assert_eq!(hash_buffer(100), hash_buffer(100));
        assert_eq!(hash_buffer(100).len(), 100);
    }

    #[test]
    fn human_sizes() {
        assert_eq!(human_size(2048), "2 KB");
        assert_eq!(human_size(8 << 20), "8 MB");
    }
}
