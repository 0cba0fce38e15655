//! Golden transcript of the CAS serving path.
//!
//! A fixed, seeded two-session client script runs against a CAS that
//! serves its connections one at a time, and every decrypted reply is
//! compared byte for byte with `tests/fixtures/serving_golden.hex`. The
//! script covers every reply kind a client can provoke without reading
//! clocks:
//!
//! * session 1 — two grants of one binary, a challenge, the SinClave
//!   attestation that redeems the first grant's token, and a second
//!   attestation presenting the now-spent token (denied);
//! * session 2 — a baseline attestation, an attestation without a
//!   challenge, a malformed frame, a rate-limited refusal, a ping, and
//!   a ping carrying a trace context (the reply echoes it).
//!
//! Status requests are left out: they report uptime and histograms.
//!
//! Everything that feeds the reply bytes is seeded — the world's keys,
//! the per-connection server RNG (`seed + slot`), the clients' RNGs —
//! and the rate limiter never refills, so the transcript is a pure
//! function of the serving code. Any change to what a client observes
//! (dispatch order, RNG consumption, refusal wording, codec layout)
//! fails this test.
//!
//! # Regenerating the fixture
//!
//! Only after a *deliberate* change to the bytes a client sees: run
//! `cargo test --test serving_golden`. The failing run writes the
//! observed transcript to `serving_golden.hex` in cargo's per-target
//! scratch directory (`target/tmp/`) and names the path in its panic
//! message. Review the difference with `diff`, then copy the file over
//! `tests/fixtures/serving_golden.hex` and commit it together with the
//! change that explains it.

mod common;

use common::{World, CAS_ADDR, CONFIG_ID};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::PolicyMode;
use sinclave_repro::cas::{MiddlewareConfig, RateLimitConfig};
use sinclave_repro::core::instance_page::InstancePage;
use sinclave_repro::core::protocol::{Message, TraceContext};
use sinclave_repro::core::AttestationToken;
use sinclave_repro::crypto::sha256::Digest;
use sinclave_repro::net::SecureChannel;
use sinclave_repro::runtime::ProgramImage;
use sinclave_repro::sgx::attributes::Attributes;
use sinclave_repro::sgx::enclave::Enclave;
use sinclave_repro::sgx::report::ReportData;
use sinclave_repro::sgx::sigstruct::SigStruct;

/// The committed transcript: one `<label> <hex>` line per reply.
const GOLDEN: &str = include_str!("fixtures/serving_golden.hex");

/// Server seed; connection slot `i` draws from `SERVER_SEED + i`.
const SERVER_SEED: u64 = 0x901d;

/// The trace context session 2's last ping carries.
const TRACE: TraceContext = TraceContext { trace_id: [0x7c; 16], hop: 0, flags: 0 };

/// A client session that records every decrypted reply under a label.
struct Session<'w> {
    world: &'w World,
    chan: SecureChannel,
    replies: &'w mut Vec<(String, Vec<u8>)>,
}

impl Session<'_> {
    /// Sends `frame` as-is and records the raw reply bytes.
    fn exchange(&mut self, label: &str, frame: &[u8]) -> Message {
        self.chan.send(frame).expect("send");
        let reply = self.chan.recv().expect("recv");
        let (message, _) = Message::from_bytes_traced(&reply).expect("reply decodes");
        self.replies.push((label.to_owned(), reply));
        message
    }

    fn request(&mut self, label: &str, message: &Message) -> Message {
        self.exchange(label, &message.to_bytes())
    }

    fn grant(&mut self, label: &str) -> Message {
        let signed = &self.world.packaged.signed;
        self.request(
            label,
            &Message::GrantRequest {
                common_sigstruct: signed.common_sigstruct.to_bytes(),
                base_hash: signed.base_hash.encode().to_vec(),
            },
        )
    }

    /// Requests a challenge and quotes `enclave`'s report over it,
    /// bound to this channel.
    fn challenge_and_quote(&mut self, label: &str, enclave: &Enclave) -> Vec<u8> {
        let Message::Challenge { nonce } = self.request(label, &Message::ChallengeRequest) else {
            panic!("{label}: expected a challenge");
        };
        let qe = &self.world.host.qe;
        let report =
            enclave.ereport(&qe.target_info(), ReportData::from_digest(&self.chan.transcript()));
        qe.quote(&report, nonce).expect("quote").to_bytes()
    }
}

/// Runs the script against a CAS already serving two connections on
/// [`CAS_ADDR`] and returns the labelled replies.
fn run_script(world: &World) -> Vec<(String, Vec<u8>)> {
    let mut replies = Vec::new();
    let connect = |seed: u64| {
        let conn = world.network.connect(CAS_ADDR).expect("connect");
        SecureChannel::client_connect(conn, &mut StdRng::seed_from_u64(seed)).expect("handshake")
    };

    // Session 1: grant twice, redeem the first token, reuse it.
    let mut s1 = Session { world, chan: connect(0x9011), replies: &mut replies };
    let Message::GrantResponse { token, verifier_identity, sigstruct } = s1.grant("s1-grant-1")
    else {
        panic!("first grant refused");
    };
    s1.grant("s1-grant-2");
    let page = InstancePage::new(token, Digest(verifier_identity));
    let singleton = world
        .host
        .build_enclave(
            &world.packaged,
            &page.to_page_bytes(),
            &SigStruct::from_bytes(&sigstruct).expect("granted sigstruct"),
            Attributes::production(),
        )
        .expect("singleton enclave");
    let attest = |quote: Vec<u8>, token: AttestationToken| Message::AttestRequest {
        quote,
        token,
        config_id: CONFIG_ID.into(),
    };
    let quote = s1.challenge_and_quote("s1-challenge-1", &singleton);
    s1.request("s1-attest-redeem", &attest(quote, token));
    let quote = s1.challenge_and_quote("s1-challenge-2", &singleton);
    s1.request("s1-attest-spent-token", &attest(quote, token));
    drop(s1);

    // Session 2: baseline attestation and the refusal paths.
    let mut s2 = Session { world, chan: connect(0x9012), replies: &mut replies };
    let common = world
        .host
        .build_enclave(
            &world.packaged,
            &InstancePage::common_page(),
            &world.packaged.signed.common_sigstruct,
            Attributes::production(),
        )
        .expect("common enclave");
    let baseline =
        |quote: Vec<u8>| Message::BaselineAttestRequest { quote, config_id: CONFIG_ID.into() };
    let quote = s2.challenge_and_quote("s2-challenge-3", &common);
    s2.request("s2-attest-baseline", &baseline(quote.clone()));
    s2.request("s2-attest-no-challenge", &baseline(quote.clone()));
    s2.exchange("s2-malformed", &[0xff, 0x00, 0x13]);
    // The config id's bucket held four attestations (two per session);
    // this is the fifth.
    s2.request("s2-challenge-4", &Message::ChallengeRequest);
    s2.request("s2-rate-limited", &baseline(quote));
    s2.request("s2-ping", &Message::Ping);
    s2.exchange("s2-ping-traced", &Message::Ping.to_bytes_traced(Some(&TRACE)));
    drop(s2);
    replies
}

fn world() -> World {
    let image = ProgramImage::with_entry("svc", "print ok", 2).sinclave_aware();
    let world = World::new(0x9010, image, common::user_config_with_secrets(), PolicyMode::Either);
    // Four admissions per identity, never refilled: the script's fifth
    // attestation is refused without reading a clock.
    world.cas.set_middleware(MiddlewareConfig {
        rate_limit: Some(RateLimitConfig { burst: 4, per_second: 0 }),
        ..MiddlewareConfig::default()
    });
    // Lit tracing must not change untraced replies; the traced ping
    // gets its context echoed.
    world.cas.tracer().set_enabled(true);
    world
}

fn render(replies: &[(String, Vec<u8>)]) -> String {
    let mut out = String::from(
        "# Decrypted CAS replies of the golden serving script (tests/serving_golden.rs).\n",
    );
    for (label, bytes) in replies {
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        out.push_str(&format!("{label} {hex}\n"));
    }
    out
}

/// Compares the observed transcript with the fixture; on mismatch
/// writes the observed one next to the build output (see the module
/// docs) and names the first differing reply.
fn assert_golden(replies: &[(String, Vec<u8>)]) {
    let observed = render(replies);
    if observed == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("serving_golden.hex");
    std::fs::write(&path, &observed).expect("write observed transcript");
    let first = observed
        .lines()
        .zip(GOLDEN.lines())
        .find(|(seen, want)| seen != want)
        .map_or("(line count differs)", |(seen, _)| seen.split(' ').next().unwrap_or(""));
    panic!(
        "serving transcript diverged from tests/fixtures/serving_golden.hex at `{first}`; \
         observed transcript written to {}",
        path.display()
    );
}

#[test]
fn golden_transcript_on_a_single_loop_reactor() {
    let world = world();
    let serving = world.cas.serve_reactor_with(&world.network, CAS_ADDR, 2, SERVER_SEED, 1, 1);
    let replies = run_script(&world);
    serving.join().expect("serve");
    assert_golden(&replies);
}
