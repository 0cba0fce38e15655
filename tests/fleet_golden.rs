//! Golden transcript of the primary's fleet-facing listeners.
//!
//! A fixed, seeded script drives a primary's replication and status
//! listeners from the outside, playing every peer role by hand, and
//! compares each decrypted replication frame and each probe reply
//! byte for byte with `tests/fixtures/fleet_golden.hex`:
//!
//! * **forwarder** — a `Forward` hello and its ack, three forwarded
//!   grants, the redemption of the first grant's token, the same
//!   redemption again (spent), and a malformed frame;
//! * **subscriber** — a `Subscribe` hello and its baseline (a
//!   checkpoint plus a journal suffix), then the `Records` frames of
//!   the two grants and the redemption that follow it (heartbeats are
//!   skipped: how many arrive depends on timing);
//! * **fencing** — a hello carrying a higher fence, answered `Fenced`;
//!   the deposed primary then tells its subscriber and its forwarder;
//! * **status probes** — an unknown view, and the `health` view with
//!   its `uptime_seconds` and `build` lines removed (the first reads a
//!   clock, the second names the commit the binary was built from).
//!
//! Everything that feeds the frames is seeded — the world's keys, the
//! per-connection server RNG (`seed + slot`), the peers' RNGs — so the
//! transcript is a pure function of the serving code.
//!
//! # Regenerating the fixture
//!
//! As for `tests/serving_golden.rs`: only after a *deliberate* change
//! to the bytes a peer sees, run `cargo test --test fleet_golden`, diff
//! the observed transcript the failing run writes to `target/tmp/`
//! against the fixture, and copy it over.

mod common;

use common::{World, REPL_ADDR, STATUS_ADDR};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::PolicyMode;
use sinclave_repro::cas::{serve_replication, serve_status};
use sinclave_repro::core::protocol::Message;
use sinclave_repro::core::replication::{ReplicaRole, ReplicationFrame};
use sinclave_repro::net::{Connection, SecureChannel};
use sinclave_repro::sgx::sigstruct::SigStruct;

/// The committed transcript: one `<label> <hex>` line per reply.
const GOLDEN: &str = include_str!("fixtures/fleet_golden.hex");

/// Replication listener seed; session slot `i` draws from
/// `SERVER_SEED + i`.
const SERVER_SEED: u64 = 0xf1ee;

/// The fence the deposing hello presents.
const HIGHER_FENCE: u64 = 5;

type Transcript = Vec<(String, Vec<u8>)>;

/// Opens a replication session and sends its hello.
fn hello(world: &World, seed: u64, role: ReplicaRole, fence: u64) -> SecureChannel {
    let conn = world.network.connect(REPL_ADDR).expect("connect");
    let mut chan =
        SecureChannel::client_connect(conn, &mut StdRng::seed_from_u64(seed)).expect("handshake");
    chan.send(&ReplicationFrame::Hello { role, last_seq: 0, fence }.to_bytes()).expect("hello");
    chan
}

/// Receives one frame and records it under `label`.
fn record(chan: &mut SecureChannel, out: &mut Transcript, label: &str) -> ReplicationFrame {
    let raw = chan.recv().expect("recv");
    let frame = ReplicationFrame::from_bytes(&raw).expect("frame decodes");
    out.push((label.to_owned(), raw));
    frame
}

/// Sends `frame` and records the reply under `label`.
fn exchange(
    chan: &mut SecureChannel,
    out: &mut Transcript,
    label: &str,
    frame: &[u8],
) -> ReplicationFrame {
    chan.send(frame).expect("send");
    record(chan, out, label)
}

/// Records the subscriber's next frame that is not a heartbeat.
fn next_streamed(chan: &mut SecureChannel, out: &mut Transcript, label: &str) {
    loop {
        let raw = chan.recv().expect("recv");
        let frame = ReplicationFrame::from_bytes(&raw).expect("frame decodes");
        if !matches!(frame, ReplicationFrame::Heartbeat { .. }) {
            out.push((label.to_owned(), raw));
            return;
        }
    }
}

/// Sends one view name on the probe connection and returns the body.
fn probe(conn: &Connection, view: &str) -> String {
    conn.send(view.as_bytes().to_vec()).expect("probe send");
    String::from_utf8(conn.recv().expect("probe recv")).expect("utf-8 body")
}

/// Runs the script against `world`'s primary and returns the labelled
/// replies.
fn run_script(world: &World) -> Transcript {
    let mut out = Transcript::new();
    let grant = ReplicationFrame::Forward {
        request: Message::GrantRequest {
            common_sigstruct: world.packaged.signed.common_sigstruct.to_bytes(),
            base_hash: world.packaged.signed.base_hash.encode().to_vec(),
        }
        .to_bytes(),
        ctx: None,
    }
    .to_bytes();

    // Slot 0: the forwarder. Its first grant lands before the
    // subscriber arrives and is folded into a checkpoint, so the
    // baseline carries both a snapshot and a journal suffix.
    let mut fwd = hello(world, 0xf0, ReplicaRole::Forward, 0);
    record(&mut fwd, &mut out, "fwd-hello-ack");
    let ReplicationFrame::Reply { response, .. } =
        exchange(&mut fwd, &mut out, "fwd-grant-1", &grant)
    else {
        panic!("first forwarded grant refused");
    };
    let Message::GrantResponse { token, sigstruct, .. } =
        Message::from_bytes(&response).expect("grant reply decodes")
    else {
        panic!("first forwarded grant denied");
    };
    let mrenclave = SigStruct::from_bytes(&sigstruct).expect("sigstruct").body().enclave_hash;
    world.cas.persist_state().expect("checkpoint");

    // Slot 1: the subscriber.
    let mut sub = hello(world, 0xf1, ReplicaRole::Subscribe, 0);
    record(&mut sub, &mut out, "sub-baseline");

    exchange(&mut fwd, &mut out, "fwd-grant-2", &grant);
    exchange(&mut fwd, &mut out, "fwd-grant-3", &grant);
    let redeem =
        ReplicationFrame::Redeem { token: *token.as_bytes(), mrenclave: *mrenclave.as_bytes() }
            .to_bytes();
    exchange(&mut fwd, &mut out, "fwd-redeem", &redeem);
    exchange(&mut fwd, &mut out, "fwd-redeem-spent", &redeem);
    exchange(&mut fwd, &mut out, "fwd-malformed", &[0xff, 0x00, 0x13]);
    for label in ["sub-records-grant-2", "sub-records-grant-3", "sub-records-redeem"] {
        next_streamed(&mut sub, &mut out, label);
    }

    // Slot 2: a peer that has seen a higher fence deposes the primary.
    let mut deposer = hello(world, 0xf2, ReplicaRole::Subscribe, HIGHER_FENCE);
    record(&mut deposer, &mut out, "fence-hello-fenced");
    next_streamed(&mut sub, &mut out, "sub-fenced");
    exchange(&mut fwd, &mut out, "fwd-redeem-fenced", &redeem);
    drop((fwd, sub, deposer));

    let probe_conn = world.network.connect(STATUS_ADDR).expect("status endpoint");
    out.push(("status-unknown-view".to_owned(), probe(&probe_conn, "bogus").into_bytes()));
    let health: String = probe(&probe_conn, "health")
        .lines()
        .filter(|line| !line.starts_with("uptime_seconds:") && !line.starts_with("build:"))
        .map(|line| format!("{line}\n"))
        .collect();
    out.push(("status-health".to_owned(), health.into_bytes()));
    out
}

fn render(replies: &[(String, Vec<u8>)]) -> String {
    let mut out = String::from(
        "# Decrypted replication frames and status replies of the golden fleet script \
         (tests/fleet_golden.rs).\n",
    );
    for (label, bytes) in replies {
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        out.push_str(&format!("{label} {hex}\n"));
    }
    out
}

/// Compares the observed transcript with the fixture; on mismatch
/// writes the observed one next to the build output and names the
/// first differing reply.
fn assert_golden(replies: &[(String, Vec<u8>)]) {
    let observed = render(replies);
    if observed == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("fleet_golden.hex");
    std::fs::write(&path, &observed).expect("write observed transcript");
    let first = observed
        .lines()
        .zip(GOLDEN.lines())
        .find(|(seen, want)| seen != want)
        .map_or("(line count differs)", |(seen, _)| seen.split(' ').next().unwrap_or(""));
    panic!(
        "fleet transcript diverged from tests/fixtures/fleet_golden.hex at `{first}`; \
         observed transcript written to {}",
        path.display()
    );
}

#[test]
fn golden_fleet_transcript_of_the_primary_listeners() {
    let world = World::new(
        0xf1e0,
        common::victim_interpreter(),
        common::user_config_with_secrets(),
        PolicyMode::Either,
    );
    let replication = serve_replication(&world.cas, &world.network, REPL_ADDR, 3, SERVER_SEED);
    let status = serve_status(&world.cas, &world.network, STATUS_ADDR, 1);
    let replies = run_script(&world);
    world.cas.shutdown().expect("shutdown");
    replication.join().expect("replication listener");
    status.join().expect("status listener");
    assert_golden(&replies);
}
