//! The replicated CAS fleet under fire.
//!
//! PR 6 made one CAS fast; this suite makes several of them *one
//! service*. A primary streams its sealed redemption journal to
//! followers ([`sinclave_repro::cas::replica`]); followers replay it
//! idempotently, serve read-mostly traffic locally and linearize
//! writes through the primary; failover is fenced by a durable
//! generation. The harness drives every window the design document
//! worries about — a partitioned stream, a tampered frame, a follower
//! crashing at *every* record boundary, a lagging follower catching
//! up from snapshot + suffix, a deposed primary that comes back —
//! and pins the tentpole invariant throughout: **an acked redemption
//! never replays twice, fleet-wide.**

mod common;

use common::{World, CAS_ADDR, REPL_ADDR, STORE_KEY};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::middleware::MiddlewareConfig;
use sinclave_repro::cas::store::CasStore;
use sinclave_repro::cas::{follow, serve_replication, CasServer, ForwardLink};
use sinclave_repro::core::journal_record::{decode_batch, encode_batch, SequencedRecord};
use sinclave_repro::core::protocol::Message;
use sinclave_repro::core::replication::{ReplicaRole, ReplicationFrame};
use sinclave_repro::core::AttestationToken;
use sinclave_repro::crypto::aead::AeadKey;
use sinclave_repro::fs::Volume;
use sinclave_repro::net::{Backoff, NetError, Network, SecureChannel};
use sinclave_repro::sgx::measurement::Measurement;
use sinclave_repro::sgx::sigstruct::SigStruct;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where followers serve their own clients in these tests.
const FOLLOWER_ADDR: &str = "cas-follower:443";
/// The man-in-the-middle relay's address for partition tests.
const RELAY_ADDR: &str = "cas-relay:7443";

fn world(seed: u64) -> World {
    World::new(
        seed,
        common::victim_interpreter(),
        common::user_config_with_secrets(),
        sinclave_repro::cas::policy::PolicyMode::Either,
    )
}

/// A quick reconnect cadence so partition tests converge fast.
fn fast_backoff() -> Backoff {
    Backoff::new(Duration::from_millis(2), Duration::from_millis(20))
}

/// Polls `cond` until it holds or the suite-wide deadline expires.
fn wait_for(what: &str, mut cond: impl FnMut() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !cond() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// Drives one grant over a fresh secure channel against `addr` and
/// returns the decoded reply (the caller decides what it must be).
fn grant_attempt(w: &World, addr: &str, conn_seed: u64) -> Message {
    let conn = w.network.connect(addr).expect("connect");
    let mut rng = StdRng::seed_from_u64(conn_seed ^ 0x5eed);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    chan.send(
        &Message::GrantRequest {
            common_sigstruct: w.packaged.signed.common_sigstruct.to_bytes(),
            base_hash: w.packaged.signed.base_hash.encode().to_vec(),
        }
        .to_bytes(),
    )
    .expect("send");
    let reply = chan.recv().expect("recv");
    Message::from_bytes(&reply).expect("decode")
}

/// Grants one token through the primary's own serving loop.
fn grant_token(w: &World, conn_seed: u64) -> (AttestationToken, Measurement) {
    let handle = w.serve_cas(1, conn_seed);
    let reply = grant_attempt(w, CAS_ADDR, conn_seed);
    handle.join().expect("serve");
    let Message::GrantResponse { token, sigstruct, .. } = reply else {
        panic!("expected a grant, got {reply:?}");
    };
    let sigstruct = SigStruct::from_bytes(&sigstruct).expect("sigstruct");
    (token, sigstruct.body().enclave_hash)
}

/// Crash-rebuilds a replica from its volume image, exactly as a
/// rebooted follower machine would: reopen the store, replay the
/// locally journaled replication batches.
fn crash_replica(w: &World, replica: &CasServer) -> Arc<CasServer> {
    let image = replica.store().volume().to_disk_image();
    let store =
        CasStore::open(Volume::from_disk_image(&image).expect("image"), AeadKey::new(STORE_KEY))
            .expect("reopen store");
    let rebuilt = CasServer::new(
        w.channel_key.clone(),
        w.signer_key.clone(),
        w.attestation_root.clone(),
        store,
    );
    rebuilt.add_policy(w.policy.clone()).expect("policy");
    rebuilt
}

/// The primary's full journal as individual sequenced records.
fn exported_records(w: &World) -> Vec<SequencedRecord> {
    let recovery = w.cas.store().export_journal_chunks().expect("export");
    let mut records = Vec::new();
    for chunk in recovery.chunks {
        let decoded = decode_batch(&chunk.payload);
        assert!(decoded.damaged.is_none(), "primary journal damaged: {:?}", decoded.damaged);
        records.extend(decoded.records);
    }
    records
}

#[test]
fn follower_adopts_baseline_and_replays_live_commits() {
    // The bread-and-butter path: a follower bootstraps from the
    // primary's baseline, then live grants stream to it within a
    // heartbeat. Its replayed token table matches the primary's.
    let w = world(0xf1ee7);
    let (t1, m1) = grant_token(&w, 10);
    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 4, 0x10);
    let follower = w.new_replica();
    let pump = follow(follower.clone(), w.network.clone(), REPL_ADDR.into(), 0x11, fast_backoff());
    wait_for("baseline adoption", || follower.journal_sequence() == w.cas.journal_sequence());
    assert_eq!(follower.issuer().outstanding_tokens(), 1);

    // Live traffic: one more grant and an acked redemption.
    let (t2, m2) = grant_token(&w, 11);
    w.cas.redeem_token(&t1, &m1).expect("redeem");
    wait_for("live replay", || follower.journal_sequence() == w.cas.journal_sequence());
    assert_eq!(follower.issuer().outstanding_tokens(), 1);
    assert_eq!(follower.issuer().redeemed_tombstones(), 1);
    assert!(follower.is_following());
    assert!(follower.stats.snapshot().replication_records_replayed >= 3);
    // The acked redemption is already un-replayable *on the replica*.
    pump.stop();
    assert!(follower.redeem_token(&t1, &m1).is_err(), "redeemed token replayed on follower");
    // The streamed-but-open token is redeemable exactly once there.
    follower.redeem_token(&t2, &m2).expect("open token redeemable");
    assert!(follower.redeem_token(&t2, &m2).is_err());
}

#[test]
fn lagging_follower_catches_up_from_snapshot_and_suffix() {
    // A follower that arrives late — after the primary has both a
    // snapshot and a journal suffix beyond it — adopts the snapshot
    // baseline and replays only the suffix, ending bit-identical to
    // what the primary's own crash-restart would rebuild.
    let w = world(0x1a66);
    let (t1, m1) = grant_token(&w, 20);
    let (_t2, _m2) = grant_token(&w, 21);
    w.cas.persist_state().expect("persist");
    // Suffix beyond the snapshot: one more grant, one redemption.
    let (_t3, _m3) = grant_token(&w, 22);
    w.cas.redeem_token(&t1, &m1).expect("redeem");

    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 4, 0x20);
    let follower = w.new_replica();
    let pump = follow(follower.clone(), w.network.clone(), REPL_ADDR.into(), 0x21, fast_backoff());
    wait_for("catch-up", || follower.journal_sequence() == w.cas.journal_sequence());
    pump.stop();

    assert_eq!(follower.issuer().outstanding_tokens(), 2);
    assert_eq!(follower.issuer().redeemed_tombstones(), 1);
    // Bit-identity against the primary's own recovery path: a server
    // rebuilt from the primary's volume (snapshot + journal replay)
    // must export exactly the follower's issuer state.
    let control = crash_replica(&w, &w.cas);
    assert_eq!(
        follower.issuer().export_snapshot().to_bytes(),
        control.issuer().export_snapshot().to_bytes(),
        "follower state diverged from snapshot+suffix replay"
    );
}

#[test]
fn follower_crash_mid_replay_at_every_record_boundary() {
    // Sweep: a follower crashes after locally journaling (and
    // applying) exactly `boundary` records, reboots from its volume,
    // and the stream re-delivers everything from the start. The
    // idempotent sequence filter must skip the duplicates, apply the
    // suffix, and land on the exact primary state — for every
    // boundary. No acked redemption is ever redeemable again.
    let w = world(0xc7a5);
    let (t1, m1) = grant_token(&w, 30);
    let (t2, m2) = grant_token(&w, 31);
    let (t3, m3) = grant_token(&w, 32);
    w.cas.redeem_token(&t1, &m1).expect("redeem t1");
    w.cas.redeem_token(&t2, &m2).expect("redeem t2");
    let records = exported_records(&w);
    assert_eq!(records.len(), 5, "3 grants + 2 redemptions");

    for boundary in 0..=records.len() {
        let replica = w.new_replica();
        for record in &records[..boundary] {
            replica.apply_replicated_batch(&encode_batch(&[*record])).expect("apply");
        }
        // Crash and reboot: the locally journaled prefix replays.
        let replica = crash_replica(&w, &replica);
        assert_eq!(replica.journal_sequence(), boundary as u64, "boundary {boundary}");
        // The stream re-delivers from the beginning (a rejoining
        // follower may see overlap); duplicates must be no-ops.
        for record in &records {
            replica.apply_replicated_batch(&encode_batch(&[*record])).expect("reapply");
        }
        assert_eq!(replica.journal_sequence(), records.len() as u64);
        assert_eq!(replica.issuer().redeemed_tombstones(), 2, "boundary {boundary}");
        assert_eq!(replica.issuer().outstanding_tokens(), 1, "boundary {boundary}");
        // Fleet-wide exactly-once: both acked redemptions refuse…
        assert!(replica.redeem_token(&t1, &m1).is_err(), "t1 replayed at boundary {boundary}");
        assert!(replica.redeem_token(&t2, &m2).is_err(), "t2 replayed at boundary {boundary}");
        // …and the open token redeems exactly once, then refuses.
        replica.redeem_token(&t3, &m3).expect("open token");
        assert!(replica.redeem_token(&t3, &m3).is_err(), "double redeem at boundary {boundary}");
    }
}

#[test]
fn torn_batch_payloads_never_corrupt_a_follower() {
    // Every possible truncation of a multi-record batch payload is
    // thrown at one replica, in order. A cut at a record boundary is a
    // legal shorter batch (the clean prefix applies); a cut mid-record
    // must be rejected whole, moving nothing. After the sweep the
    // pristine payload still lands the replica on the primary's exact
    // state.
    let w = world(0x70a2);
    let (t1, m1) = grant_token(&w, 40);
    let (_t2, _m2) = grant_token(&w, 41);
    w.cas.redeem_token(&t1, &m1).expect("redeem");
    let records = exported_records(&w);
    let payload = encode_batch(&records);

    let replica = w.new_replica();
    for cut in 0..payload.len() {
        let before = replica.journal_sequence();
        match replica.apply_replicated_batch(&payload[..cut]) {
            // A record-boundary cut: only the clean prefix advanced.
            Ok(seq) => assert!(seq >= before && seq <= records.len() as u64, "cut {cut}"),
            Err(_) => assert_eq!(replica.journal_sequence(), before, "cut {cut} moved state"),
        }
    }
    assert!(
        replica.stats.snapshot().replication_frames_rejected > 0,
        "no torn payload was ever rejected"
    );
    replica.apply_replicated_batch(&payload).expect("pristine batch");
    let control = crash_replica(&w, &w.cas);
    assert_eq!(
        replica.issuer().export_snapshot().to_bytes(),
        control.issuer().export_snapshot().to_bytes(),
        "torn-payload sweep corrupted the follower"
    );
    assert!(replica.redeem_token(&t1, &m1).is_err(), "acked redemption replayed after sweep");
}

/// Remote-controllable man-in-the-middle between a follower and the
/// primary: forwards opaque secure-channel messages both ways until
/// told to cut (drop both ends mid-stream) or tamper (flip one bit in
/// the next primary→follower message, then hang up).
struct RelayCtl {
    cut: AtomicBool,
    tamper: AtomicBool,
}

fn relay(network: &Network, ctl: Arc<RelayCtl>) -> std::thread::JoinHandle<()> {
    let listener = network.listen(RELAY_ADDR);
    let network = network.clone();
    std::thread::spawn(move || {
        let Ok(client) = listener.accept() else { return };
        let Ok(primary) = network.connect(REPL_ADDR) else { return };
        loop {
            if ctl.cut.load(Ordering::Relaxed) {
                return; // partition: both connections drop
            }
            let mut idle = true;
            match client.try_recv() {
                Ok(m) => {
                    idle = false;
                    if primary.send(m).is_err() {
                        return;
                    }
                }
                Err(NetError::Timeout) => {}
                Err(_) => return,
            }
            match primary.try_recv() {
                Ok(mut m) => {
                    idle = false;
                    if ctl.tamper.swap(false, Ordering::Relaxed) {
                        let last = m.len() - 1;
                        m[last] ^= 0x40; // torn/corrupted ciphertext
                        let _ = client.send(m);
                        return;
                    }
                    if client.send(m).is_err() {
                        return;
                    }
                }
                Err(NetError::Timeout) => {}
                Err(_) => return,
            }
            if idle {
                std::thread::sleep(Duration::from_millis(1));
            }
        }
    })
}

#[test]
fn partitioned_stream_degrades_reconnects_and_catches_up() {
    // Cut the stream mid-flight while the primary keeps committing.
    // The follower must flip to degraded (still serving its last
    // replayed state), back off, reconnect once the partition heals,
    // and converge — with exactly-once intact.
    let w = world(0x9a97);
    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 8, 0x50);
    let ctl = Arc::new(RelayCtl { cut: AtomicBool::new(false), tamper: AtomicBool::new(false) });
    let _mitm = relay(&w.network, ctl.clone());

    let follower = w.new_replica();
    // The follower dials the relay, believing it is the primary.
    let pump = follow(follower.clone(), w.network.clone(), RELAY_ADDR.into(), 0x51, fast_backoff());
    let (t1, m1) = grant_token(&w, 50);
    wait_for("pre-partition replay", || follower.journal_sequence() == w.cas.journal_sequence());
    assert!(!follower.middleware().is_degraded());

    // Partition. Commits keep landing on the primary meanwhile.
    ctl.cut.store(true, Ordering::Relaxed);
    let (t2, m2) = grant_token(&w, 51);
    w.cas.redeem_token(&t1, &m1).expect("redeem during partition");
    wait_for("degraded flag", || follower.middleware().is_degraded());
    // Degraded-but-serving: the last replayed state is still there.
    assert_eq!(follower.issuer().outstanding_tokens(), 1);

    // Heal: new dials to the relay's address reach the primary.
    w.network.adversary_redirect(RELAY_ADDR, REPL_ADDR);
    wait_for("catch-up after heal", || follower.journal_sequence() == w.cas.journal_sequence());
    assert!(!follower.middleware().is_degraded());
    assert!(follower.stats.snapshot().replication_reconnects >= 1);
    pump.stop();
    // Exactly-once held across the partition: the redemption that
    // happened while partitioned is present and final…
    assert!(follower.redeem_token(&t1, &m1).is_err(), "partition replayed a redemption");
    // …and the grant from the partition window arrived intact.
    follower.redeem_token(&t2, &m2).expect("partition-window grant");
    assert!(follower.redeem_token(&t2, &m2).is_err());
    w.network.adversary_clear_redirect(RELAY_ADDR);
}

#[test]
fn tampered_stream_frame_drops_the_session_not_the_state() {
    // One flipped bit in a streamed ciphertext must kill that session
    // (secure-channel integrity), never inject into the replica. The
    // follower reconnects and converges.
    let w = world(0x7a3b);
    let (t1, m1) = grant_token(&w, 60);
    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 8, 0x60);
    let ctl = Arc::new(RelayCtl { cut: AtomicBool::new(false), tamper: AtomicBool::new(false) });
    let _mitm = relay(&w.network, ctl.clone());

    let follower = w.new_replica();
    let pump = follow(follower.clone(), w.network.clone(), RELAY_ADDR.into(), 0x61, fast_backoff());
    wait_for("baseline", || follower.journal_sequence() == w.cas.journal_sequence());

    // Tamper with the next streamed message, then the relay hangs up;
    // future dials go straight to the primary.
    w.network.adversary_redirect(RELAY_ADDR, REPL_ADDR);
    ctl.tamper.store(true, Ordering::Relaxed);
    w.cas.redeem_token(&t1, &m1).expect("redeem");
    let (t2, m2) = grant_token(&w, 62);
    wait_for("reconnect + converge", || follower.journal_sequence() == w.cas.journal_sequence());
    pump.stop();
    assert!(follower.stats.snapshot().replication_reconnects >= 1);
    assert!(follower.redeem_token(&t1, &m1).is_err(), "tampering replayed a redemption");
    follower.redeem_token(&t2, &m2).expect("post-tamper grant");
    w.network.adversary_clear_redirect(RELAY_ADDR);
}

#[test]
fn follower_serves_clients_and_linearizes_writes_through_primary() {
    // A client talks only to the follower: the grant request forwards
    // whole to the primary (admission runs there), the reply
    // relays verbatim, and the committed record streams back to the
    // follower. Reads scale out; writes stay linearized.
    let w = world(0x4f0c);
    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 8, 0x70);
    let follower = w.new_replica();
    let pin = w.channel_key.public_key().fingerprint();
    follower.set_forward_link(Some(ForwardLink::new(w.network.clone(), REPL_ADDR, pin, 0x71)));
    let pump = follow(follower.clone(), w.network.clone(), REPL_ADDR.into(), 0x72, fast_backoff());
    wait_for("baseline", || follower.journal_sequence() == w.cas.journal_sequence());

    let serving = follower.serve_reactor(&w.network, FOLLOWER_ADDR, 1, 0x73);
    let reply = grant_attempt(&w, FOLLOWER_ADDR, 73);
    serving.join().expect("serve");
    assert!(matches!(reply, Message::GrantResponse { .. }), "forwarded grant refused: {reply:?}");
    assert_eq!(follower.stats.snapshot().forwarded_writes, 1);
    // The grant committed on the *primary's* journal…
    assert_eq!(w.cas.stats.snapshot().grants_issued, 1);
    assert_eq!(w.cas.journal_sequence(), 1);
    // …and streamed back to the follower that forwarded it.
    wait_for("grant streams back", || follower.journal_sequence() == 1);
    assert_eq!(follower.issuer().outstanding_tokens(), 1);
    pump.stop();
}

#[test]
fn repeated_forwarded_grants_each_mint_a_fresh_token_on_a_hardened_primary() {
    // Two grant attempts for one binary arrive through a follower with
    // byte-identical request bodies. Each is a separate start that
    // needs its own token, so the hardened primary must issue and
    // journal both instead of replaying the first reply.
    let w = world(0xded);
    w.cas.set_middleware(MiddlewareConfig::hardened());
    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 8, 0x80);
    let follower = w.new_replica();
    let pin = w.channel_key.public_key().fingerprint();
    follower.set_forward_link(Some(ForwardLink::new(w.network.clone(), REPL_ADDR, pin, 0x81)));

    let serving = follower.serve_reactor(&w.network, FOLLOWER_ADDR, 2, 0x82);
    let first = grant_attempt(&w, FOLLOWER_ADDR, 80);
    let second = grant_attempt(&w, FOLLOWER_ADDR, 81);
    serving.join().expect("serve");
    let token = |reply: &Message| match reply {
        Message::GrantResponse { token, .. } => *token,
        other => panic!("grant refused: {other:?}"),
    };
    assert_ne!(token(&first), token(&second), "second start got the first start's token");
    assert_eq!(w.cas.stats.snapshot().grants_issued, 2);
    assert_eq!(w.cas.journal_sequence(), 2, "each grant appends its own journal record");
    assert_eq!(follower.stats.snapshot().forwarded_writes, 2);
}

#[test]
fn stale_primary_is_fenced_and_cannot_double_redeem() {
    // Failover. B catches up, is promoted with a durable fence bump,
    // and the old primary A — partitioned, maybe still serving — is
    // deposed the moment the new fence reaches it: local redemptions
    // refuse, client grants refuse, and a crash-restart from its own
    // volume cannot shed the fence. Exactly-once holds fleet-wide
    // through the whole handover.
    let w = world(0xfe2ce);
    let (t_spent, m_spent) = grant_token(&w, 90);
    let (t_open, m_open) = grant_token(&w, 91);
    w.cas.redeem_token(&t_spent, &m_spent).expect("acked redemption before failover");

    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 8, 0x90);
    let b = w.new_replica();
    let pump = follow(b.clone(), w.network.clone(), REPL_ADDR.into(), 0x91, fast_backoff());
    wait_for("b catches up", || b.journal_sequence() == w.cas.journal_sequence());
    pump.stop();

    // Promotion: one past everything B has seen, committed durably.
    let fence = b.promote().expect("promote");
    assert_eq!(fence, 1);
    assert!(!b.is_fenced(), "new primary fenced itself");

    // The fence reaches A through the real protocol path: a
    // replication hello carrying B's fence.
    let conn = w.network.connect(REPL_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(0x92);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    let hello = ReplicationFrame::Hello {
        role: ReplicaRole::Subscribe,
        last_seq: b.journal_sequence(),
        fence: b.fence_ceiling(),
    };
    chan.send(&hello.to_bytes()).expect("send hello");
    let raw = chan.recv().expect("recv");
    assert!(
        matches!(
            ReplicationFrame::from_bytes(&raw).expect("frame"),
            ReplicationFrame::Fenced { fence: 1 }
        ),
        "deposed primary did not announce the fence"
    );
    assert!(w.cas.is_fenced());

    // A's journal boundary refuses: no local redemption…
    assert!(w.cas.redeem_token(&t_open, &m_open).is_err(), "deposed primary redeemed");
    // …and no client-facing grant.
    let serving = w.serve_cas(1, 93);
    let refused = grant_attempt(&w, CAS_ADDR, 93);
    serving.join().expect("serve");
    assert!(matches!(refused, Message::Denied { .. }), "deposed primary granted: {refused:?}");
    assert!(w.cas.stats.snapshot().writes_fenced >= 2);

    // Exactly-once fleet-wide: the pre-failover acked redemption is
    // final on the new primary…
    assert!(
        b.redeem_token(&t_spent, &m_spent).is_err(),
        "acked redemption replayed after failover"
    );
    // …and the open token redeems exactly once, on B only.
    b.redeem_token(&t_open, &m_open).expect("open token on new primary");
    assert!(b.redeem_token(&t_open, &m_open).is_err());

    // The deposition is durable: A restarted from its own volume
    // (which persisted the observed ceiling) comes back fenced.
    let a_rebuilt = crash_replica(&w, &w.cas);
    assert!(a_rebuilt.is_fenced(), "crash-restart shed the fence");
    assert!(a_rebuilt.redeem_token(&t_open, &m_open).is_err());
}

#[test]
fn hijacked_stream_is_dropped_at_the_fingerprint() {
    // A routing adversary answers the follower's dial, completes the
    // handshake with their own key, and stands ready to feed a forged
    // baseline minting a token of their choosing. Fleet pinning must
    // hang up on the wrong fingerprint before the hello — the forged
    // state never even gets transmitted, and the follower just keeps
    // reconnecting (degraded) until the real primary is reachable.
    let w = world(0x41ac);
    let evil = sinclave_repro::attack::hijack::hijack_replication_stream(
        &w.network,
        "cas-evil:7443",
        *w.cas.identity().as_bytes(),
        *w.signer_key.public_key().fingerprint().as_bytes(),
        0xbad,
    );
    let follower = w.new_replica();
    // Routing compromise: the follower believes the evil address is
    // its primary.
    let pump =
        follow(follower.clone(), w.network.clone(), "cas-evil:7443".into(), 0xa1, fast_backoff());
    wait_for("hijack rejected", || follower.stats.snapshot().replication_frames_rejected >= 1);
    pump.stop();
    let report = evil.join().expect("hijacker");
    assert!(report.handshake_completed, "the channel itself never stops a MITM");
    assert!(!report.hello_received, "follower spoke to a hijacked channel");
    assert!(!report.baseline_delivered);
    // Nothing was adopted: the follower is still empty.
    assert_eq!(follower.journal_sequence(), 0);
    assert_eq!(follower.issuer().token_table_len(), 0);
    let forged = AttestationToken(sinclave_repro::attack::hijack::FORGED_TOKEN);
    let forged_m = Measurement(sinclave_repro::crypto::sha256::Digest(
        sinclave_repro::attack::hijack::FORGED_TOKEN,
    ));
    assert!(follower.redeem_token(&forged, &forged_m).is_err(), "forged token minted");
}

#[test]
fn promoted_follower_matches_the_primary_recovery_bit_for_bit() {
    // The acceptance check on failover fidelity: a promoted follower's
    // issuer state must be byte-identical to what the primary's own
    // snapshot + journal-suffix recovery would rebuild — promotion
    // adds a fence record but must not perturb token state.
    let w = world(0xb17);
    let (t1, m1) = grant_token(&w, 95);
    let (_t2, _m2) = grant_token(&w, 96);
    w.cas.persist_state().expect("persist");
    let (_t3, _m3) = grant_token(&w, 97);
    w.cas.redeem_token(&t1, &m1).expect("redeem");

    let _repl = serve_replication(&w.cas, &w.network, REPL_ADDR, 4, 0x95);
    let b = w.new_replica();
    let pump = follow(b.clone(), w.network.clone(), REPL_ADDR.into(), 0x96, fast_backoff());
    wait_for("catch-up", || b.journal_sequence() == w.cas.journal_sequence());
    pump.stop();
    let high_seq = b.journal_sequence();
    b.promote().expect("promote");
    assert_eq!(b.journal_sequence(), high_seq + 1, "fence record continues the sequence");

    let control = crash_replica(&w, &w.cas);
    assert_eq!(
        b.issuer().export_snapshot().to_bytes(),
        control.issuer().export_snapshot().to_bytes(),
        "promoted follower diverged from the primary's recovery"
    );
    // And the promoted journal replays cleanly on B's own restart —
    // the fence bump itself is crash-proof.
    let b_rebuilt = crash_replica(&w, &b);
    assert_eq!(b_rebuilt.fence(), 1, "fence lost by crash");
    assert_eq!(
        b_rebuilt.issuer().export_snapshot().to_bytes(),
        control.issuer().export_snapshot().to_bytes()
    );
}
