//! Durable attestation state across CAS restarts.
//!
//! PR 3's verified-SigStruct cache made repeat grants ~160x cheaper —
//! per process. These tests pin down the restart story: a gracefully
//! restarted CAS rebuilt from the *same encrypted volume bytes* must
//! come up warm (no re-run of the ~0.4 ms RSA verification, grants
//! bit-identical to an undisturbed instance), exactly-once token
//! redemption must hold *across* the restart, and every way a snapshot
//! can be damaged — bit flips, truncation, future versions, torn
//! mid-write chunks — must degrade to a clean cold start: no panic, no
//! partially admitted state, `CasStats::snapshot_rejected` counted.

mod common;

use common::{World, CAS_ADDR, CONFIG_ID, STORE_KEY};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::PolicyMode;
use sinclave_repro::cas::store::{JOURNAL_ROOT, SNAPSHOT_PATH};
use sinclave_repro::cas::JournalMode;
use sinclave_repro::core::journal_record::{encode_batch, JournalRecord, SequencedRecord};
use sinclave_repro::core::protocol::Message;
use sinclave_repro::core::snapshot::{
    IssuerSnapshot, TokenSnapshotEntry, TokenSnapshotState, SNAPSHOT_VERSION,
};
use sinclave_repro::core::AttestationToken;
use sinclave_repro::crypto::aead::AeadKey;
use sinclave_repro::crypto::sha256;
use sinclave_repro::fs::journal::Journal;
use sinclave_repro::fs::Volume;
use sinclave_repro::net::SecureChannel;
use sinclave_repro::sgx::measurement::Measurement;
use sinclave_repro::sgx::sigstruct::SigStruct;

fn world(seed: u64) -> World {
    World::new(
        seed,
        common::victim_interpreter(),
        common::user_config_with_secrets(),
        PolicyMode::Either,
    )
}

/// Drives one grant request over a fresh secure channel and returns
/// the raw reply bytes (the unit of bit-identity).
fn grant_over_network(world: &World, conn_seed: u64) -> Vec<u8> {
    let handle = world.serve_cas(1, conn_seed);
    let conn = world.network.connect(CAS_ADDR).expect("connect");
    let mut rng = StdRng::seed_from_u64(conn_seed ^ 0x5eed);
    let mut chan = SecureChannel::client_connect(conn, &mut rng).expect("handshake");
    chan.send(
        &Message::GrantRequest {
            common_sigstruct: world.packaged.signed.common_sigstruct.to_bytes(),
            base_hash: world.packaged.signed.base_hash.encode().to_vec(),
        }
        .to_bytes(),
    )
    .expect("send");
    let reply = chan.recv().expect("recv");
    assert!(
        matches!(Message::from_bytes(&reply).expect("decode"), Message::GrantResponse { .. }),
        "expected a grant"
    );
    drop(chan);
    handle.join().expect("serve");
    reply
}

#[test]
fn cold_volume_starts_empty() {
    let w = world(0xc01d);
    assert_eq!(w.cas.issuer().verified_cache_len(), 0);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0);
    assert_eq!(w.cas.issuer().token_table_len(), 0);
    // A volume that never saw a snapshot is not a rejected snapshot.
    assert_eq!(w.cas.stats.snapshot().snapshot_restored, 0);
    assert_eq!(w.cas.stats.snapshot().snapshot_rejected, 0);
}

#[test]
fn warm_restart_skips_verification_and_grants_bit_identically() {
    // Two identical worlds serve the same connection sequence; one is
    // restarted in the middle. The restarted CAS must (a) come up with
    // its verify cache already warm — the acceptance criterion "first
    // repeat grant without re-running RSA SigStruct verification" —
    // and (b) answer with bit-identical reply bytes, proving the
    // restored caches are pure memoization.
    let mut restarted = world(77);
    let control = world(77);

    assert_eq!(grant_over_network(&restarted, 100), grant_over_network(&control, 100));
    assert_eq!(restarted.cas.issuer().verified_cache_len(), 1);

    restarted.restart_cas();
    assert_eq!(restarted.cas.stats.snapshot().snapshot_restored, 1);
    // Warm *before* serving a single request: restore, not re-verify,
    // warmed the cache.
    assert_eq!(restarted.cas.issuer().verified_cache_len(), 1);

    let after_restart = grant_over_network(&restarted, 200);
    assert_eq!(after_restart, grant_over_network(&control, 200));
    // The repeat grant was served from the restored cache: still
    // exactly one verified entry, and no snapshot was rejected.
    assert_eq!(restarted.cas.issuer().verified_cache_len(), 1);
    assert_eq!(restarted.cas.stats.snapshot().snapshot_rejected, 0);

    // Policies survived alongside (they were always durable).
    assert_eq!(restarted.cas.store().get_policy(CONFIG_ID).unwrap().config_id, CONFIG_ID);
}

#[test]
fn double_restart_stays_warm_and_identical() {
    // Restart twice in a row (deploy, then hotfix deploy): warmth and
    // bit-identity must be transitive across snapshot generations.
    let mut restarted = world(78);
    let control = world(78);
    assert_eq!(grant_over_network(&restarted, 300), grant_over_network(&control, 300));
    restarted.restart_cas();
    restarted.restart_cas();
    assert_eq!(restarted.cas.issuer().verified_cache_len(), 1);
    assert_eq!(grant_over_network(&restarted, 301), grant_over_network(&control, 301));
}

#[test]
fn redeemed_tokens_stay_redeemed_across_restart() {
    // Exactly-once across restarts, both directions: a token redeemed
    // before the snapshot is refused after restore; a token issued but
    // not yet redeemed stays redeemable exactly once.
    let mut w = world(79);
    let signed = &w.packaged.signed;
    let mut rng = StdRng::seed_from_u64(1);
    let redeemed =
        w.cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
    let outstanding =
        w.cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
    w.cas.issuer().redeem(&redeemed.token, &redeemed.expected_mrenclave).unwrap();
    assert_eq!(w.cas.issuer().outstanding_tokens(), 1);

    w.restart_cas();
    assert_eq!(w.cas.issuer().outstanding_tokens(), 1);
    assert_eq!(w.cas.issuer().redeemed_tombstones(), 1);
    // The reuse attempt the paper defends against, now across a
    // process boundary.
    assert!(w.cas.issuer().redeem(&redeemed.token, &redeemed.expected_mrenclave).is_err());
    // The legitimate singleton can still come up — once.
    w.cas.issuer().redeem(&outstanding.token, &outstanding.expected_mrenclave).unwrap();
    assert!(w.cas.issuer().redeem(&outstanding.token, &outstanding.expected_mrenclave).is_err());
}

/// Rebuilds the world's CAS after applying `mutate` to the persisted
/// snapshot plaintext (simulating a buggy or hostile writer that holds
/// the volume key — the AEAD layer cannot catch that, the snapshot's
/// own framing must). Asserts the mutated snapshot yields a clean cold
/// start.
fn assert_cold_start_after(w: &mut World, mutate: impl FnOnce(&mut Vec<u8>)) {
    w.cas.persist_state().expect("persist");
    let mut bytes = w.cas.store().restore_state().expect("read").expect("snapshot present");
    IssuerSnapshot::from_bytes(&bytes).expect("sanity: untouched snapshot decodes");
    mutate(&mut bytes);
    w.cas.store().persist_state(&bytes).expect("write mutated");
    let image = w.cas.store().volume().to_disk_image();
    w.rebuild_cas_from_image(&image);
    assert_eq!(w.cas.stats.snapshot().snapshot_rejected, 1, "rejected exactly once");
    assert_eq!(w.cas.stats.snapshot().snapshot_restored, 0);
    assert_eq!(w.cas.issuer().verified_cache_len(), 0, "no partially-admitted entries");
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0);
    assert_eq!(w.cas.issuer().token_table_len(), 0);
    // The cold CAS still serves: a fresh grant re-verifies and works.
    grant_over_network(w, 900);
    assert_eq!(w.cas.issuer().verified_cache_len(), 1);
}

#[test]
fn bit_flipped_snapshot_degrades_to_cold_start() {
    let mut w = world(80);
    grant_over_network(&w, 400);
    assert_cold_start_after(&mut w, |bytes| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
    });
}

#[test]
fn truncated_snapshot_degrades_to_cold_start() {
    let mut w = world(81);
    grant_over_network(&w, 401);
    assert_cold_start_after(&mut w, |bytes| {
        bytes.truncate(bytes.len() - 7);
    });
}

#[test]
fn future_version_snapshot_degrades_to_cold_start() {
    // A version bump with an internally consistent checksum — what a
    // rollback from a newer deployment would leave behind. Must be
    // refused, not misparsed.
    let mut w = world(82);
    grant_over_network(&w, 402);
    assert_cold_start_after(&mut w, |bytes| {
        bytes[8..10].copy_from_slice(&(SNAPSHOT_VERSION + 1).to_be_bytes());
        let framed = bytes.len() - 32;
        let digest = sha256::digest(&bytes[..framed]);
        bytes[framed..].copy_from_slice(digest.as_bytes());
    });
}

#[test]
fn tampered_snapshot_ciphertext_degrades_to_cold_start() {
    // Host-level tampering (no volume key): the AEAD chunk layer
    // refuses the read and the server starts cold.
    let mut w = world(83);
    grant_over_network(&w, 403);
    w.cas.persist_state().expect("persist");
    let mut volume = w.cas.store().volume();
    // The snapshot was written last, so it owns the highest file id.
    let snapshot_file = volume.raw_chunk_ids().iter().map(|&(id, _)| id).max().unwrap();
    for id in volume.raw_chunk_ids() {
        if id.0 == snapshot_file {
            assert!(volume.corrupt_chunk(id));
        }
    }
    w.rebuild_cas_from_image(&volume.to_disk_image());
    assert_eq!(w.cas.stats.snapshot().snapshot_rejected, 1);
    assert_eq!(w.cas.issuer().verified_cache_len(), 0);
    // Policies (untouched files) still load and serving still works.
    assert_eq!(w.cas.store().get_policy(CONFIG_ID).unwrap().config_id, CONFIG_ID);
    grant_over_network(&w, 901);
}

#[test]
fn crash_reexposure_window_is_bounded_by_redemption_cadence() {
    // The honest crash semantics, full network flow: with a
    // redemption-driven cadence, a token consumed by a real singleton
    // attestation is durable the moment it is redeemed — a crash
    // immediately after (no graceful persist) cannot re-expose it.
    use sinclave_repro::runtime::scone::StartOptions;
    use sinclave_repro::runtime::ProgramImage;

    let image = ProgramImage::with_entry("svc", "print ok", 2).sinclave_aware();
    let mut w = World::new(85, image, common::user_config_with_secrets(), PolicyMode::Singleton);
    w.cas.set_snapshot_cadence(1);
    let cas = w.serve_cas(2, 850); // grant + attest
    w.host
        .start_sinclave(&w.packaged, &StartOptions::new(CAS_ADDR, CONFIG_ID).with_seed(3))
        .expect("singleton lifecycle");
    cas.join().expect("serve");
    assert_eq!(w.cas.stats.snapshot().tokens_redeemed, 1);
    // Cadence 1 persisted after the grant *and* after the redemption.
    assert_eq!(w.cas.stats.snapshot().snapshot_persisted, 2);
    assert_eq!(w.cas.stats.snapshot().snapshot_persist_failed, 0);

    // Crash: rebuild from the volume as-is, no graceful persist.
    let image = w.cas.store().volume().to_disk_image();
    w.rebuild_cas_from_image(&image);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0, "redeemed token re-exposed by crash");
    assert_eq!(w.cas.issuer().redeemed_tombstones(), 1);
}

#[test]
fn crash_without_redemption_cadence_reopens_a_documented_window() {
    // The flip side, pinned down so the guarantee stays honest: with
    // the cadence disabled, a redemption after the last snapshot is
    // rolled back by a crash — the token comes back outstanding. This
    // is exactly the window the redemption cadence (or, per ROADMAP,
    // synchronous journaling) bounds; a graceful restart never has it.
    let mut w = world(86);
    let signed = w.packaged.signed.clone();
    let mut rng = StdRng::seed_from_u64(4);
    let g = w.cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
    w.cas.persist_state().unwrap(); // snapshot sees the token as Issued
    w.cas.issuer().redeem(&g.token, &g.expected_mrenclave).unwrap();

    let image = w.cas.store().volume().to_disk_image();
    w.rebuild_cas_from_image(&image); // crash: redemption not persisted
    assert_eq!(w.cas.issuer().outstanding_tokens(), 1, "crash rolls back to the snapshot");
    w.cas.issuer().redeem(&g.token, &g.expected_mrenclave).unwrap();

    // A graceful restart at the same point has no window at all.
    let mut w = world(86);
    let signed = w.packaged.signed.clone();
    let mut rng = StdRng::seed_from_u64(4);
    let g = w.cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
    w.cas.persist_state().unwrap();
    w.cas.issuer().redeem(&g.token, &g.expected_mrenclave).unwrap();
    w.restart_cas();
    assert!(w.cas.issuer().redeem(&g.token, &g.expected_mrenclave).is_err());
}

#[test]
fn crash_mid_snapshot_restarts_from_previous_good_snapshot() {
    // Fault injection: the persist is torn after N chunks, for every N
    // across the snapshot's size — the window a power loss can hit.
    // The volume must stay readable and the CAS must restart from the
    // previous good snapshot, for every crash point.
    let mut w = world(84);
    let signed = w.packaged.signed.clone();

    // Generation 1: one verified binary, a redeemed token, a snapshot.
    let mut rng = StdRng::seed_from_u64(2);
    let g1 = w.cas.issuer().issue(&mut rng, &signed.common_sigstruct, &signed.base_hash).unwrap();
    w.cas.issuer().redeem(&g1.token, &g1.expected_mrenclave).unwrap();
    w.cas.persist_state().expect("persist generation 1");
    let generation1 = w.cas.issuer().export_snapshot();

    // Generation 2 is much bigger (many outstanding tokens), so the
    // torn write spans several chunks.
    w.cas.issuer().issue_batch(&mut rng, &signed.common_sigstruct, &signed.base_hash, 180).unwrap();
    let generation2 = w.cas.issuer().export_snapshot().to_bytes();
    let chunk_count = generation2.len().div_ceil(sinclave_repro::fs::volume::CHUNK_SIZE);
    assert!(chunk_count >= 3, "need a multi-chunk snapshot, got {chunk_count}");

    let image = w.cas.store().volume().to_disk_image();
    for crash_after in 0..=chunk_count {
        let mut volume = Volume::from_disk_image(&image).expect("image");
        volume
            .write_file_interrupted(
                &AeadKey::new(STORE_KEY),
                SNAPSHOT_PATH,
                &generation2,
                crash_after,
            )
            .expect("interrupted write");
        w.rebuild_cas_from_image(&volume.to_disk_image());
        // The previous good snapshot was restored: exactly generation
        // 1's state, no panic, nothing rejected.
        assert_eq!(w.cas.stats.snapshot().snapshot_restored, 1, "crash after {crash_after} chunks");
        assert_eq!(w.cas.stats.snapshot().snapshot_rejected, 0);
        assert_eq!(w.cas.issuer().verified_cache_len(), 1);
        assert_eq!(w.cas.issuer().outstanding_tokens(), generation1.tokens.len() - 1);
        assert_eq!(w.cas.issuer().redeemed_tombstones(), 1);
        assert!(w.cas.issuer().redeem(&g1.token, &g1.expected_mrenclave).is_err());
    }
}

// ---- Sealed redemption journal ------------------------------------------

/// Drives one grant over the network (so the server journals it) and
/// returns the token plus the predicted singleton measurement.
fn grant_token_over_network(world: &World, conn_seed: u64) -> (AttestationToken, Measurement) {
    let reply = grant_over_network(world, conn_seed);
    let Message::GrantResponse { token, sigstruct, .. } =
        Message::from_bytes(&reply).expect("decode")
    else {
        unreachable!("grant_over_network asserts a GrantResponse");
    };
    let sigstruct = SigStruct::from_bytes(&sigstruct).expect("sigstruct");
    (token, sigstruct.body().enclave_hash)
}

/// Crash-rebuilds the CAS from the volume as-is (no graceful persist).
fn crash(world: &mut World) {
    let image = world.cas.store().volume().to_disk_image();
    world.rebuild_cas_from_image(&image);
}

#[test]
fn journal_replays_grant_after_crash_without_snapshot() {
    // A granted token must survive a crash even though no snapshot was
    // ever written: the grant delta was journaled before the reply.
    let mut w = world(0x10a1);
    let (token, expected) = grant_token_over_network(&w, 500);
    assert_eq!(w.cas.stats.snapshot().journal_appended, 1);

    crash(&mut w);
    assert_eq!(w.cas.stats.snapshot().journal_replayed, 1);
    assert_eq!(w.cas.stats.snapshot().journal_rejected, 0);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 1, "granted token lost by crash");
    // Redeemable exactly once, same as if the crash never happened.
    w.cas.redeem_token(&token, &expected).unwrap();
    assert!(w.cas.redeem_token(&token, &expected).is_err());
}

#[test]
fn journal_acked_redemption_is_crash_proof() {
    // The tentpole property: once a redemption is acked, no crash —
    // with or without a snapshot — can ever make the token redeemable
    // again. (Contrast with `crash_without_redemption_cadence_…`,
    // which redeems at the issuer layer, below the journal, and keeps
    // the old window to pin the ablation honest.)
    let mut w = world(0x10a2);
    let (token, expected) = grant_token_over_network(&w, 510);
    w.cas.redeem_token(&token, &expected).expect("redeem");
    assert_eq!(w.cas.stats.snapshot().tokens_redeemed, 1);
    assert_eq!(w.cas.stats.snapshot().snapshot_persisted, 0, "no snapshot involved");

    crash(&mut w);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0, "crash re-exposed an acked redemption");
    assert_eq!(w.cas.issuer().redeemed_tombstones(), 1);
    assert!(w.cas.redeem_token(&token, &expected).is_err(), "token replayed after crash");

    // And across a second crash, from the replayed journal.
    crash(&mut w);
    assert!(w.cas.redeem_token(&token, &expected).is_err());
}

#[test]
fn journal_group_commit_preserves_concurrent_redemptions() {
    // Concurrent redemptions on the sharded server batch through the
    // group-commit pipe; every acked one must survive a crash.
    let mut w = world(0x10a3);
    let grants: Vec<_> = (0..8).map(|i| grant_token_over_network(&w, 520 + i)).collect();
    std::thread::scope(|scope| {
        for (token, expected) in &grants {
            let cas = w.cas.clone();
            scope.spawn(move || cas.redeem_token(token, expected).expect("redeem"));
        }
    });
    // Every grant and every redemption became a durable record.
    assert_eq!(w.cas.stats.snapshot().journal_appended, 16);
    assert_eq!(w.cas.stats.snapshot().journal_append_failed, 0);

    crash(&mut w);
    assert_eq!(w.cas.stats.snapshot().journal_replayed, 16);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0);
    for (token, expected) in &grants {
        assert!(w.cas.redeem_token(token, expected).is_err(), "acked redemption replayed");
    }
}

#[test]
fn journal_torn_append_sweep_never_replays_acked_redemptions() {
    // THE acceptance sweep, chunk level: two redemptions are acked,
    // then the *next* append (never acked) is torn at every byte of
    // its sealed chunk. At every crash point the restarted CAS must
    // hold both acked redemptions, count the torn tail, and never
    // panic or quarantine.
    let mut w = world(0x10a4);
    let (t1, e1) = grant_token_over_network(&w, 530);
    let (t2, e2) = grant_token_over_network(&w, 531);
    let (t3, _e3) = grant_token_over_network(&w, 532);
    w.cas.redeem_token(&t1, &e1).unwrap();
    w.cas.redeem_token(&t2, &e2).unwrap();
    let image = w.cas.store().volume().to_disk_image();

    // The in-flight append a crash interrupts: a redemption record
    // for the still-outstanding third token.
    let torn_record =
        SequencedRecord { seq: 6, record: JournalRecord::TokenRedeemed { token: t3.0 } };
    let payload = torn_record.to_bytes();
    let sealed_len = payload.len() + 16; // + AEAD tag
    let key = AeadKey::new(STORE_KEY);
    for keep in 0..sealed_len {
        let mut volume = Volume::from_disk_image(&image).expect("image");
        let (mut journal, _) = Journal::recover(&mut volume, &key, JOURNAL_ROOT).expect("journal");
        journal.append_torn(&mut volume, &key, &payload, keep).expect("torn append");

        w.rebuild_cas_from_image(&volume.to_disk_image());
        assert_eq!(
            w.cas.stats.snapshot().journal_rejected,
            1,
            "torn tail not counted at keep {keep}"
        );
        assert_eq!(w.cas.stats.snapshot().tokens_quarantined, 0, "keep {keep}");
        // Both acked redemptions held; the never-acked one rolled back
        // to outstanding (its client never got a reply).
        assert!(w.cas.redeem_token(&t1, &e1).is_err(), "t1 replayed at keep {keep}");
        assert!(w.cas.redeem_token(&t2, &e2).is_err(), "t2 replayed at keep {keep}");
        assert_eq!(w.cas.issuer().outstanding_tokens(), 1, "keep {keep}");
    }
}

#[test]
fn journal_torn_batch_sweep_degrades_to_last_complete_record() {
    // THE acceptance sweep, record level: a group-commit batch of
    // three redemption records lands torn at every byte boundary —
    // exactly the records whose frames completed are applied, the rest
    // roll back (never acked), and the damage is counted. Cuts on
    // record boundaries are clean commits and reject nothing.
    let mut w = world(0x10a5);
    let grants: Vec<_> = (0..3).map(|i| grant_token_over_network(&w, 540 + i)).collect();
    let image = w.cas.store().volume().to_disk_image();

    let records: Vec<SequencedRecord> = grants
        .iter()
        .enumerate()
        .map(|(i, (token, _))| SequencedRecord {
            seq: 4 + i as u64,
            record: JournalRecord::TokenRedeemed { token: token.0 },
        })
        .collect();
    let batch = encode_batch(&records);
    let boundaries: Vec<usize> = records
        .iter()
        .scan(0, |pos, r| {
            *pos += r.to_bytes().len();
            Some(*pos)
        })
        .collect();
    let key = AeadKey::new(STORE_KEY);
    for cut in 0..=batch.len() {
        let mut volume = Volume::from_disk_image(&image).expect("image");
        let (mut journal, _) = Journal::recover(&mut volume, &key, JOURNAL_ROOT).expect("journal");
        journal.append(&mut volume, &key, &batch[..cut]);

        w.rebuild_cas_from_image(&volume.to_disk_image());
        let complete = boundaries.iter().filter(|&&b| b <= cut).count();
        let clean = cut == 0 || boundaries.contains(&cut);
        assert_eq!(w.cas.stats.snapshot().journal_rejected, u64::from(!clean), "cut {cut}");
        assert_eq!(w.cas.stats.snapshot().tokens_quarantined, 0, "cut {cut}");
        assert_eq!(
            w.cas.issuer().outstanding_tokens(),
            grants.len() - complete,
            "cut {cut}: restored past the last complete record"
        );
        for (i, (token, expected)) in grants.iter().enumerate() {
            let redeem = w.cas.redeem_token(token, expected);
            if i < complete {
                assert!(redeem.is_err(), "cut {cut}: acked redemption {i} replayed");
            } else {
                assert!(redeem.is_ok(), "cut {cut}: rolled-back token {i} unusable");
            }
        }
    }
}

#[test]
fn journal_corruption_before_committed_records_fails_closed() {
    // Damage a crash cannot produce — an early record corrupted with
    // committed records after it — is treated as tampering: the clean
    // prefix stands, and every outstanding token is quarantined so
    // nothing the log cannot vouch for is ever honored.
    let mut w = world(0x10a6);
    let (t1, e1) = grant_token_over_network(&w, 550);
    let (t2, e2) = grant_token_over_network(&w, 551);
    w.cas.redeem_token(&t1, &e1).unwrap();

    let mut volume = w.cas.store().volume();
    let key = AeadKey::new(STORE_KEY);
    let epoch = *Journal::epochs(&volume, &key, JOURNAL_ROOT).unwrap().first().unwrap();
    let path = format!("{JOURNAL_ROOT}/epoch-{epoch:016x}");
    let ids = volume.chunk_ids_for(&key, &path).unwrap();
    assert_eq!(ids.len(), 3, "two grants + one redemption");
    assert!(volume.corrupt_chunk(ids[0])); // the first grant's record

    w.rebuild_cas_from_image(&volume.to_disk_image());
    assert_eq!(w.cas.stats.snapshot().journal_rejected, 1);
    // Nothing outstanding survived the quarantine; the acked
    // redemption's token is refused either way (unknown), and the
    // quarantined one must be re-granted.
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0);
    assert!(w.cas.redeem_token(&t1, &e1).is_err());
    assert!(w.cas.redeem_token(&t2, &e2).is_err());
    // The CAS still serves: a fresh grant works (and re-journals).
    grant_over_network(&w, 552);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 1);
}

#[test]
fn whole_disk_image_rollback_detected_and_quarantined() {
    // A host replaying an entire older disk image: the snapshot and
    // every checkpoint in it carry an older restore generation than
    // the witness the deployment keeps outside the volume.
    let mut w = world(0x10a7);
    grant_token_over_network(&w, 560);
    w.cas.persist_state().unwrap();
    let old_image = w.cas.store().volume().to_disk_image();
    let old_generation = w.cas.restore_generation();

    // Life moves on: more durable state, another persisted snapshot.
    let (token, expected) = grant_token_over_network(&w, 561);
    w.cas.persist_state().unwrap();
    let witness = w.cas.restore_generation();
    let witness_seq = w.cas.journal_sequence();
    assert!(witness > old_generation);

    // Graceful restore of the *current* image: no alarm.
    w.restart_cas();
    assert_eq!(w.cas.stats.snapshot().rollback_detected, 0);

    // Restore of the old image: detected, counted, quarantined.
    w.rebuild_cas_from_image(&old_image);
    assert!(w.cas.check_rollback(witness, witness_seq));
    assert_eq!(w.cas.stats.snapshot().rollback_detected, 1);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0, "rolled-back tokens honored");
    assert!(w.cas.redeem_token(&token, &expected).is_err());
    assert!(w.cas.stats.snapshot().tokens_quarantined >= 1);
}

#[test]
fn deleted_journal_tail_detected_by_sequence_witness() {
    // A host can delete the last committed journal chunk(s); at the
    // storage layer that is indistinguishable from a clean journal
    // end (no AEAD failure, no gap), so the torn-tail classifier
    // rightly stays silent. The *sequence* half of the rollback
    // witness catches it: the replayed journal ends before the
    // witnessed sequence.
    let mut w = world(0x10ab);
    let (t1, e1) = grant_token_over_network(&w, 565);
    w.cas.redeem_token(&t1, &e1).unwrap();
    let witness_gen = w.cas.restore_generation();
    let witness_seq = w.cas.journal_sequence();

    // Delete the redemption's chunk — the committed tail.
    let mut volume = w.cas.store().volume();
    let key = AeadKey::new(STORE_KEY);
    let epoch = *Journal::epochs(&volume, &key, JOURNAL_ROOT).unwrap().first().unwrap();
    let path = format!("{JOURNAL_ROOT}/epoch-{epoch:016x}");
    let ids = volume.chunk_ids_for(&key, &path).unwrap();
    let last = *ids.last().unwrap();
    assert!(volume.delete_chunk(last));

    w.rebuild_cas_from_image(&volume.to_disk_image());
    // Storage sees a clean end — no journal damage to count…
    assert_eq!(w.cas.stats.snapshot().journal_rejected, 0);
    // …but the witness does not: rollback detected, outstanding
    // quarantined, and the token whose redemption was deleted can
    // never be redeemed again.
    assert!(w.cas.check_rollback(witness_gen, witness_seq));
    assert_eq!(w.cas.stats.snapshot().rollback_detected, 1);
    assert!(w.cas.redeem_token(&t1, &e1).is_err(), "deleted-tail redemption replayed");
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0);
}

#[test]
fn deleted_middle_epoch_quarantines_via_sequence_gap() {
    // A host deletes every chunk of a *middle* journal epoch (say, the
    // one holding an acked redemption). Storage cannot distinguish an
    // emptied epoch from one that never had appends, so the chunk
    // classifier stays silent — but the records in later epochs now
    // jump the sequence past the snapshot's baseline, and that gap is
    // proof of loss: fail closed.
    let mut w = world(0x10ac);
    let (t1, e1) = grant_token_over_network(&w, 566); // seq 1
    w.cas.persist_state().unwrap(); // checkpoint seq 2; snapshot baseline 2 holds t1 as Issued
    w.restart_cas(); // fresh epoch E2
    w.cas.redeem_token(&t1, &e1).unwrap(); // seq 3, acked, in E2
    crash(&mut w); // fresh epoch E3
    grant_token_over_network(&w, 567); // seq 4, in E3

    let mut volume = w.cas.store().volume();
    let key = AeadKey::new(STORE_KEY);
    let epochs = Journal::epochs(&volume, &key, JOURNAL_ROOT).unwrap();
    // Delete every chunk of the epoch holding the acked redemption
    // (the middle one: checkpoint epoch, E2, E3-active).
    let path = format!("{JOURNAL_ROOT}/epoch-{:016x}", epochs[1]);
    let ids = volume.chunk_ids_for(&key, &path).unwrap();
    assert!(!ids.is_empty());
    for id in ids {
        assert!(volume.delete_chunk(id));
    }

    w.rebuild_cas_from_image(&volume.to_disk_image());
    assert_eq!(w.cas.stats.snapshot().journal_rejected, 1, "gap not counted");
    assert!(w.cas.stats.snapshot().tokens_quarantined >= 1);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0);
    // The acked redemption's token was restored Issued from the
    // snapshot; the quarantine is what keeps it unredeemable.
    assert!(w.cas.redeem_token(&t1, &e1).is_err(), "deleted-epoch redemption replayed");
}

#[test]
fn restart_loops_do_not_grow_the_journal() {
    // Every open rolls a fresh epoch; without pruning, a deploy loop
    // with no token activity would grow the manifest one empty epoch
    // per restart forever (and clean-skip persists never truncate).
    let mut w = world(0x10ad);
    let (token, expected) = grant_token_over_network(&w, 575);
    w.cas.redeem_token(&token, &expected).unwrap();
    w.cas.persist_state().unwrap();
    for _ in 0..5 {
        w.restart_cas(); // persist skips (clean); recover prunes
        assert!(
            w.cas.store().journal_epoch_count().unwrap() <= 2,
            "journal epochs grew across idle restarts"
        );
    }
}

#[test]
fn clean_snapshots_are_skipped_not_rewritten() {
    // The dirty-epoch check: persisting twice without any durable
    // mutation writes once and skips once; a mutation re-arms it.
    let mut w = world(0x10a8);
    grant_token_over_network(&w, 570);
    w.cas.persist_state().unwrap();
    assert_eq!(w.cas.stats.snapshot().snapshot_persisted, 1);
    assert_eq!(w.cas.stats.snapshot().snapshot_skipped_clean, 0);

    w.cas.persist_state().unwrap();
    assert_eq!(w.cas.stats.snapshot().snapshot_persisted, 1, "clean state rewritten");
    assert_eq!(w.cas.stats.snapshot().snapshot_skipped_clean, 1);

    grant_token_over_network(&w, 571);
    w.cas.persist_state().unwrap();
    assert_eq!(w.cas.stats.snapshot().snapshot_persisted, 2);

    // A graceful restart replays only the checkpoint (no token
    // records beyond the snapshot), so the restored state is clean
    // too: the shutdown persist of the next restart skips.
    w.restart_cas();
    assert_eq!(w.cas.stats.snapshot().snapshot_skipped_clean, 0);
    w.cas.persist_state().unwrap();
    assert_eq!(w.cas.stats.snapshot().snapshot_skipped_clean, 1);
    assert_eq!(w.cas.stats.snapshot().snapshot_persisted, 0);
}

#[test]
fn journal_stays_bounded_by_checkpoint_truncation() {
    // Snapshot persistence is checkpoint + truncation: however many
    // events and restarts happened, at most the suffix since the last
    // snapshot (plus the fresh epoch) stays on the volume.
    let mut w = world(0x10a9);
    for round in 0..3u64 {
        for i in 0..4 {
            let (token, expected) = grant_token_over_network(&w, 580 + round * 10 + i);
            w.cas.redeem_token(&token, &expected).unwrap();
        }
        w.cas.persist_state().unwrap();
        assert_eq!(
            w.cas.store().journal_epoch_count().unwrap(),
            1,
            "round {round}: retired epochs not truncated"
        );
        w.restart_cas();
    }
    // Replay after the last restart applied no token records: the
    // snapshot covered everything.
    assert_eq!(w.cas.issuer().outstanding_tokens(), 0);
    assert_eq!(w.cas.issuer().redeemed_tombstones(), 12);
}

#[test]
fn disabled_journal_honestly_reopens_the_crash_window() {
    // The opt-out keeps the pre-journal semantics — and the bench's
    // no-journal baseline honest: an acked redemption after the last
    // snapshot is rolled back by a crash.
    let mut w = world(0x10aa);
    w.cas.set_journal_mode(JournalMode::Disabled);
    let (token, expected) = grant_token_over_network(&w, 590);
    w.cas.persist_state().unwrap(); // snapshot sees the token as Issued
    w.cas.redeem_token(&token, &expected).unwrap();
    assert_eq!(w.cas.stats.snapshot().journal_appended, 0);

    crash(&mut w);
    assert_eq!(w.cas.issuer().outstanding_tokens(), 1, "the documented window");
    w.cas.redeem_token(&token, &expected).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The snapshot codec round-trips arbitrary well-formed state.
    #[test]
    fn snapshot_codec_roundtrips(
        verifier in any::<[u8; 32]>(),
        signer in any::<[u8; 32]>(),
        keys in proptest::collection::vec(any::<[u8; 64]>(), 0..12),
        issued in proptest::collection::vec(
            (any::<[u8; 32]>(), any::<[u8; 32]>(), any::<[u8; 32]>()),
            0..12,
        ),
        redeemed in proptest::collection::vec(any::<[u8; 32]>(), 0..12),
    ) {
        let mut tokens: Vec<TokenSnapshotEntry> = issued
            .into_iter()
            .map(|(token, expected, common)| TokenSnapshotEntry {
                token,
                state: TokenSnapshotState::Issued { expected, common },
            })
            .chain(redeemed.into_iter().map(|token| TokenSnapshotEntry {
                token,
                state: TokenSnapshotState::Redeemed,
            }))
            .collect();
        tokens.sort_unstable_by_key(|entry| entry.token);
        let snapshot = IssuerSnapshot {
            verifier_identity: verifier,
            signer_fingerprint: signer,
            generation: 1,
            journal_sequence: 7,
            fence: 0,
            verified_keys: keys,
            tokens,
        };
        let bytes = snapshot.to_bytes();
        prop_assert_eq!(IssuerSnapshot::from_bytes(&bytes).unwrap(), snapshot.clone());
        // Deterministic: same state, same bytes.
        prop_assert_eq!(snapshot.to_bytes(), bytes);
    }

    /// Any single bit flip anywhere in a snapshot is rejected — the
    /// trailing checksum turns "plausibly decodes to something else"
    /// into a clean refusal.
    #[test]
    fn snapshot_bit_flips_rejected(
        keys in proptest::collection::vec(any::<[u8; 64]>(), 0..6),
        tokens in proptest::collection::vec(any::<[u8; 32]>(), 0..6),
        byte_pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let snapshot = IssuerSnapshot {
            verifier_identity: [1; 32],
            signer_fingerprint: [2; 32],
            generation: 1,
            journal_sequence: 7,
            fence: 0,
            verified_keys: keys,
            tokens: tokens
                .into_iter()
                .map(|token| TokenSnapshotEntry { token, state: TokenSnapshotState::Redeemed })
                .collect(),
        };
        let mut bytes = snapshot.to_bytes();
        let idx = byte_pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert!(IssuerSnapshot::from_bytes(&bytes).is_err(),
            "flip at byte {} bit {} accepted", idx, bit);
    }

    /// The journal record codec round-trips arbitrary records and
    /// batches of them.
    #[test]
    fn journal_record_roundtrips(
        seq in any::<u64>(),
        token in any::<[u8; 32]>(),
        expected in any::<[u8; 32]>(),
        common in any::<[u8; 32]>(),
        generation in any::<u64>(),
        kind in 0u8..3,
    ) {
        let record = match kind {
            0 => JournalRecord::TokenGranted { token, expected, common },
            1 => JournalRecord::TokenRedeemed { token },
            _ => JournalRecord::Checkpoint { generation },
        };
        let sequenced = SequencedRecord { seq, record };
        let bytes = sequenced.to_bytes();
        prop_assert_eq!(SequencedRecord::from_bytes(&bytes).unwrap(), sequenced);
        prop_assert_eq!(sequenced.to_bytes(), bytes);
        let batch = encode_batch(&[sequenced, sequenced]);
        let decoded = sinclave_repro::core::journal_record::decode_batch(&batch);
        prop_assert_eq!(decoded.records, vec![sequenced, sequenced]);
        prop_assert_eq!(decoded.damaged, None);
    }

    /// Any single bit flip anywhere in a framed journal record is
    /// rejected cleanly — the per-record checksum turns "plausibly a
    /// different record" into a total refusal.
    #[test]
    fn journal_record_bit_flips_rejected(
        seq in any::<u64>(),
        token in any::<[u8; 32]>(),
        byte_pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let record = SequencedRecord { seq, record: JournalRecord::TokenRedeemed { token } };
        let mut bytes = record.to_bytes();
        let idx = byte_pos % bytes.len();
        bytes[idx] ^= 1 << bit;
        prop_assert!(SequencedRecord::from_bytes(&bytes).is_err(),
            "flip at byte {} bit {} accepted", idx, bit);
        // In a batch, the flip loses at most the suffix from the
        // damaged record on — never a misparse, never a panic.
        let decoded = sinclave_repro::core::journal_record::decode_batch(&bytes);
        prop_assert!(decoded.damaged.is_some());
        prop_assert!(decoded.records.is_empty());
    }

    /// Any short read (truncation) of a journal record is rejected,
    /// and a truncated batch recovers exactly its complete prefix.
    #[test]
    fn journal_record_truncations_rejected(
        seq in any::<u64>(),
        token in any::<[u8; 32]>(),
        expected in any::<[u8; 32]>(),
        common in any::<[u8; 32]>(),
        cut_pos in any::<usize>(),
    ) {
        let first = SequencedRecord {
            seq,
            record: JournalRecord::TokenGranted { token, expected, common },
        };
        let second = SequencedRecord {
            seq: seq.wrapping_add(1),
            record: JournalRecord::TokenRedeemed { token },
        };
        let bytes = first.to_bytes();
        let cut = cut_pos % bytes.len();
        prop_assert!(SequencedRecord::from_bytes(&bytes[..cut]).is_err());
        // Trailing garbage after a whole record is rejected too.
        let mut padded = bytes.clone();
        padded.push(0);
        prop_assert!(SequencedRecord::from_bytes(&padded).is_err());
        // Batch of two cut inside (or right before) the second
        // record: exactly the first survives.
        let mut batch = encode_batch(&[first, second]);
        let second_len = second.to_bytes().len();
        batch.truncate(bytes.len() + cut_pos % second_len);
        let decoded = sinclave_repro::core::journal_record::decode_batch(&batch);
        prop_assert_eq!(decoded.records, vec![first]);
    }

    /// Any truncation (and any trailing garbage) is rejected.
    #[test]
    fn snapshot_truncations_rejected(
        keys in proptest::collection::vec(any::<[u8; 64]>(), 0..6),
        cut_pos in any::<usize>(),
    ) {
        let snapshot = IssuerSnapshot {
            verifier_identity: [3; 32],
            signer_fingerprint: [4; 32],
            generation: 2,
            journal_sequence: 7,
            fence: 0,
            verified_keys: keys,
            tokens: Vec::new(),
        };
        let bytes = snapshot.to_bytes();
        let cut = cut_pos % bytes.len();
        prop_assert!(IssuerSnapshot::from_bytes(&bytes[..cut]).is_err());
        let mut padded = bytes;
        padded.push(0);
        prop_assert!(IssuerSnapshot::from_bytes(&padded).is_err());
    }
}

#[test]
fn primary_checkpoints_on_the_default_cadence_while_streaming() {
    // A default-configured primary serves one cadence of grants on one
    // channel while a follower streams its journal. The cadence-hit
    // persist rotates, checkpoints and truncates the primary's journal
    // mid-stream; the follower replays the checkpoint record like any
    // other, never checkpoints itself, and ends with the primary's
    // token states.
    use sinclave_repro::cas::server::DEFAULT_SNAPSHOT_CADENCE;
    use sinclave_repro::cas::{follow, serve_replication};
    use sinclave_repro::net::Backoff;
    use std::time::{Duration, Instant};

    let grants = DEFAULT_SNAPSHOT_CADENCE + 4;
    let w = world(0xca5e);
    let _repl = serve_replication(&w.cas, &w.network, common::REPL_ADDR, 2, 0x51);
    let follower = w.new_replica();
    let backoff = Backoff::new(Duration::from_millis(2), Duration::from_millis(20));
    let pump = follow(follower.clone(), w.network.clone(), common::REPL_ADDR.into(), 0x52, backoff);
    let caught_up = |what: &str| {
        let deadline = Instant::now() + Duration::from_secs(20);
        while follower.journal_sequence() != w.cas.journal_sequence() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    };
    caught_up("baseline adoption");

    let handle = w.serve_cas(1, 0x53);
    let conn = w.network.connect(CAS_ADDR).expect("connect");
    let mut chan = SecureChannel::client_connect(conn, &mut StdRng::seed_from_u64(0x54)).unwrap();
    let request = Message::GrantRequest {
        common_sigstruct: w.packaged.signed.common_sigstruct.to_bytes(),
        base_hash: w.packaged.signed.base_hash.encode().to_vec(),
    }
    .to_bytes();
    let mut tokens = Vec::new();
    for _ in 0..grants {
        chan.send(&request).expect("send");
        let Message::GrantResponse { token, sigstruct, .. } =
            Message::from_bytes(&chan.recv().expect("recv")).expect("decode")
        else {
            panic!("grant denied");
        };
        let sigstruct = SigStruct::from_bytes(&sigstruct).expect("sigstruct");
        tokens.push((token, sigstruct.body().enclave_hash));
    }
    drop(chan);
    handle.join().expect("serve");
    for (token, expected) in &tokens[..4] {
        w.cas.redeem_token(token, expected).expect("redeem");
    }
    caught_up("live replay");
    pump.stop();

    assert_eq!(w.cas.stats.snapshot().snapshot_persisted, 1, "the cadence hit once");
    assert_eq!(w.cas.store().journal_epoch_count().unwrap(), 1, "retired epochs truncated");
    assert_eq!(follower.stats.snapshot().snapshot_persisted, 0, "a follower never checkpoints");
    assert_eq!(follower.restore_generation(), w.cas.restore_generation());
    assert_eq!(follower.issuer().outstanding_tokens(), grants as usize - 4);
    assert_eq!(follower.issuer().redeemed_tombstones(), 4);
    for (token, expected) in &tokens[..4] {
        assert!(follower.redeem_token(token, expected).is_err(), "acked redemption replayed");
    }
    let (token, expected) = &tokens[4];
    follower.redeem_token(token, expected).expect("streamed grant redeemable");
}
