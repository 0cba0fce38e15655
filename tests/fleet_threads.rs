//! How many threads a two-node fleet runs.
//!
//! A primary serves clients, status probes and replication; a follower
//! serves clients and status probes and pumps the primary's journal
//! stream. Four grants go through the follower (forwarded to the
//! primary), and the test then counts the process's threads in
//! `/proc/self/task`. Every listener is a connection kind on the
//! reactor, so the fleet runs one reactor per listener plus the pump:
//!
//! * per client reactor, `default_event_loops()` loops and
//!   `default_workers()` compute workers;
//! * the replication listener, one loop and one compute worker;
//! * each status listener, one loop;
//! * the follower pump.
//!
//! The bound it asserts is the count of the design it replaced, which
//! ran a scope thread beside every reactor's loops, one thread per
//! replication session (here a subscriber and a forwarder) beside the
//! replication listener, and the two status listeners and the pump:
//! `2·(1 + L + W) + 3 + 2 + 1`.
//!
//! The test is alone in this file: the test binary is its own process,
//! so no other test's threads are counted. The crypto crate's
//! `crt-helper` threads, which portable-kernel hosts start on demand,
//! are not serving threads and are left out.

#![cfg(target_os = "linux")]

mod common;

use common::{World, REPL_ADDR, STATUS_ADDR};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sinclave_repro::cas::policy::PolicyMode;
use sinclave_repro::cas::{follow, serve_replication, serve_status, CasServer, ForwardLink};
use sinclave_repro::core::protocol::Message;
use sinclave_repro::net::{Backoff, SecureChannel};
use std::time::{Duration, Instant};

const FOLLOWER_ADDR: &str = "cas-follower:443";
const FOLLOWER_STATUS_ADDR: &str = "cas-follower-status:9443";
/// Accept budget of every listener: more than the fleet dials, so no
/// listener retires while the threads are counted.
const BUDGET: usize = 8;

/// Threads of this process, not counting `crt-helper`s.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("list threads")
        .filter(|task| {
            let comm = task.as_ref().map(|task| task.path().join("comm"));
            !comm.is_ok_and(|comm| {
                std::fs::read_to_string(comm).is_ok_and(|name| name.trim() == "crt-helper")
            })
        })
        .count()
}

#[test]
fn a_two_node_fleet_runs_fewer_threads_than_one_per_session() {
    let w = World::new(
        0x7c0,
        common::victim_interpreter(),
        common::user_config_with_secrets(),
        PolicyMode::Either,
    );
    let before = threads();

    let follower = w.new_replica();
    let serving = vec![
        w.serve_cas(BUDGET, 0x7c1),
        serve_status(&w.cas, &w.network, STATUS_ADDR, BUDGET),
        serve_replication(&w.cas, &w.network, REPL_ADDR, BUDGET, 0x7c2),
        follower.serve_reactor(&w.network, FOLLOWER_ADDR, BUDGET, 0x7c3),
        serve_status(&follower, &w.network, FOLLOWER_STATUS_ADDR, BUDGET),
    ];
    let pin = w.channel_key.public_key().fingerprint();
    follower.set_forward_link(Some(ForwardLink::new(w.network.clone(), REPL_ADDR, pin, 0x7c4)));
    let pump = follow(
        follower.clone(),
        w.network.clone(),
        REPL_ADDR.into(),
        0x7c5,
        Backoff::new(Duration::from_millis(2), Duration::from_millis(20)),
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    while !follower.is_following() {
        assert!(Instant::now() < deadline, "follower never adopted the baseline");
        std::thread::sleep(Duration::from_millis(2));
    }

    for i in 0..4u64 {
        let conn = w.network.connect(FOLLOWER_ADDR).expect("connect");
        let mut chan =
            SecureChannel::client_connect(conn, &mut StdRng::seed_from_u64(0x7d0 + i)).unwrap();
        let grant = Message::GrantRequest {
            common_sigstruct: w.packaged.signed.common_sigstruct.to_bytes(),
            base_hash: w.packaged.signed.base_hash.encode().to_vec(),
        };
        chan.send(&grant.to_bytes()).expect("send grant");
        let reply = Message::from_bytes(&chan.recv().expect("recv")).expect("decode");
        assert!(matches!(reply, Message::GrantResponse { .. }), "grant refused: {reply:?}");
    }
    assert_eq!(w.cas.stats.snapshot().grants_issued, 4);

    let fleet = threads() - before;
    let (loops, workers) = (CasServer::default_event_loops(), CasServer::default_workers());
    let replaced = 2 * (1 + loops + workers) + 3 + 2 + 1;
    println!("fleet threads: {fleet} (the per-session design ran {replaced})");
    assert!(fleet < replaced, "{fleet} fleet threads, not fewer than {replaced}");

    follower.shutdown().expect("follower shutdown");
    pump.stop();
    w.cas.shutdown().expect("primary shutdown");
    for handle in serving {
        handle.join().expect("listener drains");
    }
}
