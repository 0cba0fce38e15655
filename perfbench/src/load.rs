//! Load generation: a paced open loop timed from each op's intended
//! send time, and a closed loop that finds the peak rate. At most
//! `nproc` generator threads; waiting parks (sleep or a receive
//! deadline), it never spins.

use crate::ops::{check_control_reply, control_request, start_once, OpError, StartSpans};
use crate::stats::{median, Samples};
use crate::world::World;
use rand::rngs::StdRng;
use rand::RngCore;
use sinclave_net::{NetError, SecureChannel};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a generator waits for an outstanding reply before counting
/// the request failed.
const REPLY_DEADLINE: Duration = Duration::from_secs(10);
/// Requests each pipeline session keeps outstanding in the closed loop.
pub const PIPELINE_WINDOW: usize = 8;
/// Ops per block of the blocked p99: twenty samples lie beyond each
/// block's p99.
pub const P99_BLOCK: usize = 2000;
/// Width of the closed loops' rate windows.
const PEAK_WINDOW: Duration = Duration::from_millis(500);
/// Failure messages printed per phase before going quiet.
const FAILURES_SHOWN: u64 = 3;

/// Ops attempted, and those that failed or returned wrong output.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub wrong: u64,
}

impl Tally {
    fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }

    fn count_error(&mut self, error: &OpError) {
        let shown = self.failed + self.wrong;
        match error {
            OpError::Failed(_) => self.failed += 1,
            OpError::Wrong(_) => self.wrong += 1,
        }
        if shown < FAILURES_SHOWN {
            eprintln!("perfbench: op {error}");
        }
    }
}

/// Intended send offsets of a paced schedule: `rate × duration` slots
/// at even spacing, each moved by a seeded jitter of up to a tenth of
/// an interval either way. Starters arrive independently but not in
/// bursts, so on a host whose speed drifts the tail measures the
/// system rather than the luck of the arrival draw.
pub fn schedule(rate: f64, duration: Duration, rng: &mut StdRng) -> Vec<Duration> {
    let n = (rate * duration.as_secs_f64()).round().max(1.0) as usize;
    (0..n)
        .map(|i| {
            let jitter = (rng.next_u64() as f64 / u64::MAX as f64 - 0.5) * 0.2;
            Duration::from_secs_f64((i as f64 + 0.5 + jitter) / rate)
        })
        .collect()
}

/// What one open-loop phase observed.
#[derive(Default)]
pub struct OpenLoop {
    /// `(intended offset, latency)` in nanoseconds of every completed
    /// op, latency timed from the intended send time.
    pub timeline: Vec<(u64, u64)>,
    /// With tracing, the latencies of even-numbered ops (spans kept)
    /// and of the rest.
    pub traced: Samples,
    pub untraced: Samples,
    /// How late the generator sent, beyond any wait for a free client.
    pub lag: Samples,
    /// Client spans of traced start ops.
    pub spans: Vec<StartSpans>,
    /// Send → reply of traced pipeline requests (queueing included).
    pub pipelined_rtt: Samples,
    pub tally: Tally,
    /// Phase start → last completion.
    pub elapsed: Duration,
}

impl OpenLoop {
    /// Room for `ops` ops up front: buffers that double while they fill
    /// would move the high-water RSS by whichever size they stopped at.
    /// Reserved pages are not resident until written.
    #[must_use]
    pub fn with_capacity(ops: usize) -> OpenLoop {
        OpenLoop {
            timeline: Vec::with_capacity(ops),
            lag: Samples::with_capacity(ops),
            ..OpenLoop::default()
        }
    }

    pub fn merge(&mut self, other: OpenLoop) {
        self.timeline.extend(other.timeline);
        self.traced.extend(other.traced);
        self.untraced.extend(other.untraced);
        self.lag.extend(other.lag);
        self.spans.extend(other.spans);
        self.pipelined_rtt.extend(other.pipelined_rtt);
        self.tally.merge(&other.tally);
        self.elapsed = self.elapsed.max(other.elapsed);
    }

    /// Moves this phase's schedule offsets by `base`, so phases merged
    /// in sequence keep schedule order.
    pub fn shift(&mut self, base: Duration) {
        let base = nanos(base);
        self.timeline.iter_mut().for_each(|(offset, _)| *offset += base);
    }

    fn completed(&mut self, index: usize, offset: Duration, latency: Duration, trace: bool) {
        self.timeline.push((nanos(offset), nanos(latency)));
        if trace {
            if index.is_multiple_of(2) {
                self.traced.push(latency);
            } else {
                self.untraced.push(latency);
            }
        }
    }

    /// Every completed op's latency.
    pub fn latency(&self) -> Samples {
        Samples::from_nanos(self.timeline.iter().map(|(_, latency)| *latency).collect())
    }

    /// Latencies of `parts` consecutive stretches of the schedule.
    fn stretches(&self, parts: usize) -> Vec<Samples> {
        let mut timeline = self.timeline.clone();
        timeline.sort_unstable();
        timeline
            .chunks(timeline.len().div_ceil(parts.max(1)).max(1))
            .map(|part| Samples::from_nanos(part.iter().map(|(_, latency)| *latency).collect()))
            .collect()
    }

    /// p50 of each quarter of the phase in schedule order, in ms: a
    /// trend across quarters means the system's state drifts.
    pub fn quarter_p50_ms(&self) -> Vec<f64> {
        self.stretches(4).iter().map(Samples::p50_ms).collect()
    }

    /// The p99 of each block of [`P99_BLOCK`] consecutive ops in
    /// schedule order (one block when there are fewer), and the median
    /// over blocks, in ms: a rare host stall moves one block, not the
    /// figure.
    pub fn blocked_p99_ms(&self) -> f64 {
        let blocks = (self.timeline.len() / P99_BLOCK).max(1);
        median(&self.stretches(blocks).iter().map(Samples::p99_ms).collect::<Vec<_>>())
    }
}

/// What closed-loop phases observed.
#[derive(Default)]
pub struct ClosedLoop {
    /// Completion times since the current phase started.
    done_at: Vec<Duration>,
    /// Completions per second in each [`PEAK_WINDOW`] of every phase.
    windows: Vec<f64>,
    pub completed: u64,
    pub tally: Tally,
}

impl ClosedLoop {
    pub fn merge(&mut self, other: ClosedLoop) {
        self.done_at.extend(other.done_at);
        self.windows.extend(other.windows);
        self.completed += other.completed;
        self.tally.merge(&other.tally);
    }

    /// Turns a finished phase of length `duration` into per-window
    /// rates; completions after it (the drain) are not counted.
    fn close_phase(&mut self, duration: Duration) {
        let windows = (duration.as_nanos() / PEAK_WINDOW.as_nanos()).max(1) as usize;
        let width = duration.as_secs_f64() / windows as f64;
        let mut counts = vec![0u64; windows];
        for at in self.done_at.drain(..) {
            if let Some(count) = counts.get_mut((at.as_secs_f64() / width) as usize) {
                *count += 1;
            }
        }
        self.windows.extend(counts.iter().map(|&c| c as f64 / width.max(1e-9)));
    }

    /// Completed ops per second: the median over every window.
    pub fn rate(&self) -> f64 {
        median(&self.windows)
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Where a process's main thread sets its own timer slack.
const TIMER_SLACK: &str = "/proc/self/timerslack_ns";

/// Lowers the calling thread's timer slack to 1 ns until dropped.
/// Threads inherit their creator's slack, so generator threads spawned
/// under this guard end their sleeps and receive deadlines on time;
/// the default 50 µs would otherwise be charged to every request they
/// send. Only the main thread may set its own slack through procfs;
/// elsewhere the default stays, and the lag is measured either way as
/// `harness.gen_lag_p99_ms`.
struct TightSlack(Option<String>);

impl TightSlack {
    fn new() -> TightSlack {
        let old = std::fs::read_to_string(TIMER_SLACK).ok();
        let _ = std::fs::write(TIMER_SLACK, "1");
        TightSlack(old)
    }
}

impl Drop for TightSlack {
    fn drop(&mut self) {
        if let Some(old) = &self.0 {
            let _ = std::fs::write(TIMER_SLACK, old.trim());
        }
    }
}

/// A seed for op `index` of phase `phase`, mixed from the run seed.
pub fn op_seed(seed: u64, phase: u64, index: u64) -> u64 {
    splitmix(seed ^ splitmix(phase.wrapping_mul(0x9e37_79b9) ^ index))
}

fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Open loop of full starts: `clients` threads take slots in schedule
/// order; a free client sleeps until its slot is due, a busy system
/// makes the slot wait, and either way latency runs from the slot.
pub fn open_starts(
    world: &World,
    offsets: &[Duration],
    clients: usize,
    seed: u64,
    trace: bool,
) -> OpenLoop {
    let next = AtomicUsize::new(0);
    let addr = world.client_addr();
    let t0 = Instant::now();
    let mut total = OpenLoop::with_capacity(offsets.len());
    std::thread::scope(|scope| {
        let slack = TightSlack::new();
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut r = OpenLoop::with_capacity(offsets.len());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(offset) = offsets.get(i) else { break };
                        let intended = t0 + *offset;
                        let free = Instant::now();
                        if free < intended {
                            std::thread::sleep(intended - free);
                        }
                        let sent = Instant::now();
                        r.lag.push(sent.saturating_duration_since(intended.max(free)));
                        r.tally.attempted += 1;
                        match start_once(world, addr, op_seed(seed, 1, i as u64)) {
                            Ok(spans) => {
                                let done = Instant::now();
                                r.completed(i, *offset, done - intended, trace);
                                if trace && i.is_multiple_of(2) {
                                    r.spans.push(spans);
                                }
                            }
                            Err(e) => r.tally.count_error(&e),
                        }
                        r.elapsed = t0.elapsed();
                    }
                    r
                })
            })
            .collect();
        drop(slack);
        for worker in workers {
            total.merge(worker.join().expect("open-loop client"));
        }
    });
    total
}

/// Closed loop of full starts: `clients` threads, one start in flight
/// each, for `duration`.
pub fn closed_starts(world: &World, duration: Duration, clients: usize, seed: u64) -> ClosedLoop {
    let addr = world.client_addr();
    let t0 = Instant::now();
    let end = t0 + duration;
    let mut total = ClosedLoop::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let mut r = ClosedLoop::default();
                    let mut i = 0u64;
                    while Instant::now() < end {
                        r.tally.attempted += 1;
                        match start_once(world, addr, op_seed(seed, 2 + client as u64, i)) {
                            Ok(_) => {
                                r.completed += 1;
                                r.done_at.push(t0.elapsed());
                            }
                            Err(e) => r.tally.count_error(&e),
                        }
                        i += 1;
                    }
                    r
                })
            })
            .collect();
        for worker in workers {
            total.merge(worker.join().expect("closed-loop client"));
        }
    });
    total.close_phase(duration);
    total
}

/// Open loop of control requests: one thread per session sends each
/// request when due without waiting for earlier replies, and collects
/// replies in order while it waits for the next slot.
pub fn open_sessions(
    sessions: &mut [SecureChannel],
    offsets: &[Vec<Duration>],
    kinds: &[Vec<bool>],
    trace: bool,
) -> OpenLoop {
    let t0 = Instant::now();
    let mut total = OpenLoop::with_capacity(offsets.iter().map(Vec::len).sum());
    std::thread::scope(|scope| {
        let slack = TightSlack::new();
        let workers: Vec<_> = sessions
            .iter_mut()
            .zip(offsets.iter().zip(kinds))
            .map(|(chan, (offsets, kinds))| {
                scope.spawn(move || pipeline_session(chan, t0, offsets, kinds, trace))
            })
            .collect();
        drop(slack);
        for worker in workers {
            total.merge(worker.join().expect("session generator"));
        }
    });
    total
}

fn pipeline_session(
    chan: &mut SecureChannel,
    t0: Instant,
    offsets: &[Duration],
    kinds: &[bool],
    trace: bool,
) -> OpenLoop {
    let mut r = OpenLoop::with_capacity(offsets.len());
    // (op index, intended send, actual send), in send order.
    let mut pending: VecDeque<(usize, Instant, Instant)> = VecDeque::new();
    let mut i = 0;
    while i < offsets.len() || !pending.is_empty() {
        let now = Instant::now();
        let due = offsets.get(i).map(|offset| t0 + *offset);
        if let Some(due) = due.filter(|due| now >= *due) {
            r.lag.push(now - due);
            r.tally.attempted += 1;
            if let Err(e) = chan.send(&control_request(kinds[i])) {
                r.tally.count_error(&OpError::Failed(format!("send: {e}")));
            } else {
                pending.push_back((i, due, now));
            }
            i += 1;
            continue;
        }
        let wait = due.map_or(REPLY_DEADLINE, |due| {
            due.saturating_duration_since(now).max(Duration::from_micros(1))
        });
        if pending.is_empty() {
            std::thread::sleep(wait);
            continue;
        }
        chan.set_recv_timeout(Some(wait));
        match chan.recv() {
            Ok(raw) => {
                let done = Instant::now();
                let (j, intended, sent) = pending.pop_front().expect("a reply answers a request");
                match check_control_reply(kinds[j], &raw) {
                    Ok(()) => {
                        r.completed(j, intended - t0, done - intended, trace);
                        if trace && j.is_multiple_of(2) {
                            r.pipelined_rtt.push(done - sent);
                        }
                    }
                    Err(e) => r.tally.count_error(&e),
                }
                r.elapsed = done - t0;
            }
            Err(NetError::Timeout) if due.is_some() => {}
            Err(e) => {
                // The session is gone (or silent past the deadline):
                // every outstanding and unsent request failed.
                let lost = pending.len() + (offsets.len() - i);
                r.tally.attempted += (offsets.len() - i) as u64;
                for _ in 0..lost {
                    r.tally.count_error(&OpError::Failed(format!("recv: {e}")));
                }
                break;
            }
        }
    }
    chan.set_recv_timeout(None);
    r
}

/// Closed loop of control requests: every session keeps
/// [`PIPELINE_WINDOW`] requests outstanding for `duration`.
pub fn closed_sessions(
    sessions: &mut [SecureChannel],
    duration: Duration,
    seed: u64,
) -> ClosedLoop {
    let t0 = Instant::now();
    let end = t0 + duration;
    let mut total = ClosedLoop::default();
    std::thread::scope(|scope| {
        let workers: Vec<_> = sessions
            .iter_mut()
            .enumerate()
            .map(|(s, chan)| {
                scope.spawn(move || {
                    let mut r = ClosedLoop::default();
                    let mut inflight: VecDeque<bool> = VecDeque::new();
                    let mut i = 0u64;
                    chan.set_recv_timeout(Some(REPLY_DEADLINE));
                    loop {
                        while inflight.len() < PIPELINE_WINDOW && Instant::now() < end {
                            let challenge = op_seed(seed, 10 + s as u64, i).is_multiple_of(2);
                            i += 1;
                            r.tally.attempted += 1;
                            match chan.send(&control_request(challenge)) {
                                Ok(()) => inflight.push_back(challenge),
                                Err(e) => {
                                    r.tally.count_error(&OpError::Failed(format!("send: {e}")))
                                }
                            }
                        }
                        let Some(challenge) = inflight.pop_front() else { break };
                        match chan.recv() {
                            Ok(raw) => match check_control_reply(challenge, &raw) {
                                Ok(()) => {
                                    r.completed += 1;
                                    r.done_at.push(t0.elapsed());
                                }
                                Err(e) => r.tally.count_error(&e),
                            },
                            Err(e) => {
                                for _ in 0..=inflight.len() {
                                    r.tally.count_error(&OpError::Failed(format!("recv: {e}")));
                                }
                                break;
                            }
                        }
                    }
                    chan.set_recv_timeout(None);
                    r
                })
            })
            .collect();
        for worker in workers {
            total.merge(worker.join().expect("closed-loop session"));
        }
    });
    total.close_phase(duration);
    total
}
