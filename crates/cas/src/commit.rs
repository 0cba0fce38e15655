//! Group commit for the sealed redemption journal.
//!
//! Every acked redemption (and grant) must be durable in the journal
//! *before* its reply leaves the server. Paying one sealed volume
//! append per event would serialize the reactor's compute workers
//! behind the volume lock; the classic fix — QASM-style batched
//! state-delta commits, as in group-committing databases — is to let
//! one thread flush while everyone else queues:
//!
//! 1. a committer takes the pipe lock, claims the next sequence
//!    number, and queues its record;
//! 2. if no flush is in flight it becomes the **leader**: it takes
//!    the whole pending queue (its own record plus everything that
//!    accumulated while the previous leader was writing), seals the
//!    batch as *one* journal append, and wakes the waiters;
//! 3. otherwise it waits — by the time the current leader finishes,
//!    this record is either already durable (it rode along) or the
//!    committer becomes the next leader for the accumulated batch.
//!
//! Under concurrency, N redemptions cost ~1 sealed append instead of
//! N; with one client the batch degenerates to a single record and
//! the cost is exactly the honest fsync-per-redemption lower bound
//! ([`crate::server::JournalMode::PerRecord`] pins that ablation by
//! never coalescing). Replies are held until the covering batch is
//! sealed — that ack-latency-for-throughput trade is the documented
//! batching window.
//!
//! Failure is fail-closed: if the leader's append errors, every
//! record in that batch reports failure to its committer and the
//! reply is denied — the in-memory state may be ahead of the journal
//! (a consumed token stays consumed; nothing is ever *un*-redeemed),
//! which can refuse service but can never widen trust.

use crate::server::CasStats;
use sinclave::journal_record::{encode_batch, JournalRecord, SequencedRecord};
use sinclave::SinclaveError;
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, PoisonError};

/// A flushed batch whose append failed, kept until every committer
/// waiting on it has read the verdict. Needed because a *later* batch
/// can succeed after an earlier one failed: "my ticket is below the
/// completed watermark" alone would then misreport the failed records
/// as durable — exactly the ack-without-record outcome the pipe
/// exists to prevent.
struct FailedBatch {
    /// First ticket the failed append covered.
    first: u64,
    /// Last ticket the failed append covered.
    last: u64,
    /// Committers that still have to observe the failure (every
    /// record has exactly one synchronous committer). The entry is
    /// dropped when this reaches zero, so the list stays bounded by
    /// the number of concurrently waiting threads.
    waiters: usize,
}

/// The committers' shared state.
///
/// Enqueued records are tracked by *ticket* (admission order); the
/// on-disk *sequence numbers* are assigned by the leader at flush
/// time, continuing from the last **successful** append. A failed
/// append therefore consumes no sequence numbers: the journal's
/// sequence stays dense on disk through transient write failures, so
/// the replayer's gap check remains what it claims to be — proof of a
/// deleted committed record, never a false tamper alarm. (This relies
/// on the volume's append contract: an errored append wrote nothing.
/// A device that may land uncertain writes would need write fencing
/// before sequence reuse.)
struct PipeState {
    /// Next admission ticket to hand out.
    next_ticket: u64,
    /// Records queued for the next flush, in ticket order.
    pending: Vec<(u64, JournalRecord)>,
    /// Whether a leader is currently writing a batch.
    flushing: bool,
    /// Highest ticket covered by a finished flush. Batches flush in
    /// ticket order, so `completed >= ticket` means that ticket's
    /// batch is done — successfully unless it is recorded in `failed`.
    completed: u64,
    /// Last sequence number durably on disk (successful appends only).
    durable_seq: u64,
    /// Batches whose append failed, pending verdict pickup.
    failed: Vec<FailedBatch>,
}

/// The group-commit pipe: sequences records and batches concurrent
/// commits into shared sealed appends.
pub(crate) struct CommitPipe {
    state: Mutex<PipeState>,
    flushed: Condvar,
}

impl CommitPipe {
    /// A pipe whose first durable record gets sequence number 1.
    pub fn new() -> Self {
        CommitPipe {
            state: Mutex::new(PipeState {
                next_ticket: 1,
                pending: Vec::new(),
                flushing: false,
                completed: 0,
                durable_seq: 0,
                failed: Vec::new(),
            }),
            flushed: Condvar::new(),
        }
    }

    /// Continues the sequence after a journal replay: the next durable
    /// record gets `last_replayed + 1`. Call before any commit.
    pub fn resume_after(&self, last_replayed: u64) {
        // Recovering a poisoned guard is sound here: the sequence
        // cursor is overwritten wholesale, not read-modify-written.
        self.state.lock().unwrap_or_else(PoisonError::into_inner).durable_seq = last_replayed;
    }

    /// The last sequence number durably on disk. Deployments witness
    /// this alongside the restore generation so
    /// [`crate::server::CasServer::check_rollback`] can detect a host
    /// deleting the journal's committed tail — which would otherwise
    /// be indistinguishable from a clean journal end.
    pub fn sequence(&self) -> u64 {
        self.state.lock().unwrap_or_else(PoisonError::into_inner).durable_seq
    }

    /// The verdict for `ticket` once its batch has completed:
    /// `Some(Ok)` if the covering append succeeded, `Some(Err)`
    /// (consuming one failure-waiter slot) if it failed, `None` while
    /// still pending.
    fn verdict(state: &mut PipeState, ticket: u64) -> Option<Result<(), SinclaveError>> {
        if let Some(pos) =
            state.failed.iter().position(|batch| batch.first <= ticket && ticket <= batch.last)
        {
            state.failed[pos].waiters -= 1;
            if state.failed[pos].waiters == 0 {
                state.failed.swap_remove(pos);
            }
            return Some(Err(SinclaveError::JournalInvalid { context: "journal append failed" }));
        }
        (state.completed >= ticket).then_some(Ok(()))
    }

    /// Commits one record: returns once the batch containing it has
    /// been appended durably (`append` is the sealed-volume write; it
    /// also receives the batch's last sequence number).
    /// With `coalesce`, the leader flushes everything pending as one
    /// batch; without it, strictly one record per append (the
    /// fsync-per-redemption ablation).
    ///
    /// Successful and failed appends are counted into
    /// `stats.journal_appended` / `stats.journal_append_failed` by
    /// whichever committer led the flush.
    ///
    /// # Errors
    ///
    /// Returns [`SinclaveError::JournalInvalid`] if the append
    /// covering this record failed — the caller must not ack.
    pub fn commit(
        &self,
        coalesce: bool,
        record: JournalRecord,
        stats: &CasStats,
        append: impl Fn(&[u8], u64) -> Result<(), SinclaveError>,
    ) -> Result<(), SinclaveError> {
        // A poisoned pipe degrades to a refused commit: the caller
        // reports it to the middleware chain, the circuit breaker
        // opens, and the server sheds load instead of aborting.
        let mut state = self
            .state
            .lock()
            .map_err(|_| SinclaveError::JournalInvalid { context: "commit pipe poisoned" })?;
        let ticket = state.next_ticket;
        state.next_ticket += 1;
        state.pending.push((ticket, record));
        loop {
            if let Some(verdict) = Self::verdict(&mut state, ticket) {
                return verdict;
            }
            if state.flushing {
                state = self.flushed.wait(state).map_err(|_| SinclaveError::JournalInvalid {
                    context: "commit pipe poisoned",
                })?;
                continue;
            }
            // Become the leader for whatever has accumulated. In
            // per-record mode the front record may not be our own; we
            // keep leading until our own verdict is in.
            state.flushing = true;
            let batch: Vec<(u64, JournalRecord)> = if coalesce {
                std::mem::take(&mut state.pending)
            } else {
                state.pending.drain(..1).collect()
            };
            // Sequence numbers are assigned now, continuing from the
            // last *successful* append — see the PipeState docs.
            let first_seq = state.durable_seq + 1;
            let records: Vec<SequencedRecord> = batch
                .iter()
                .enumerate()
                .map(|(i, &(_, record))| SequencedRecord { seq: first_seq + i as u64, record })
                .collect();
            drop(state);
            let last_seq = first_seq + batch.len() as u64 - 1;
            let result = append(&encode_batch(&records), last_seq);
            // lint: allow(panic) — batch holds at least the leader's own record
            let (first, last) = (batch[0].0, batch.last().expect("non-empty batch").0);
            // Re-locking must not bail out early: `flushing` is ours to
            // clear and the waiters are ours to wake, so recover the
            // guard even if another thread poisoned the mutex.
            state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
            state.flushing = false;
            state.completed = last;
            if result.is_ok() {
                state.durable_seq = last_seq;
                stats.journal_appended.fetch_add(batch.len() as u64, Ordering::Relaxed);
            } else {
                stats.journal_append_failed.fetch_add(batch.len() as u64, Ordering::Relaxed);
                // Everyone in the batch except (possibly) ourselves
                // still has to pick up the failure.
                let own = usize::from(first <= ticket && ticket <= last);
                if batch.len() > own {
                    state.failed.push(FailedBatch { first, last, waiters: batch.len() - own });
                }
                if own == 1 {
                    self.flushed.notify_all();
                    return Err(SinclaveError::JournalInvalid { context: "journal append failed" });
                }
            }
            self.flushed.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicU64};
    use std::sync::Barrier;

    fn record(fill: u8) -> JournalRecord {
        JournalRecord::TokenRedeemed { token: [fill; 32] }
    }

    #[test]
    fn failed_batch_is_not_acked_by_a_later_success() {
        // The regression this structure exists for: batch 1 fails,
        // batch 2 succeeds. The committer of batch 1's record must see
        // the failure even though the pipe has since moved past its
        // sequence number.
        let pipe = CommitPipe::new();
        let stats = CasStats::default();
        let fail = AtomicBool::new(true);
        let durable = Mutex::new(Vec::new());
        let append = |payload: &[u8], _last_seq: u64| {
            if fail.load(Ordering::Relaxed) {
                Err(SinclaveError::JournalInvalid { context: "injected" })
            } else {
                durable.lock().unwrap().extend_from_slice(payload);
                Ok(())
            }
        };
        assert!(pipe.commit(true, record(1), &stats, append).is_err());
        fail.store(false, Ordering::Relaxed);
        assert!(pipe.commit(true, record(2), &stats, append).is_ok());
        assert_eq!(stats.journal_appended.load(Ordering::Relaxed), 1);
        assert_eq!(stats.journal_append_failed.load(Ordering::Relaxed), 1);
        assert!(pipe.state.lock().unwrap().failed.is_empty(), "verdicts all consumed");
        // A failed append consumes no sequence numbers: what is on
        // disk is dense, so a transient write failure can never read
        // as a tamper-gap to the replayer.
        let on_disk = sinclave::journal_record::decode_batch(&durable.lock().unwrap());
        assert_eq!(on_disk.damaged, None);
        assert_eq!(on_disk.records.len(), 1);
        assert_eq!(on_disk.records[0].seq, 1, "failed append left a sequence hole");
        assert_eq!(pipe.sequence(), 1);
    }

    #[test]
    fn concurrent_commits_share_appends_and_all_ack() {
        let pipe = CommitPipe::new();
        let stats = CasStats::default();
        let appends = AtomicU64::new(0);
        let barrier = Barrier::new(8);
        std::thread::scope(|scope| {
            for i in 0..8u8 {
                let (pipe, stats, appends, barrier) = (&pipe, &stats, &appends, &barrier);
                scope.spawn(move || {
                    barrier.wait();
                    pipe.commit(true, record(i), stats, |payload, _| {
                        appends.fetch_add(1, Ordering::Relaxed);
                        // A tiny stall lets arrivals coalesce.
                        std::thread::sleep(std::time::Duration::from_micros(200));
                        assert!(!payload.is_empty());
                        Ok(())
                    })
                    .expect("commit");
                });
            }
        });
        assert_eq!(stats.journal_appended.load(Ordering::Relaxed), 8, "every record durable");
        assert!(appends.load(Ordering::Relaxed) <= 8, "never more appends than records");
        assert_eq!(pipe.sequence(), 8);
    }

    #[test]
    fn concurrent_commits_with_failures_each_get_their_own_verdict() {
        // Mixed outcomes under concurrency: every committer must get
        // the verdict of *its own* batch, and the failure list must
        // drain completely.
        let pipe = CommitPipe::new();
        let stats = CasStats::default();
        let calls = AtomicU64::new(0);
        let barrier = Barrier::new(8);
        let (ok, failed): (Vec<_>, Vec<_>) = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u8)
                .map(|i| {
                    let (pipe, stats, calls, barrier) = (&pipe, &stats, &calls, &barrier);
                    scope.spawn(move || {
                        barrier.wait();
                        pipe.commit(true, record(i), stats, |_, _| {
                            // Every other append fails.
                            if calls.fetch_add(1, Ordering::Relaxed) % 2 == 0 {
                                std::thread::sleep(std::time::Duration::from_micros(100));
                                Err(SinclaveError::JournalInvalid { context: "injected" })
                            } else {
                                std::thread::sleep(std::time::Duration::from_micros(100));
                                Ok(())
                            }
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("thread")).partition(Result::is_ok)
        });
        assert_eq!(ok.len() + failed.len(), 8);
        assert_eq!(
            stats.journal_appended.load(Ordering::Relaxed),
            ok.len() as u64,
            "acked exactly the records whose batch succeeded"
        );
        assert_eq!(stats.journal_append_failed.load(Ordering::Relaxed), failed.len() as u64);
        assert!(pipe.state.lock().unwrap().failed.is_empty(), "failure verdicts all consumed");
    }
}
