//! The one owner of the CAS's durable-state checkpoints.
//!
//! A checkpoint seals the issuer's state into the volume as a snapshot
//! and truncates the journal it covers. The journal alone already
//! makes every acked grant and redemption crash-absolute; a checkpoint
//! only bounds how much journal a restart replays and how large the
//! volume grows.
//!
//! Grants and redemptions only mark a checkpoint *due*; the thread
//! that next writes a reply claims it with one swap and runs it after
//! that reply. [`CasServer::persist_state`] runs one directly.

use crate::server::{CasServer, DEFAULT_SNAPSHOT_CADENCE};
use sinclave::journal_record::JournalRecord;
use sinclave::SinclaveError;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};

/// `persisted_epoch` while the volume holds no restorable snapshot: no
/// live epoch equals it, so the next checkpoint always writes.
const NOTHING_ON_DISK: u64 = u64::MAX;

/// How the sealed redemption journal is driven (see the server module
/// docs' durability section; `ablation/journal` measures all three).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum JournalMode {
    /// No journaling: exactly-once across crashes falls back to being
    /// snapshot-relative (the pre-journal behavior, kept as the
    /// bench baseline and an explicit opt-out).
    Disabled,
    /// One sealed append per record — the honest fsync-per-redemption
    /// ablation: maximal durability granularity, no batching window,
    /// worst throughput.
    PerRecord,
    /// Group commit (the default): concurrent commits coalesce into
    /// one sealed append; replies are held until their batch seals.
    GroupCommit,
}

impl JournalMode {
    fn from_u8(value: u8) -> JournalMode {
        match value {
            0 => JournalMode::Disabled,
            1 => JournalMode::PerRecord,
            _ => JournalMode::GroupCommit,
        }
    }
}

/// Checkpoint state and the checkpoint procedure, owned by one
/// [`CasServer`].
pub(crate) struct Checkpointer {
    /// Mark a checkpoint due after every this many grants and every
    /// this many redemptions; `0` turns the cadence off.
    cadence: AtomicU64,
    /// Set by a cadence crossing; cleared by the one thread that
    /// claims it.
    due: AtomicBool,
    /// Serializes checkpoints: two interleaved ones could truncate a
    /// journal epoch holding a record whose redemption a stale,
    /// about-to-be-written snapshot does not cover — losing an acked
    /// event. Held across rotate → checkpoint record → export → write
    /// → truncate; the journal commit path never takes it, so
    /// redemptions are not serialized behind checkpoints.
    persist_lock: parking_lot::Mutex<()>,
    /// Encoded [`JournalMode`].
    journal_mode: AtomicU8,
    /// Monotonic restore generation: the value of the last persisted
    /// snapshot or checkpoint record. Compared against an externally
    /// kept witness by [`CasServer::check_rollback`].
    generation: AtomicU64,
    /// The issuer mutation epoch the on-disk snapshot covers, or
    /// [`NOTHING_ON_DISK`]; a checkpoint is skipped while the live
    /// epoch still matches.
    persisted_epoch: AtomicU64,
    /// Consecutive failed checkpoints — the health verdict's
    /// durability signal, since a cadence checkpoint has no caller to
    /// report to. Reset by the next successful write.
    failures: AtomicU64,
}

impl Checkpointer {
    pub(crate) fn new() -> Checkpointer {
        Checkpointer {
            cadence: AtomicU64::new(DEFAULT_SNAPSHOT_CADENCE),
            due: AtomicBool::new(false),
            persist_lock: parking_lot::Mutex::new(()),
            journal_mode: AtomicU8::new(JournalMode::GroupCommit as u8),
            generation: AtomicU64::new(0),
            persisted_epoch: AtomicU64::new(NOTHING_ON_DISK),
            failures: AtomicU64::new(0),
        }
    }

    pub(crate) fn set_cadence(&self, every_events: u64) {
        self.cadence.store(every_events, Ordering::Relaxed);
    }

    /// Marks a checkpoint due when `count` — a just-incremented grant
    /// or redemption count — is a multiple of the cadence.
    pub(crate) fn note_event(&self, count: u64) {
        let cadence = self.cadence.load(Ordering::Relaxed);
        if cadence != 0 && count.is_multiple_of(cadence) {
            self.due.store(true, Ordering::Release);
        }
    }

    /// Claims the due checkpoint: `true` for exactly one caller per
    /// marking. Every served reply asks, so the common answer is a
    /// plain load that leaves the flag's cache line shared.
    pub(crate) fn claim_due(&self) -> bool {
        self.due.load(Ordering::Relaxed) && self.due.swap(false, Ordering::AcqRel)
    }

    pub(crate) fn journal_mode(&self) -> JournalMode {
        JournalMode::from_u8(self.journal_mode.load(Ordering::Relaxed))
    }

    pub(crate) fn set_journal_mode(&self, mode: JournalMode) {
        self.journal_mode.store(mode as u8, Ordering::Relaxed);
    }

    pub(crate) fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// A checkpoint record replayed from the journal or the
    /// replication stream: generations only rise.
    pub(crate) fn observe_generation(&self, generation: u64) {
        self.generation.fetch_max(generation, Ordering::Relaxed);
    }

    /// The volume now holds a snapshot at `generation` — restored,
    /// adopted or just written — covering issuer mutation `epoch`.
    pub(crate) fn record_on_disk(&self, generation: u64, epoch: u64) {
        self.generation.store(generation, Ordering::Relaxed);
        self.persisted_epoch.store(epoch, Ordering::Relaxed);
    }

    /// Whether the volume holds a restorable snapshot (restored,
    /// adopted or written by this server).
    pub(crate) fn snapshot_on_disk(&self) -> bool {
        self.persisted_epoch.load(Ordering::Relaxed) != NOTHING_ON_DISK
    }

    /// Whether the last checkpoint failed and none has succeeded since.
    pub(crate) fn failing(&self) -> bool {
        self.failures.load(Ordering::Relaxed) > 0
    }

    /// Runs one checkpoint of `server`'s state, skipped (and counted in
    /// `snapshot_skipped_clean`) while the state is unchanged since the
    /// last one. A crash at any point leaves either the old snapshot
    /// plus the full journal or the new snapshot plus a replayable
    /// (idempotent) suffix — never a lost acked event. Every failure is
    /// counted in `snapshot_persist_failed` and keeps
    /// [`Checkpointer::failing`] set until a checkpoint succeeds.
    pub(crate) fn run(&self, server: &CasServer) -> Result<(), SinclaveError> {
        // A checkpoint is a write: on a follower its record would take
        // a local sequence number that collides with the primary's.
        server.route_write().local()?;
        let _checkpointing = self.persist_lock.lock();
        let epoch = server.issuer().mutation_epoch();
        if epoch == self.persisted_epoch.load(Ordering::Relaxed) {
            server.stats.snapshot_skipped_clean.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let written = self.write(server, epoch);
        if written.is_err() {
            server.stats.snapshot_persist_failed.fetch_add(1, Ordering::Relaxed);
            self.failures.fetch_add(1, Ordering::Relaxed);
        }
        written
    }

    /// Rotate → checkpoint record → export → write → truncate, under
    /// the persist lock.
    fn write(&self, server: &CasServer, epoch: u64) -> Result<(), SinclaveError> {
        let store = server.store();
        let generation = self.generation() + 1;
        let journaling = self.journal_mode() != JournalMode::Disabled;
        let retired = if journaling { store.rotate_journal()? } else { Vec::new() };
        if journaling {
            server.commit_record(JournalRecord::Checkpoint { generation })?;
        }
        // The snapshot is current through every journal record whose
        // commit completed before this point (their in-memory
        // mutations strictly precede their commits, and the export
        // below reads after this): stamp that sequence as the replay
        // continuity baseline.
        let journal_sequence = server.journal_sequence();
        let mut snapshot = server.issuer().export_snapshot();
        snapshot.generation = generation;
        snapshot.journal_sequence = journal_sequence;
        snapshot.fence = server.fence();
        store.persist_state(&snapshot.to_bytes())?;
        self.record_on_disk(generation, epoch);
        server.stats.snapshot_persisted.fetch_add(1, Ordering::Relaxed);
        self.failures.store(0, Ordering::Relaxed);
        if journaling {
            // Truncation is best-effort: a failure leaves extra epochs
            // whose replay over the new snapshot is an idempotent
            // no-op; the next checkpoint retires them again.
            let _ = store.remove_journal_epochs(&retired);
        }
        Ok(())
    }
}
