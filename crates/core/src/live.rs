//! Live datasets: append-only logs, sealed segments, and watermarked
//! snapshots.
//!
//! Every other dataset kind in this workspace is immutable at load. This
//! module is the growing kind: an [`AppendLog`] accepts out-of-order scored
//! tuples into a bounded staging buffer and, on [`AppendLog::seal`] (explicit
//! or automatic once staging reaches capacity), sorts the buffer into an
//! immutable **rank-ordered segment** and atomically publishes a new
//! epoch-numbered [`LiveSnapshot`] — an `Arc`'d list of sealed segments,
//! LSM-style. Readers clone the current snapshot under a short lock and then
//! scan entirely outside it, so:
//!
//! * **readers never block appenders** (and vice versa) — a scan holds only
//!   `Arc`s to segments that can never change;
//! * **every query sees one consistent watermark** — the segment list is
//!   swapped atomically, so a scan observes exactly the rows sealed up to
//!   one epoch, never a torn half-seal;
//! * staged-but-unsealed rows are invisible to queries, which is what makes
//!   the answer at a given epoch deterministic and cacheable.
//!
//! [`LiveDataset`] adapts a shared log to [`DatasetProvider`]: opening a
//! snapshot fuses its sealed segments under the same loser-tree k-way merge
//! the shard fabric uses, so the Theorem-2 rank scan, `execute_batch`,
//! `explain` and the serving daemon all work over live data unchanged. Since
//! [`rank_key`](ttk_uncertain::UncertainTuple::rank_key) is a total order
//! (ids are unique), merging per-segment sorted runs yields the exact
//! sequence a one-shot sort of all rows would — snapshot scans are
//! bit-identical to the equivalent static table regardless of how appends
//! were batched or interleaved with seals.
//!
//! Sealing also wakes subscribers: [`AppendLog::wait_for_epoch_beyond`] is
//! the blocking primitive the serving daemon's standing-query loop uses to
//! sleep until the watermark advances.
//!
//! Long-lived logs accumulate segments, and every scan re-merges all of
//! them. **Compaction** folds sealed segments back through the same k-way
//! merge into one segment and publishes the result as a new epoch — either
//! automatically when a seal would push the snapshot past a configured bound
//! ([`AppendLog::with_compact_at`]) or on demand ([`AppendLog::compact`],
//! the admin plane's `compact` verb). Because
//! [`rank_key`](ttk_uncertain::UncertainTuple::rank_key) is a total order,
//! the folded segment is bit-identical to the sequence the fragmented scan
//! produced, so compaction is invisible to queries except for the epoch
//! bump (and the speed).

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ttk_uncertain::{Error, Result, ScanHandle, SourceTuple, TupleSource, VecSource};

use crate::session::{DatasetPlan, DatasetProvider, ScanPath};

/// ME-group probability mass may exceed 1.0 by at most this much (matches
/// the table builder's tolerance).
const GROUP_MASS_TOLERANCE: f64 = 1e-6;

/// What one [`AppendLog::append`] or [`AppendLog::seal`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AppendOutcome {
    /// The epoch of the snapshot current after the call.
    pub epoch: u64,
    /// Rows staged (appended but not yet sealed) after the call.
    pub staged: u64,
    /// Rows visible to queries (across all sealed segments) after the call.
    pub sealed_rows: u64,
    /// True when this call sealed a segment (explicitly or because staging
    /// reached capacity) and advanced the epoch.
    pub sealed_now: bool,
}

/// One published watermark: the sealed segments visible at one epoch.
///
/// Immutable — the segment list is cloned out of the log under its lock and
/// every segment is an `Arc` to a rank-ordered `Vec` that is never mutated
/// after sealing. Scans opened from a snapshot are unaffected by concurrent
/// appends and seals.
#[derive(Debug, Clone)]
pub struct LiveSnapshot {
    epoch: u64,
    segments: Vec<Arc<Vec<SourceTuple>>>,
    rows: usize,
    compacted_epoch: u64,
}

impl LiveSnapshot {
    /// The snapshot's epoch: 0 before the first seal, +1 per seal.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Epoch at which the log's segments were most recently compacted
    /// (`0` when the log was never compacted).
    pub fn compacted_epoch(&self) -> u64 {
        self.compacted_epoch
    }

    /// Number of sealed segments under the merge.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Total rows across all sealed segments.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Opens the snapshot as a rank-ordered scan: each sealed segment
    /// replays as its own source, fused under the loser-tree k-way merge
    /// (one segment or none short-circuits to a single stream).
    pub fn open(&self) -> ScanHandle {
        let mut sources: Vec<VecSource> = self
            .segments
            .iter()
            .map(|segment| VecSource::new((**segment).clone()))
            .collect();
        match sources.len() {
            0 => ScanHandle::single(VecSource::new(Vec::new())),
            1 => ScanHandle::single(sources.remove(0)),
            _ => ScanHandle::merged(sources),
        }
    }
}

/// The mutable half of an [`AppendLog`], guarded by one mutex.
struct LogState {
    /// Rows appended but not yet sealed — invisible to queries.
    staging: Vec<SourceTuple>,
    /// Every tuple id ever accepted (staged or sealed) — appends must be
    /// unique so rank order stays a total order.
    seen_ids: HashSet<u64>,
    /// Cumulative probability mass per shared ME group, across staged and
    /// sealed rows. Masses only accumulate: a group spans segments, so its
    /// bound must hold over the log's whole lifetime.
    group_mass: HashMap<u64, f64>,
    /// The current published watermark.
    snapshot: Arc<LiveSnapshot>,
}

/// An append-only store of scored tuples with atomically published,
/// epoch-numbered snapshots.
///
/// Appends land in a bounded staging buffer; [`seal`](AppendLog::seal)
/// (explicit, or automatic once staging reaches the configured capacity)
/// sorts the buffer into an immutable rank-ordered segment and publishes a
/// new [`LiveSnapshot`] whose epoch is one higher. Validation happens at
/// append time and is batch-atomic: a batch that contains a duplicate id or
/// overfills an ME group's probability mass is rejected whole, leaving the
/// log unchanged.
///
/// The log is fully thread-safe; share it behind an `Arc` between appenders,
/// a [`LiveDataset`], and subscription loops.
pub struct AppendLog {
    state: Mutex<LogState>,
    sealed: Condvar,
    staging_capacity: usize,
    compact_at: usize,
    subscribers: AtomicU64,
}

impl AppendLog {
    /// A new, empty log that auto-seals whenever staging reaches
    /// `staging_capacity` rows (clamped to at least 1).
    pub fn new(staging_capacity: usize) -> Self {
        AppendLog {
            state: Mutex::new(LogState {
                staging: Vec::new(),
                seen_ids: HashSet::new(),
                group_mass: HashMap::new(),
                snapshot: Arc::new(LiveSnapshot {
                    epoch: 0,
                    segments: Vec::new(),
                    rows: 0,
                    compacted_epoch: 0,
                }),
            }),
            sealed: Condvar::new(),
            staging_capacity: staging_capacity.max(1),
            compact_at: 0,
            subscribers: AtomicU64::new(0),
        }
    }

    /// Enables automatic LSM-style compaction: whenever a seal would publish
    /// more than `bound` segments, the oldest segments are folded through
    /// the k-way merge into one so the snapshot lands exactly at `bound`
    /// (clamped to at least 2). `0` disables auto-compaction (the default);
    /// [`AppendLog::compact`] stays available either way.
    pub fn with_compact_at(mut self, bound: usize) -> Self {
        self.compact_at = if bound == 0 { 0 } else { bound.max(2) };
        self
    }

    /// The staging capacity that triggers an automatic seal.
    pub fn staging_capacity(&self) -> usize {
        self.staging_capacity
    }

    /// The segment-count bound that triggers automatic compaction on seal
    /// (`0` = auto-compaction disabled).
    pub fn compact_at(&self) -> usize {
        self.compact_at
    }

    /// Appends a batch of rows to the staging buffer, sealing automatically
    /// when the buffer reaches capacity.
    ///
    /// The batch is atomic: it is validated in full first (unique ids across
    /// the batch, the staged rows and every sealed segment; shared ME-group
    /// probability mass bounded by 1), and only then committed — a rejected
    /// batch leaves the log exactly as it was.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] for a duplicate tuple id or an
    /// ME group whose cumulative probability mass would exceed 1.
    pub fn append(&self, rows: Vec<SourceTuple>) -> Result<AppendOutcome> {
        let mut state = self.lock_state();

        // Phase 1: validate the whole batch against current state.
        let mut batch_ids = HashSet::with_capacity(rows.len());
        let mut batch_mass: HashMap<u64, f64> = HashMap::new();
        for row in &rows {
            let id = row.tuple.id().raw();
            if state.seen_ids.contains(&id) || !batch_ids.insert(id) {
                return Err(Error::InvalidParameter(format!(
                    "append rejected: tuple id {id} already exists in the log \
                     (ids must be unique across all appends)"
                )));
            }
            if let ttk_uncertain::GroupKey::Shared(group) = row.group {
                let mass = batch_mass.entry(group).or_insert(0.0);
                *mass += row.tuple.prob();
                let total = state.group_mass.get(&group).copied().unwrap_or(0.0) + *mass;
                if total > 1.0 + GROUP_MASS_TOLERANCE {
                    return Err(Error::InvalidParameter(format!(
                        "append rejected: ME group {group} probability mass \
                         would reach {total} (> 1); mutually exclusive \
                         alternatives cannot exceed total probability 1"
                    )));
                }
            }
        }

        // Phase 2: commit.
        state.seen_ids.extend(batch_ids);
        for (group, mass) in batch_mass {
            *state.group_mass.entry(group).or_insert(0.0) += mass;
        }
        state.staging.extend(rows);

        let sealed_now = state.staging.len() >= self.staging_capacity;
        if sealed_now {
            self.seal_locked(&mut state);
        }
        Ok(self.outcome(&state, sealed_now))
    }

    /// Seals the staging buffer into a new immutable segment and publishes
    /// the next epoch's snapshot, waking every waiting subscriber. A no-op
    /// (same epoch, nothing woken) when staging is empty.
    pub fn seal(&self) -> AppendOutcome {
        let mut state = self.lock_state();
        if state.staging.is_empty() {
            return self.outcome(&state, false);
        }
        self.seal_locked(&mut state);
        self.outcome(&state, true)
    }

    /// The currently published snapshot (cheap: one `Arc` clone under the
    /// lock).
    pub fn snapshot(&self) -> Arc<LiveSnapshot> {
        Arc::clone(&self.lock_state().snapshot)
    }

    /// The current epoch (0 until the first seal).
    pub fn epoch(&self) -> u64 {
        self.lock_state().snapshot.epoch
    }

    /// Rows staged but not yet sealed (invisible to queries).
    pub fn staged_rows(&self) -> usize {
        self.lock_state().staging.len()
    }

    /// Blocks until a snapshot with an epoch strictly beyond `epoch` is
    /// published, or `timeout` elapses. Returns the newer snapshot, or
    /// `None` on timeout — the caller's cue to re-check its own stop
    /// conditions and wait again.
    pub fn wait_for_epoch_beyond(
        &self,
        epoch: u64,
        timeout: Duration,
    ) -> Option<Arc<LiveSnapshot>> {
        let deadline = Instant::now() + timeout;
        let mut state = self.lock_state();
        loop {
            if state.snapshot.epoch > epoch {
                return Some(Arc::clone(&state.snapshot));
            }
            let remaining = deadline.checked_duration_since(Instant::now())?;
            let (next, wait) = self
                .sealed
                .wait_timeout(state, remaining)
                .expect("append log poisoned");
            state = next;
            if wait.timed_out() && state.snapshot.epoch <= epoch {
                return None;
            }
        }
    }

    /// Registers a standing subscriber; the count drops when the returned
    /// guard does. Purely diagnostic — the daemon's log lines report how
    /// many watchers a live dataset has.
    pub fn subscribe(self: &Arc<Self>) -> SubscriberGuard {
        self.subscribers.fetch_add(1, Ordering::Relaxed);
        SubscriberGuard {
            log: Arc::clone(self),
        }
    }

    /// Number of live subscriber guards.
    pub fn subscriber_count(&self) -> u64 {
        self.subscribers.load(Ordering::Relaxed)
    }

    fn lock_state(&self) -> std::sync::MutexGuard<'_, LogState> {
        self.state.lock().expect("append log poisoned")
    }

    /// Folds every sealed segment through the k-way merge into one and
    /// publishes the result as a new epoch, waking every waiting subscriber.
    /// Staged rows are untouched (they are not sealed — compaction never
    /// changes what queries can see). A no-op when the snapshot already has
    /// at most one segment.
    ///
    /// In-flight scans keep their `Arc`'d pre-compaction snapshot; the
    /// merged segment is bit-identical to the fragmented scan because
    /// [`rank_key`](ttk_uncertain::UncertainTuple::rank_key) is a total
    /// order.
    pub fn compact(&self) -> CompactionOutcome {
        let mut state = self.lock_state();
        let segments_before = state.snapshot.segments.len();
        if segments_before <= 1 {
            return CompactionOutcome {
                epoch: state.snapshot.epoch,
                segments_before,
                segments_after: segments_before,
                rows: state.snapshot.rows,
                compacted_now: false,
            };
        }
        let folded = Arc::new(merged_rows(&state.snapshot.segments));
        let rows = folded.len();
        let epoch = state.snapshot.epoch + 1;
        state.snapshot = Arc::new(LiveSnapshot {
            epoch,
            segments: vec![folded],
            rows,
            compacted_epoch: epoch,
        });
        self.sealed.notify_all();
        CompactionOutcome {
            epoch,
            segments_before,
            segments_after: 1,
            rows,
            compacted_now: true,
        }
    }

    /// Sorts staging into a segment and publishes the next snapshot,
    /// auto-compacting the oldest segments first when the result would
    /// exceed the configured bound. Caller holds the lock and guarantees
    /// staging is non-empty.
    fn seal_locked(&self, state: &mut LogState) {
        let mut rows = std::mem::take(&mut state.staging);
        rows.sort_by_key(|row| row.tuple.rank_key());
        let mut segments = state.snapshot.segments.clone();
        segments.push(Arc::new(rows));
        let next_epoch = state.snapshot.epoch + 1;
        let mut compacted_epoch = state.snapshot.compacted_epoch;
        if self.compact_at > 0 && segments.len() > self.compact_at {
            // Fold the oldest segments into one so the published snapshot
            // lands exactly at the bound — one epoch, never a torn
            // intermediate state.
            let fold = segments.len() - self.compact_at + 1;
            let folded = Arc::new(merged_rows(&segments[..fold]));
            segments.splice(..fold, [folded]);
            compacted_epoch = next_epoch;
        }
        let rows = segments.iter().map(|segment| segment.len()).sum();
        state.snapshot = Arc::new(LiveSnapshot {
            epoch: next_epoch,
            segments,
            rows,
            compacted_epoch,
        });
        self.sealed.notify_all();
    }

    fn outcome(&self, state: &LogState, sealed_now: bool) -> AppendOutcome {
        AppendOutcome {
            epoch: state.snapshot.epoch,
            staged: state.staging.len() as u64,
            sealed_rows: state.snapshot.rows as u64,
            sealed_now,
        }
    }
}

impl std::fmt::Debug for AppendLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.lock_state();
        f.debug_struct("AppendLog")
            .field("epoch", &state.snapshot.epoch)
            .field("sealed_rows", &state.snapshot.rows)
            .field("staged", &state.staging.len())
            .field("staging_capacity", &self.staging_capacity)
            .finish()
    }
}

/// What one [`AppendLog::compact`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// The epoch of the snapshot current after the call (advanced by one
    /// when compaction ran, unchanged otherwise).
    pub epoch: u64,
    /// Sealed segments before the call.
    pub segments_before: usize,
    /// Sealed segments after the call.
    pub segments_after: usize,
    /// Rows visible to queries after the call (compaction never changes
    /// this).
    pub rows: usize,
    /// True when the call actually folded segments and advanced the epoch;
    /// false for the ≤1-segment no-op.
    pub compacted_now: bool,
}

/// Replays `segments` (each rank-ordered) through the loser-tree k-way merge
/// into one rank-ordered row vector — the same fuse a snapshot scan
/// performs, so the result is bit-identical to scanning the segments
/// fragmented.
fn merged_rows(segments: &[Arc<Vec<SourceTuple>>]) -> Vec<SourceTuple> {
    let mut sources: Vec<VecSource> = segments
        .iter()
        .map(|segment| VecSource::new((**segment).clone()))
        .collect();
    let mut handle = match sources.len() {
        0 => return Vec::new(),
        1 => ScanHandle::single(sources.remove(0)),
        _ => ScanHandle::merged(sources),
    };
    let mut rows = Vec::with_capacity(segments.iter().map(|segment| segment.len()).sum());
    while let Some(tuple) = handle
        .next_tuple()
        .expect("in-memory segment merge cannot fail")
    {
        rows.push(tuple);
    }
    rows
}

/// Decrements the subscriber count of an [`AppendLog`] on drop.
#[derive(Debug)]
pub struct SubscriberGuard {
    log: Arc<AppendLog>,
}

impl Drop for SubscriberGuard {
    fn drop(&mut self) {
        self.log.subscribers.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A growing dataset: adapts a shared [`AppendLog`] to [`DatasetProvider`],
/// so a live log plugs into `Session::execute`, `execute_batch`, `explain`
/// and the serving daemon exactly like any static dataset.
///
/// Every open takes the log's *current* snapshot — one consistent
/// watermark; concurrent appends and seals affect only later opens.
#[derive(Debug, Clone)]
pub struct LiveDataset {
    log: Arc<AppendLog>,
}

impl LiveDataset {
    /// Wraps a shared log.
    pub fn new(log: Arc<AppendLog>) -> Self {
        LiveDataset { log }
    }

    /// The shared log behind this dataset.
    pub fn log(&self) -> &Arc<AppendLog> {
        &self.log
    }
}

impl DatasetProvider for LiveDataset {
    fn open(&self) -> Result<ScanHandle> {
        Ok(self.log.snapshot().open())
    }

    fn plan(&self) -> DatasetPlan {
        let snapshot = self.log.snapshot();
        DatasetPlan {
            path: ScanPath::Live {
                segments: snapshot.segment_count(),
                epoch: snapshot.epoch(),
                compacted_epoch: snapshot.compacted_epoch(),
            },
            rows: Some(snapshot.rows()),
        }
    }

    fn epoch(&self) -> u64 {
        self.log.epoch()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttk_uncertain::{TupleSource, UncertainTuple};

    fn row(id: u64, score: f64, prob: f64) -> SourceTuple {
        SourceTuple::independent(UncertainTuple::new(id, score, prob).expect("valid tuple"))
    }

    fn grouped(id: u64, score: f64, prob: f64, group: u64) -> SourceTuple {
        SourceTuple::grouped(
            UncertainTuple::new(id, score, prob).expect("valid tuple"),
            group,
        )
    }

    fn drain(mut handle: ScanHandle) -> Vec<SourceTuple> {
        let mut rows = Vec::new();
        while let Some(tuple) = handle.next_tuple().expect("scan") {
            rows.push(tuple);
        }
        rows
    }

    #[test]
    fn empty_log_opens_as_an_empty_epoch_zero_scan() {
        let log = AppendLog::new(16);
        let snapshot = log.snapshot();
        assert_eq!(snapshot.epoch(), 0);
        assert_eq!(snapshot.rows(), 0);
        assert!(drain(snapshot.open()).is_empty());
        // Sealing nothing is a visible no-op.
        let outcome = log.seal();
        assert_eq!(outcome.epoch, 0);
        assert!(!outcome.sealed_now);
    }

    #[test]
    fn staged_rows_stay_invisible_until_sealed() {
        let log = AppendLog::new(16);
        let outcome = log
            .append(vec![row(1, 9.0, 0.5), row(2, 7.0, 1.0)])
            .expect("appends");
        assert_eq!(outcome.staged, 2);
        assert_eq!(outcome.sealed_rows, 0);
        assert!(!outcome.sealed_now);
        assert_eq!(log.snapshot().rows(), 0);

        let sealed = log.seal();
        assert!(sealed.sealed_now);
        assert_eq!(sealed.epoch, 1);
        assert_eq!(sealed.sealed_rows, 2);
        assert_eq!(sealed.staged, 0);

        let rows = drain(log.snapshot().open());
        assert_eq!(rows.len(), 2);
        // Rank order: higher score first.
        assert_eq!(rows[0].tuple.id().raw(), 1);
        assert_eq!(rows[1].tuple.id().raw(), 2);
    }

    #[test]
    fn merge_across_segments_matches_a_single_sort() {
        let log = AppendLog::new(64);
        // Interleaved scores across three segments.
        log.append(vec![row(1, 10.0, 0.5), row(2, 4.0, 0.5)])
            .expect("appends");
        log.seal();
        log.append(vec![row(3, 7.0, 0.5)]).expect("appends");
        log.seal();
        log.append(vec![row(4, 12.0, 0.5), row(5, 5.0, 0.5)])
            .expect("appends");
        log.seal();

        let snapshot = log.snapshot();
        assert_eq!(snapshot.epoch(), 3);
        assert_eq!(snapshot.segment_count(), 3);
        let merged: Vec<u64> = drain(snapshot.open())
            .iter()
            .map(|r| r.tuple.id().raw())
            .collect();
        assert_eq!(merged, vec![4, 1, 3, 5, 2]);
    }

    #[test]
    fn auto_seal_fires_at_staging_capacity() {
        let log = AppendLog::new(2);
        let first = log.append(vec![row(1, 1.0, 0.5)]).expect("appends");
        assert!(!first.sealed_now);
        let second = log.append(vec![row(2, 2.0, 0.5)]).expect("appends");
        assert!(second.sealed_now);
        assert_eq!(second.epoch, 1);
        assert_eq!(second.sealed_rows, 2);
        // A batch larger than capacity seals in one go.
        let third = log
            .append(vec![row(3, 3.0, 0.5), row(4, 4.0, 0.5), row(5, 5.0, 0.5)])
            .expect("appends");
        assert!(third.sealed_now);
        assert_eq!(third.epoch, 2);
        assert_eq!(third.sealed_rows, 5);
    }

    #[test]
    fn duplicate_ids_and_group_overflow_reject_the_whole_batch() {
        let log = AppendLog::new(16);
        log.append(vec![grouped(1, 9.0, 0.6, 7)]).expect("appends");
        log.seal();

        // Duplicate against a sealed row: batch rejected whole.
        let err = log
            .append(vec![row(2, 5.0, 0.5), row(1, 4.0, 0.5)])
            .expect_err("duplicate id");
        assert!(err.to_string().contains("id 1"), "got: {err}");
        assert_eq!(log.staged_rows(), 0);

        // Duplicate within one batch.
        assert!(log
            .append(vec![row(3, 5.0, 0.5), row(3, 4.0, 0.5)])
            .is_err());

        // Group mass 0.6 (sealed) + 0.5 > 1: rejected, log unchanged.
        let err = log
            .append(vec![grouped(4, 3.0, 0.5, 7)])
            .expect_err("group overflow");
        assert!(err.to_string().contains("ME group 7"), "got: {err}");
        assert_eq!(log.staged_rows(), 0);

        // Mass that still fits is accepted.
        log.append(vec![grouped(5, 3.0, 0.4, 7)]).expect("fits");
    }

    #[test]
    fn wait_for_epoch_beyond_wakes_on_seal_and_times_out_otherwise() {
        let log = Arc::new(AppendLog::new(16));
        assert!(log
            .wait_for_epoch_beyond(0, Duration::from_millis(20))
            .is_none());

        let appender = Arc::clone(&log);
        let handle = std::thread::spawn(move || {
            appender.append(vec![row(1, 1.0, 0.5)]).expect("appends");
            appender.seal();
        });
        let snapshot = log
            .wait_for_epoch_beyond(0, Duration::from_secs(10))
            .expect("woken by the seal");
        assert_eq!(snapshot.epoch(), 1);
        handle.join().expect("appender");
    }

    #[test]
    fn subscriber_guards_track_the_count() {
        let log = Arc::new(AppendLog::new(16));
        assert_eq!(log.subscriber_count(), 0);
        let a = log.subscribe();
        let b = log.subscribe();
        assert_eq!(log.subscriber_count(), 2);
        drop(a);
        assert_eq!(log.subscriber_count(), 1);
        drop(b);
        assert_eq!(log.subscriber_count(), 0);
    }

    #[test]
    fn on_demand_compaction_folds_to_one_segment_and_bumps_the_epoch() {
        let log = AppendLog::new(64);
        for (id, score) in [(1u64, 10.0), (2, 4.0), (3, 7.0), (4, 12.0)] {
            log.append(vec![row(id, score, 0.5)]).expect("appends");
            log.seal();
        }
        // One staged row proves compaction never touches staging.
        log.append(vec![row(5, 1.0, 0.5)]).expect("appends");
        let fragmented: Vec<u64> = drain(log.snapshot().open())
            .iter()
            .map(|r| r.tuple.id().raw())
            .collect();

        let outcome = log.compact();
        assert!(outcome.compacted_now);
        assert_eq!(outcome.epoch, 5);
        assert_eq!(outcome.segments_before, 4);
        assert_eq!(outcome.segments_after, 1);
        assert_eq!(outcome.rows, 4);
        assert_eq!(log.staged_rows(), 1);

        let snapshot = log.snapshot();
        assert_eq!(snapshot.segment_count(), 1);
        assert_eq!(snapshot.epoch(), 5);
        assert_eq!(snapshot.compacted_epoch(), 5);
        let compacted: Vec<u64> = drain(snapshot.open())
            .iter()
            .map(|r| r.tuple.id().raw())
            .collect();
        assert_eq!(compacted, fragmented);

        // A second compact is a visible no-op: nothing to fold.
        let outcome = log.compact();
        assert!(!outcome.compacted_now);
        assert_eq!(outcome.epoch, 5);
        assert_eq!(outcome.segments_after, 1);
    }

    #[test]
    fn auto_compaction_holds_the_segment_bound_across_seals() {
        let log = AppendLog::new(64).with_compact_at(3);
        assert_eq!(log.compact_at(), 3);
        for id in 0..10u64 {
            log.append(vec![row(id, id as f64, 0.5)]).expect("appends");
            log.seal();
            assert!(
                log.snapshot().segment_count() <= 3,
                "seal {} published {} segments",
                id,
                log.snapshot().segment_count()
            );
        }
        let snapshot = log.snapshot();
        // Each seal is exactly one epoch, compaction or not.
        assert_eq!(snapshot.epoch(), 10);
        assert_eq!(snapshot.segment_count(), 3);
        // The fourth seal was the first to fold; the tenth was the latest.
        assert_eq!(snapshot.compacted_epoch(), 10);
        let ids: Vec<u64> = drain(snapshot.open())
            .iter()
            .map(|r| r.tuple.id().raw())
            .collect();
        assert_eq!(ids, (0..10u64).rev().collect::<Vec<_>>());
    }

    #[test]
    fn compaction_wakes_epoch_subscribers() {
        let log = Arc::new(AppendLog::new(64));
        for id in 0..3u64 {
            log.append(vec![row(id, id as f64, 0.5)]).expect("appends");
            log.seal();
        }
        let compactor = Arc::clone(&log);
        let handle = std::thread::spawn(move || compactor.compact());
        let snapshot = log
            .wait_for_epoch_beyond(3, Duration::from_secs(10))
            .expect("woken by the compaction");
        assert_eq!(snapshot.epoch(), 4);
        assert_eq!(snapshot.segment_count(), 1);
        assert!(handle.join().expect("compactor").compacted_now);
    }

    #[test]
    fn live_dataset_plans_the_live_path_and_reports_its_epoch() {
        let log = Arc::new(AppendLog::new(16));
        log.append(vec![row(1, 9.0, 0.5)]).expect("appends");
        log.seal();
        let provider = LiveDataset::new(Arc::clone(&log));
        let plan = provider.plan();
        assert_eq!(
            plan.path,
            ScanPath::Live {
                segments: 1,
                epoch: 1,
                compacted_epoch: 0
            }
        );
        assert_eq!(plan.rows, Some(1));
        assert_eq!(provider.epoch(), 1);

        let dataset = crate::session::Dataset::from_provider(provider).with_label("feed");
        assert_eq!(dataset.epoch(), 1);
        log.append(vec![row(2, 8.0, 0.5)]).expect("appends");
        log.seal();
        assert_eq!(dataset.epoch(), 2);
    }
}
