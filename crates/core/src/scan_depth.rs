//! Scan depth: how many rank-ordered tuples the algorithms must examine.
//!
//! Theorem 2 of the paper gives a stopping condition for the sequential scan
//! of tuples in rank order: once the accumulated probability mass μ of the
//! higher-ranked tuples (excluding the current tuple's own ME group) reaches
//!
//! ```text
//! μ ≥ k + ln(1/pτ) + sqrt(ln²(1/pτ) + 2·k·ln(1/pτ)) + 1
//! ```
//!
//! no tuple from that point on can be in the top-k with probability pτ or
//! more, and consequently no k-tuple vector with probability ≥ pτ is missed.
//! The scan always stops at the end of a tie group, because a tie group is
//! either entirely needed or entirely not needed.
//!
//! The stopping condition is implemented **incrementally** by [`ScanGate`]:
//! the gate is consulted once per streamed tuple, accumulates μ as the scan
//! advances, and closes exactly at the position the batch formula would
//! return. This is what fuses Theorem 2 *into* the scan — the streaming
//! executor ([`crate::scan`]) asks the gate before accepting each tuple and
//! never reads past the bound. The batch [`scan_depth`] function is now a
//! thin wrapper running a gate over a materialized table.

use std::collections::HashMap;

use ttk_uncertain::{Error, GroupKey, Result, UncertainTable};

/// The right-hand side of the Theorem 2 inequality.
///
/// `k` is the query size and `p_tau` the probability threshold below which
/// top-k vectors may be ignored.
pub fn stopping_threshold(k: usize, p_tau: f64) -> f64 {
    let k = k as f64;
    let l = (1.0 / p_tau).ln();
    k + l + (l * l + 2.0 * k * l).sqrt() + 1.0
}

/// The incremental Theorem-2 stopping condition.
///
/// A gate is consulted once per rank-ordered tuple via [`ScanGate::admit`].
/// It tracks the total membership mass seen so far and the per-ME-group
/// shares of that mass, so the quantity μ of Theorem 2 (mass of the
/// higher-ranked tuples *excluding the tuple's own group*) is available in
/// O(1) per tuple. Tie groups are honoured exactly like the batch formula:
///
/// * when the condition first holds at the **first tuple of a tie group**,
///   the gate closes before that tuple (the whole group is unneeded);
/// * when it first holds **inside** a tie group, the remainder of that group
///   is still admitted (a tie group is kept or dropped as a unit) and the
///   gate closes at the next score change.
///
/// The number of admitted tuples therefore equals [`scan_depth`] of the same
/// stream, while the consumer reads at most one tuple past the bound (the
/// look-ahead that observes the closing score change).
#[derive(Debug, Clone)]
pub struct ScanGate {
    threshold: f64,
    total_mass: f64,
    group_mass: HashMap<u64, f64>,
    last_score: Option<f64>,
    stop_after_tie_group: bool,
    closed: bool,
    admitted: usize,
    meter: Option<GateMeter>,
}

/// A shared, lock-free view of a [`ScanGate`]'s accumulated mass: the gate
/// publishes after every admitted tuple, and any number of clones — one per
/// remote connection of a `Send` scan — read the latest value to push bound
/// updates to shard servers.
#[derive(Debug, Clone, Default)]
pub struct GateMeter(std::sync::Arc<std::sync::atomic::AtomicU64>);

impl GateMeter {
    /// A meter reading `0.0` until a gate publishes into it.
    pub fn new() -> Self {
        GateMeter::default()
    }

    /// Publishes the gate's accumulated mass.
    pub fn publish(&self, mass: f64) {
        self.0
            .store(mass.to_bits(), std::sync::atomic::Ordering::Relaxed);
    }

    /// The most recently published accumulated mass.
    pub fn current(&self) -> f64 {
        f64::from_bits(self.0.load(std::sync::atomic::Ordering::Relaxed))
    }
}

impl ScanGate {
    /// A gate implementing the Theorem-2 bound for query size `k` and
    /// probability threshold `p_tau`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `k == 0` or `p_tau` is not in
    /// `(0, 1)`.
    pub fn new(k: usize, p_tau: f64) -> Result<Self> {
        let mut gate = Self::with_threshold(f64::INFINITY);
        gate.reset(k, p_tau)?;
        Ok(gate)
    }

    /// A gate that never closes — used by consumers that need the entire
    /// stream (exhaustive enumeration, U-Topk) while still going through the
    /// same scan machinery.
    pub fn open() -> Self {
        Self::with_threshold(f64::INFINITY)
    }

    fn with_threshold(threshold: f64) -> Self {
        ScanGate {
            threshold,
            total_mass: 0.0,
            group_mass: HashMap::new(),
            last_score: None,
            stop_after_tie_group: false,
            closed: false,
            admitted: 0,
            meter: None,
        }
    }

    /// Attaches (or, with `None`, detaches) the meter the gate publishes its
    /// accumulated mass into after every admitted tuple. Resetting the gate
    /// detaches any meter, so a long-lived executor never publishes one
    /// query's mass into another query's meter.
    pub fn set_meter(&mut self, meter: Option<GateMeter>) {
        if let Some(meter) = &meter {
            meter.publish(self.total_mass);
        }
        self.meter = meter;
    }

    /// Re-arms the gate for a fresh scan with the given parameters, keeping
    /// the group-mass table's allocation. This is what lets a long-lived
    /// [`Session`](crate::Session) serve many queries without reallocating.
    ///
    /// # Errors
    ///
    /// As [`ScanGate::new`].
    pub fn reset(&mut self, k: usize, p_tau: f64) -> Result<()> {
        if k == 0 {
            return Err(Error::InvalidParameter("k must be at least 1".into()));
        }
        if !(p_tau > 0.0 && p_tau < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "probability threshold pτ must be in (0, 1), got {p_tau}"
            )));
        }
        self.reset_with_threshold(stopping_threshold(k, p_tau));
        Ok(())
    }

    /// Re-arms the gate as an open (never-closing) gate, keeping allocations.
    pub fn reset_open(&mut self) {
        self.reset_with_threshold(f64::INFINITY);
    }

    fn reset_with_threshold(&mut self, threshold: f64) {
        self.threshold = threshold;
        self.total_mass = 0.0;
        self.group_mass.clear();
        self.last_score = None;
        self.stop_after_tie_group = false;
        self.closed = false;
        self.admitted = 0;
        self.meter = None;
    }

    /// Decides whether the next rank-ordered tuple is part of the Theorem-2
    /// prefix. Returns `false` once the gate has closed; from then on every
    /// call returns `false`.
    pub fn admit(&mut self, score: f64, prob: f64, group: GroupKey) -> bool {
        if self.closed {
            return false;
        }
        let starts_tie_group = self.last_score != Some(score);
        if starts_tie_group && self.stop_after_tie_group {
            self.closed = true;
            return false;
        }
        let own_mass = match group {
            GroupKey::Shared(key) => self.group_mass.get(&key).copied().unwrap_or(0.0),
            GroupKey::Independent => 0.0,
        };
        let mu = self.total_mass - own_mass;
        if mu >= self.threshold {
            if starts_tie_group {
                // The whole tie group is unneeded.
                self.closed = true;
                return false;
            }
            // Mid-group trigger: keep the rest of the group, then stop.
            self.stop_after_tie_group = true;
        }
        self.total_mass += prob;
        if let GroupKey::Shared(key) = group {
            *self.group_mass.entry(key).or_insert(0.0) += prob;
        }
        self.last_score = Some(score);
        self.admitted += 1;
        if let Some(meter) = &self.meter {
            meter.publish(self.total_mass);
        }
        true
    }

    /// True once the gate has rejected a tuple.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Number of tuples admitted so far (the scan depth once closed).
    pub fn admitted(&self) -> usize {
        self.admitted
    }

    /// The accumulated membership mass of the admitted tuples.
    pub fn accumulated_mass(&self) -> f64 {
        self.total_mass
    }
}

/// The **server-side** conservative stopping bound for scan-gate pushdown:
/// a shard server that sees only its own rank-ordered shard decides when no
/// later local tuple can possibly be inside the merge-side Theorem-2 prefix,
/// and stops shipping.
///
/// Two triggers feed the decision, both checked per offered tuple:
///
/// * **local mass** — the shard's own accumulated μ (total mass minus the
///   tuple's own ME-group share) already reaches the global threshold. Since
///   the global rank-ordered prefix above any tuple is a superset of the
///   local one, global μ ≥ local μ, so the merge-side gate's condition holds
///   wherever the local one does;
/// * **remote mass** — the client's latest bound update carries the
///   merge-side gate's accumulated mass `M` ([`GateMeter`]); the merge-side
///   μ of any not-yet-shipped tuple is at least `M − 1` (an ME group holds
///   at most total mass 1), so `M − 1 ≥ threshold` proves the condition for
///   everything still unshipped.
///
/// On either trigger the gate stays **deliberately one tie group behind**
/// the client gate: it admits the triggering tuple *and the remainder of its
/// local score group*, closing only at the next score change. This is what
/// makes the bound conservative at group boundaries — the merge-side gate
/// may trigger mid-group at a score level that spans shards, in which case
/// the whole global tie group (including this shard's share of it) is still
/// needed. Every unshipped tuple then sits strictly below the score level at
/// which the client gate provably closes, so the pushdown stream contains
/// the full Theorem-2 prefix and the merged result is bit-identical to a
/// full replay.
#[derive(Debug, Clone)]
pub struct ShardScanGate {
    threshold: f64,
    total_mass: f64,
    group_mass: HashMap<u64, f64>,
    last_score: Option<f64>,
    finish_tie_group: bool,
    closed: bool,
    admitted: usize,
    remote_mass: f64,
}

impl ShardScanGate {
    /// A gate enforcing the conservative per-shard bound for query size `k`
    /// and probability threshold `p_tau` (the same global threshold the
    /// merge-side [`ScanGate`] uses).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidParameter`] when `k == 0` or `p_tau` is not
    /// in `(0, 1)`.
    pub fn new(k: usize, p_tau: f64) -> Result<Self> {
        if k == 0 {
            return Err(Error::InvalidParameter("k must be at least 1".into()));
        }
        if !(p_tau > 0.0 && p_tau < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "probability threshold pτ must be in (0, 1), got {p_tau}"
            )));
        }
        Ok(ShardScanGate {
            threshold: stopping_threshold(k, p_tau),
            total_mass: 0.0,
            group_mass: HashMap::new(),
            last_score: None,
            finish_tie_group: false,
            closed: false,
            admitted: 0,
            remote_mass: 0.0,
        })
    }

    /// Folds in the latest client bound update (the merge-side gate's
    /// accumulated mass). Stale or out-of-order updates are harmless: the
    /// mass only ever grows, so the gate keeps the largest value seen.
    pub fn update_remote_mass(&mut self, mass: f64) {
        if mass > self.remote_mass {
            self.remote_mass = mass;
        }
    }

    /// Decides whether the next rank-ordered shard tuple can still be part
    /// of the merge-side Theorem-2 prefix. Returns `false` once the gate has
    /// closed; from then on every call returns `false`.
    pub fn admit(&mut self, score: f64, prob: f64, group: GroupKey) -> bool {
        if self.closed {
            return false;
        }
        let starts_tie_group = self.last_score != Some(score);
        if starts_tie_group && self.finish_tie_group {
            self.closed = true;
            return false;
        }
        if !self.finish_tie_group {
            let own_mass = match group {
                GroupKey::Shared(key) => self.group_mass.get(&key).copied().unwrap_or(0.0),
                GroupKey::Independent => 0.0,
            };
            let local_mu = self.total_mass - own_mass;
            if local_mu >= self.threshold || self.remote_mass - 1.0 >= self.threshold {
                // Admit this tuple and the rest of its score group, then
                // close at the next score change (see the type-level doc).
                self.finish_tie_group = true;
            }
        }
        self.total_mass += prob;
        if let GroupKey::Shared(key) = group {
            *self.group_mass.entry(key).or_insert(0.0) += prob;
        }
        self.last_score = Some(score);
        self.admitted += 1;
        true
    }

    /// True once the gate has rejected a tuple.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Number of tuples admitted so far.
    pub fn admitted(&self) -> usize {
        self.admitted
    }
}

/// Computes the scan depth `n` for a table: the number of highest-ranked
/// tuples that must be considered so that no top-k vector with probability at
/// least `p_tau` is missed.
///
/// Returns the table length when the stopping condition is never met.
///
/// # Errors
///
/// Returns [`Error::InvalidParameter`] when `k == 0` or `p_tau` is not in
/// `(0, 1)`.
pub fn scan_depth(table: &UncertainTable, k: usize, p_tau: f64) -> Result<usize> {
    let mut gate = ScanGate::new(k, p_tau)?;
    for pos in 0..table.len() {
        let tuple = table.tuple(pos);
        let group = if table.group_members(pos).len() > 1 {
            GroupKey::Shared(table.group_index(pos) as u64)
        } else {
            GroupKey::Independent
        };
        if !gate.admit(tuple.score(), tuple.prob(), group) {
            break;
        }
    }
    Ok(gate.admitted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ttk_uncertain::UncertainTable;

    fn uniform_table(n: usize, prob: f64) -> UncertainTable {
        UncertainTable::new(
            (0..n)
                .map(|i| {
                    ttk_uncertain::UncertainTuple::new(i as u64, (n - i) as f64, prob).unwrap()
                })
                .collect(),
            Vec::new(),
        )
        .unwrap()
    }

    /// The original batch formulation of Theorem 2 (materialize, then
    /// truncate), kept as the oracle the incremental gate is tested against.
    fn scan_depth_batch(table: &UncertainTable, k: usize, p_tau: f64) -> Result<usize> {
        if k == 0 {
            return Err(Error::InvalidParameter("k must be at least 1".into()));
        }
        if !(p_tau > 0.0 && p_tau < 1.0) {
            return Err(Error::InvalidParameter(format!(
                "probability threshold pτ must be in (0, 1), got {p_tau}"
            )));
        }
        let threshold = stopping_threshold(k, p_tau);
        for pos in 0..table.len() {
            if table.mu(pos) >= threshold {
                return Ok(if pos == 0 {
                    0
                } else {
                    table.tie_group_end(pos - 1)
                });
            }
        }
        Ok(table.len())
    }

    fn assert_gate_matches_batch(table: &UncertainTable, k: usize, p_tau: f64) {
        let incremental = scan_depth(table, k, p_tau).unwrap();
        let batch = scan_depth_batch(table, k, p_tau).unwrap();
        assert_eq!(incremental, batch, "k={k}, p_tau={p_tau}");
    }

    #[test]
    fn threshold_grows_with_k_and_shrinks_with_p_tau() {
        assert!(stopping_threshold(10, 0.001) < stopping_threshold(20, 0.001));
        assert!(stopping_threshold(10, 0.001) > stopping_threshold(10, 0.01));
        // Sanity: threshold is always at least k + 1.
        for k in [1usize, 5, 50] {
            assert!(stopping_threshold(k, 0.001) > k as f64 + 1.0);
        }
    }

    #[test]
    fn rejects_bad_parameters() {
        let t = uniform_table(10, 0.5);
        assert!(scan_depth(&t, 0, 0.001).is_err());
        assert!(scan_depth(&t, 2, 0.0).is_err());
        assert!(scan_depth(&t, 2, 1.0).is_err());
        assert!(ScanGate::new(0, 0.001).is_err());
        assert!(ScanGate::new(2, -1.0).is_err());
    }

    #[test]
    fn small_tables_are_fully_scanned() {
        let t = uniform_table(20, 0.5);
        assert_eq!(scan_depth(&t, 5, 0.001).unwrap(), 20);
    }

    #[test]
    fn depth_is_bounded_and_grows_with_k() {
        let t = uniform_table(2000, 0.5);
        let d5 = scan_depth(&t, 5, 0.001).unwrap();
        let d20 = scan_depth(&t, 20, 0.001).unwrap();
        let d60 = scan_depth(&t, 60, 0.001).unwrap();
        assert!(d5 < d20 && d20 < d60, "{d5} {d20} {d60}");
        assert!(d60 < 2000);
        // The depth must exceed k (we need at least k tuples).
        assert!(d5 > 5 && d20 > 20 && d60 > 60);
    }

    #[test]
    fn depth_grows_when_p_tau_shrinks() {
        let t = uniform_table(2000, 0.5);
        let loose = scan_depth(&t, 10, 0.01).unwrap();
        let tight = scan_depth(&t, 10, 0.0001).unwrap();
        assert!(tight >= loose);
    }

    #[test]
    fn certain_tuples_need_roughly_k_plus_threshold_tuples() {
        // With probability-1 tuples, μ at position i is exactly i, so the
        // depth is close to the threshold itself.
        let t = uniform_table(1000, 1.0);
        let d = scan_depth(&t, 10, 0.001).unwrap();
        assert_eq!(d, stopping_threshold(10, 0.001).ceil() as usize);
    }

    #[test]
    fn stops_at_tie_group_boundary() {
        // 100 certain tuples, all with the same score: the stopping condition
        // triggers inside the tie group, so the whole group must be kept.
        let t = UncertainTable::new(
            (0..100)
                .map(|i| ttk_uncertain::UncertainTuple::new(i as u64, 42.0, 1.0).unwrap())
                .collect(),
            Vec::new(),
        )
        .unwrap();
        assert_eq!(scan_depth(&t, 3, 0.01).unwrap(), 100);
    }

    #[test]
    fn me_groups_inflate_depth() {
        // Tuples that are mutually exclusive with many others contribute less
        // μ mass (their own group is excluded), so the scan goes deeper.
        let independent = uniform_table(3000, 0.25);
        let mut builder = UncertainTable::builder();
        let mut rules: Vec<Vec<u64>> = Vec::new();
        for i in 0..3000u64 {
            builder.push(ttk_uncertain::UncertainTuple::new(i, (3000 - i) as f64, 0.25).unwrap());
        }
        for chunk in 0..750u64 {
            rules.push((0..4).map(|j| chunk * 4 + j).collect());
        }
        for r in &rules {
            builder.add_me_rule(r.iter().copied());
        }
        let grouped = builder.build().unwrap();
        let d_ind = scan_depth(&independent, 10, 0.001).unwrap();
        let d_grp = scan_depth(&grouped, 10, 0.001).unwrap();
        assert!(d_grp >= d_ind);
    }

    #[test]
    fn gate_agrees_with_batch_formula_across_workloads() {
        // Independent tuples at several probabilities.
        for prob in [0.1, 0.5, 1.0] {
            let t = uniform_table(1500, prob);
            for k in [1usize, 3, 10, 40] {
                for p_tau in [0.05, 1e-3, 1e-6] {
                    assert_gate_matches_batch(&t, k, p_tau);
                }
            }
        }
        // A table with large ME groups and score ties.
        let mut builder = UncertainTable::builder();
        for i in 0..1200u64 {
            // Four-way score ties; probabilities cycling through 0.10..0.25
            // (kept small so three-member ME groups stay under total mass 1).
            let score = (1200 - (i / 4) * 4) as f64;
            let prob = 0.1 + 0.05 * (i % 4) as f64;
            builder.push(ttk_uncertain::UncertainTuple::new(i, score, prob).unwrap());
        }
        for g in 0..300u64 {
            // Members spread 300 apart so groups straddle the scan bound.
            builder.add_me_rule([g, g + 300, g + 600]);
        }
        let t = builder.build().unwrap();
        for k in [1usize, 2, 5, 20] {
            for p_tau in [0.05, 1e-3, 1e-6] {
                assert_gate_matches_batch(&t, k, p_tau);
            }
        }
    }

    #[test]
    fn open_gate_never_closes() {
        let t = uniform_table(500, 1.0);
        let mut gate = ScanGate::open();
        for pos in 0..t.len() {
            assert!(gate.admit(
                t.tuple(pos).score(),
                t.tuple(pos).prob(),
                GroupKey::Independent
            ));
        }
        assert!(!gate.is_closed());
        assert_eq!(gate.admitted(), 500);
        assert!((gate.accumulated_mass() - 500.0).abs() < 1e-9);
    }

    /// Runs a [`ShardScanGate`] over a whole table (as if it were one shard)
    /// with no remote updates and returns the admitted count — the
    /// deterministic local conservative bound the pushdown tests assert
    /// against.
    fn shard_bound(table: &UncertainTable, k: usize, p_tau: f64) -> usize {
        let mut gate = ShardScanGate::new(k, p_tau).unwrap();
        for pos in 0..table.len() {
            let tuple = table.tuple(pos);
            let group = if table.group_members(pos).len() > 1 {
                GroupKey::Shared(table.group_index(pos) as u64)
            } else {
                GroupKey::Independent
            };
            if !gate.admit(tuple.score(), tuple.prob(), group) {
                break;
            }
        }
        gate.admitted()
    }

    #[test]
    fn shard_gate_ships_a_superset_of_the_client_prefix() {
        let t = uniform_table(2000, 0.5);
        for k in [1usize, 5, 20] {
            for p_tau in [0.05, 1e-3] {
                let depth = scan_depth(&t, k, p_tau).unwrap();
                let bound = shard_bound(&t, k, p_tau);
                // Conservative, but bounded: at most one extra tie group
                // (here all scores are distinct, so at most one tuple).
                assert!(bound >= depth, "k={k} pτ={p_tau}: {bound} < {depth}");
                assert!(bound <= depth + 1, "k={k} pτ={p_tau}: {bound} vs {depth}");
                assert!(bound < t.len());
            }
        }
        assert!(ShardScanGate::new(0, 0.5).is_err());
        assert!(ShardScanGate::new(3, 1.0).is_err());
    }

    #[test]
    fn remote_mass_closes_the_shard_gate_after_the_current_tie_group() {
        // Low-probability local tuples never trigger locally, but a client
        // bound update above threshold + 1 stops the replay at the end of
        // the score group it lands in.
        let mut gate = ShardScanGate::new(2, 0.01).unwrap();
        assert!(gate.admit(10.0, 0.01, GroupKey::Independent));
        assert!(gate.admit(9.0, 0.01, GroupKey::Independent));
        gate.update_remote_mass(stopping_threshold(2, 0.01) + 1.5);
        // Trigger lands mid-stream: the 8.0 group is finished, 7.0 is not.
        assert!(gate.admit(8.0, 0.01, GroupKey::Independent));
        assert!(gate.admit(8.0, 0.01, GroupKey::Independent));
        assert!(!gate.admit(7.0, 0.01, GroupKey::Independent));
        assert!(gate.is_closed());
        assert_eq!(gate.admitted(), 4);
        // A stale (smaller) update never reopens anything.
        gate.update_remote_mass(0.5);
        assert!(!gate.admit(6.0, 0.01, GroupKey::Independent));
    }

    #[test]
    fn gate_meter_tracks_the_accumulated_mass() {
        let meter = GateMeter::new();
        assert_eq!(meter.current(), 0.0);
        let mut gate = ScanGate::new(3, 0.01).unwrap();
        gate.set_meter(Some(meter.clone()));
        assert!(gate.admit(5.0, 0.25, GroupKey::Independent));
        assert!(gate.admit(4.0, 0.5, GroupKey::Independent));
        assert!((meter.current() - 0.75).abs() < 1e-12);
        assert!((meter.current() - gate.accumulated_mass()).abs() < 1e-12);
        // Resetting the gate detaches the meter: the old reading survives,
        // but the next query's masses are not published into it.
        gate.reset(2, 0.5).unwrap();
        assert!(gate.admit(9.0, 1.0, GroupKey::Independent));
        assert!((meter.current() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn closed_gate_stays_closed() {
        let t = uniform_table(1000, 1.0);
        let mut gate = ScanGate::new(2, 0.01).unwrap();
        let mut admitted = 0;
        for pos in 0..t.len() {
            if gate.admit(
                t.tuple(pos).score(),
                t.tuple(pos).prob(),
                GroupKey::Independent,
            ) {
                admitted += 1;
            } else {
                break;
            }
        }
        assert!(gate.is_closed());
        assert_eq!(admitted, gate.admitted());
        // Further offers are rejected without changing the count.
        assert!(!gate.admit(0.0, 1.0, GroupKey::Independent));
        assert_eq!(gate.admitted(), admitted);
    }
}
