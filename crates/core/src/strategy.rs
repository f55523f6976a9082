//! Runtime selection strategies.
//!
//! ADCL incorporates multiple runtime selection algorithms (§III-A):
//!
//! * [`SelectionLogic::BruteForce`] — evaluate every implementation a fixed
//!   number of times, then commit to the fastest. Guaranteed to find the
//!   best function, at the price of a long learning phase.
//! * [`SelectionLogic::AttributeHeuristic`] — optimize one attribute at a
//!   time: measure one representative implementation per attribute value,
//!   fix the best value, discard every implementation that disagrees, and
//!   move to the next attribute. Assumes attributes are uncorrelated;
//!   much shorter learning phase (e.g. 7+3 functions instead of 21 for
//!   `Ibcast`).
//! * [`SelectionLogic::TwoKFactorial`] — a 2^k factorial screening design
//!   (Box, Hunter & Hunter): measure the corner implementations of the
//!   attribute space, estimate main effects, and commit to the
//!   implementation nearest the predicted optimum. Supports correlated
//!   parameters; intended for very large parameter spaces.
//! * [`SelectionLogic::Fixed`] — pin one implementation (used for the
//!   verification runs and the LibNBC/MPI baselines of §IV).
//! * [`SelectionLogic::Racing`] — brute-force candidate set, but measured
//!   in interleaved fixed-size iteration blocks with deterministic
//!   elimination: after each block, any candidate whose filtered lower
//!   bound exceeds the current leader's filtered upper bound can never win
//!   under the filter's scoring rule and is permanently dropped, so losing
//!   schedules stop consuming simulated events after a block or two
//!   instead of the full measurement budget.
//!
//! A strategy is driven iteration by iteration: [`Strategy::next_assignment`]
//! returns the function to use for the next application iteration, given
//! the samples recorded so far. Once a strategy commits, every subsequent
//! iteration uses the winner.

use crate::attr::AttributeSet;
use crate::filter::FilterKind;
use std::collections::VecDeque;

/// The per-iteration interface every selection logic implements.
pub trait Strategy {
    /// Function index to use for the next iteration. Strategies make their
    /// (adaptive) decisions inside this call, based on `samples` — the
    /// measurements recorded so far, one vector per function.
    fn next_assignment(&mut self, samples: &[Vec<f64>]) -> usize;

    /// `Some(winner)` once the learning phase has finished.
    fn winner(&self) -> Option<usize>;

    /// Best current estimate (used by co-tuning to freeze an operation
    /// while another is being tuned). Defaults to the winner, else the
    /// lowest-scoring measured function, else 0.
    fn best_so_far(&self, samples: &[Vec<f64>]) -> usize {
        self.winner()
            .or_else(|| FilterKind::default().argmin(samples))
            .unwrap_or(0)
    }

    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Per-function elimination record: `Some(block)` (1-based) for every
    /// candidate the strategy permanently dropped during the learning
    /// phase. Only racing-style strategies eliminate; the default is
    /// `None` (no elimination machinery at all).
    fn eliminations(&self) -> Option<&[Option<usize>]> {
        None
    }
}

/// Which selection logic to instantiate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SelectionLogic {
    /// Exhaustive search over all implementations.
    BruteForce,
    /// Attribute-based pruning heuristic.
    AttributeHeuristic,
    /// 2^k factorial screening design.
    TwoKFactorial,
    /// No tuning: always use the given function index.
    Fixed(usize),
    /// Brute-force candidate set with block-interleaved racing
    /// elimination; the payload is the block size (iterations per
    /// candidate per block).
    Racing(usize),
}

/// Default racing block size when `NBC_RACING=on` gives none.
pub const DEFAULT_RACING_BLOCK: usize = 2;

/// Parsed state of the `NBC_RACING` environment variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RacingEnv {
    /// Variable absent (or unparseable): each consumer picks its own
    /// default — figure binaries stay on brute force, the tuning daemon
    /// races.
    Unset,
    /// Explicitly disabled (`off` / `0` / `false`).
    Off,
    /// Enabled with the given block size (`on` / `on:BLOCK`).
    On(usize),
}

/// Read `NBC_RACING` (`off` | `on` | `on:BLOCK`). Unrecognized values are
/// treated as unset.
pub fn racing_env() -> RacingEnv {
    parse_racing(std::env::var("NBC_RACING").ok().as_deref())
}

fn parse_racing(raw: Option<&str>) -> RacingEnv {
    let Some(raw) = raw else {
        return RacingEnv::Unset;
    };
    let v = raw.trim().to_ascii_lowercase();
    match v.as_str() {
        "" => RacingEnv::Unset,
        "off" | "0" | "false" => RacingEnv::Off,
        "on" | "1" | "true" => RacingEnv::On(DEFAULT_RACING_BLOCK),
        other => match other
            .strip_prefix("on:")
            .and_then(|b| b.parse::<usize>().ok())
            .filter(|&b| b >= 1)
        {
            Some(b) => RacingEnv::On(b),
            None => RacingEnv::Unset,
        },
    }
}

impl SelectionLogic {
    /// Build the strategy for a function-set with the given per-function
    /// attribute vectors and names (names feed racing's total-ordered
    /// tie-breaks, which must not depend on function-set insertion order
    /// alone).
    #[allow(clippy::too_many_arguments)]
    pub fn build(
        self,
        n_funcs: usize,
        attr_vecs: &[Vec<i64>],
        attrs: &AttributeSet,
        names: &[String],
        reps: usize,
        min_samples: usize,
        filter: FilterKind,
    ) -> Box<dyn Strategy> {
        assert!(n_funcs > 0, "empty function set");
        let min_samples = min_samples.clamp(1, reps);
        match self {
            SelectionLogic::BruteForce => Box::new(BruteForce {
                reps,
                min_samples,
                n_funcs,
                emitted: 0,
                winner: None,
                filter,
            }),
            SelectionLogic::AttributeHeuristic => Box::new(Heuristic::new(
                attr_vecs.to_vec(),
                attrs.clone(),
                reps,
                min_samples,
                filter,
            )),
            SelectionLogic::TwoKFactorial => Box::new(Factorial::new(
                attr_vecs.to_vec(),
                attrs.clone(),
                reps,
                min_samples,
                filter,
            )),
            SelectionLogic::Fixed(idx) => {
                assert!(idx < n_funcs, "fixed function index out of range");
                Box::new(Fixed(idx))
            }
            SelectionLogic::Racing(block) => {
                assert!(block >= 1, "racing block size must be >= 1");
                Box::new(Racing::new(
                    n_funcs,
                    names,
                    reps,
                    min_samples,
                    block,
                    filter,
                ))
            }
        }
    }
}

// ----------------------------------------------------------------------
// Fixed
// ----------------------------------------------------------------------

struct Fixed(usize);

impl Strategy for Fixed {
    fn next_assignment(&mut self, _samples: &[Vec<f64>]) -> usize {
        self.0
    }
    fn winner(&self) -> Option<usize> {
        Some(self.0)
    }
    fn name(&self) -> &'static str {
        "fixed"
    }
}

// ----------------------------------------------------------------------
// Brute force
// ----------------------------------------------------------------------

struct BruteForce {
    reps: usize,
    min_samples: usize,
    n_funcs: usize,
    emitted: usize,
    winner: Option<usize>,
    filter: FilterKind,
}

impl Strategy for BruteForce {
    fn next_assignment(&mut self, samples: &[Vec<f64>]) -> usize {
        if let Some(w) = self.winner {
            return w;
        }
        if self.emitted < self.n_funcs * self.reps {
            let f = self.emitted / self.reps;
            self.emitted += 1;
            return f;
        }
        // All test iterations have been handed out, but ranks are only
        // loosely synchronized: the measurements of the last iterations may
        // not have been reported yet. Deciding on partial data is how a
        // tuner ends up with a plausible-but-wrong winner, so stay
        // *provisional* (use the current best estimate) until every tested
        // function has its full sample set, and only then commit.
        if samples.iter().any(|s| s.len() < self.min_samples) {
            return self.filter.argmin(samples).unwrap_or(0);
        }
        let w = self.filter.argmin(samples).unwrap_or(0);
        self.winner = Some(w);
        w
    }
    fn winner(&self) -> Option<usize> {
        self.winner
    }
    fn name(&self) -> &'static str {
        "brute-force"
    }
}

// ----------------------------------------------------------------------
// Attribute heuristic
// ----------------------------------------------------------------------

struct Heuristic {
    attr_vecs: Vec<Vec<i64>>,
    attrs: AttributeSet,
    reps: usize,
    min_samples: usize,
    filter: FilterKind,
    /// Which attribute is currently being tuned.
    phase: usize,
    /// Function indices still compatible with the decided attribute values.
    candidates: Vec<usize>,
    /// `(value, representative function)` pairs under test in this phase.
    tests: Vec<(i64, usize)>,
    /// Iterations already emitted in this phase.
    phase_emitted: usize,
    /// Per-function sample counts at the start of the phase, so the phase
    /// decision waits for its own measurements to be complete.
    baseline: Vec<usize>,
    winner: Option<usize>,
}

impl Heuristic {
    fn new(
        attr_vecs: Vec<Vec<i64>>,
        attrs: AttributeSet,
        reps: usize,
        min_samples: usize,
        filter: FilterKind,
    ) -> Self {
        let n = attr_vecs.len();
        let mut h = Heuristic {
            attr_vecs,
            attrs,
            reps,
            min_samples,
            filter,
            phase: 0,
            candidates: (0..n).collect(),
            tests: Vec::new(),
            phase_emitted: 0,
            baseline: vec![0; n],
            winner: None,
        };
        if h.attrs.is_empty() {
            // Degenerate: no attributes to optimize over — fall back to the
            // first candidate straight away (callers should prefer brute
            // force for attribute-less sets).
            h.winner = Some(0);
        } else {
            h.start_phase(None);
        }
        h
    }

    fn start_phase(&mut self, samples: Option<&[Vec<f64>]>) {
        self.tests.clear();
        self.phase_emitted = 0;
        if let Some(samples) = samples {
            self.baseline = samples.iter().map(|s| s.len()).collect();
        }
        // Values of the current attribute present among the candidates,
        // each represented by the first matching candidate.
        let a = self.phase;
        for &c in &self.candidates {
            let v = self.attr_vecs[c][a];
            if !self.tests.iter().any(|&(tv, _)| tv == v) {
                self.tests.push((v, c));
            }
        }
    }

    fn finish_phase(&mut self, samples: &[Vec<f64>]) {
        // Score each representative and fix the best value.
        let best = self
            .tests
            .iter()
            .min_by(|(_, f1), (_, f2)| {
                let s1 = self.filter.score(&samples[*f1]);
                let s2 = self.filter.score(&samples[*f2]);
                s1.partial_cmp(&s2).expect("NaN score")
            })
            .map(|&(v, _)| v)
            .expect("phase with no tests");
        let a = self.phase;
        self.candidates.retain(|&c| self.attr_vecs[c][a] == best);
        debug_assert!(!self.candidates.is_empty(), "pruning removed everything");
        self.phase += 1;
        if self.phase >= self.attrs.len() {
            // All attributes fixed: the survivors share every attribute
            // value; pick the best-measured one (they are typically one).
            let w = self
                .candidates
                .iter()
                .copied()
                .min_by(|&c1, &c2| {
                    let s1 = self.filter.score(&samples[c1]);
                    let s2 = self.filter.score(&samples[c2]);
                    s1.partial_cmp(&s2).expect("NaN score")
                })
                .unwrap_or(0);
            self.winner = Some(w);
        } else {
            self.start_phase(Some(samples));
        }
    }

    /// True once every representative of the current phase has reported
    /// all `reps` measurements taken in this phase.
    fn phase_data_complete(&self, samples: &[Vec<f64>]) -> bool {
        self.tests
            .iter()
            .all(|&(_, f)| samples[f].len() >= self.baseline[f] + self.min_samples)
    }
}

impl Strategy for Heuristic {
    fn next_assignment(&mut self, samples: &[Vec<f64>]) -> usize {
        loop {
            if let Some(w) = self.winner {
                return w;
            }
            if self.phase_emitted < self.tests.len() * self.reps {
                let t = self.phase_emitted / self.reps;
                self.phase_emitted += 1;
                return self.tests[t].1;
            }
            // Stay provisional until this phase's measurements are all in
            // (ranks lag each other by an iteration or two).
            if !self.phase_data_complete(samples) {
                return self
                    .tests
                    .iter()
                    .min_by(|(_, f1), (_, f2)| {
                        let s1 = self.filter.score(&samples[*f1]);
                        let s2 = self.filter.score(&samples[*f2]);
                        s1.partial_cmp(&s2).expect("NaN score")
                    })
                    .map(|&(_, f)| f)
                    .expect("phase with no tests");
            }
            self.finish_phase(samples);
        }
    }
    fn winner(&self) -> Option<usize> {
        self.winner
    }
    fn name(&self) -> &'static str {
        "attribute-heuristic"
    }
}

// ----------------------------------------------------------------------
// 2^k factorial design
// ----------------------------------------------------------------------

struct Factorial {
    attr_vecs: Vec<Vec<i64>>,
    attrs: AttributeSet,
    reps: usize,
    min_samples: usize,
    filter: FilterKind,
    /// Distinct corner functions to test.
    corner_funcs: Vec<usize>,
    /// For each of the 2^k corners, the function representing it.
    corner_of_combo: Vec<usize>,
    emitted: usize,
    winner: Option<usize>,
}

/// Normalized L1 distance between a function's attribute vector and a
/// target vector, each attribute scaled by its domain range.
fn attr_distance(vec: &[i64], target: &[i64], attrs: &AttributeSet) -> f64 {
    vec.iter()
        .zip(target)
        .zip(&attrs.attrs)
        .map(|((&v, &t), a)| {
            let lo = *a.values.first().unwrap_or(&0);
            let hi = *a.values.last().unwrap_or(&0);
            let range = (hi - lo).max(1) as f64;
            ((v - t).abs() as f64) / range
        })
        .sum()
}

/// Function index nearest to `target` in normalized attribute space.
fn nearest_function(attr_vecs: &[Vec<i64>], target: &[i64], attrs: &AttributeSet) -> usize {
    attr_vecs
        .iter()
        .enumerate()
        .min_by(|(_, a), (_, b)| {
            attr_distance(a, target, attrs)
                .partial_cmp(&attr_distance(b, target, attrs))
                .expect("NaN distance")
        })
        .map(|(i, _)| i)
        .expect("nonempty function set")
}

impl Factorial {
    fn new(
        attr_vecs: Vec<Vec<i64>>,
        attrs: AttributeSet,
        reps: usize,
        min_samples: usize,
        filter: FilterKind,
    ) -> Self {
        let k = attrs.len();
        let mut f = Factorial {
            attr_vecs,
            attrs,
            reps,
            min_samples,
            filter,
            corner_funcs: Vec::new(),
            corner_of_combo: Vec::new(),
            emitted: 0,
            winner: None,
        };
        if k == 0 {
            f.winner = Some(0);
            return f;
        }
        for combo in 0..(1usize << k) {
            let target: Vec<i64> = (0..k)
                .map(|a| {
                    let vals = &f.attrs.attrs[a].values;
                    if combo >> a & 1 == 1 {
                        *vals.last().unwrap()
                    } else {
                        *vals.first().unwrap()
                    }
                })
                .collect();
            let func = nearest_function(&f.attr_vecs, &target, &f.attrs);
            f.corner_of_combo.push(func);
            if !f.corner_funcs.contains(&func) {
                f.corner_funcs.push(func);
            }
        }
        f
    }

    fn decide(&mut self, samples: &[Vec<f64>]) {
        let k = self.attrs.len();
        // Main effect per attribute: mean corner score at the high level
        // minus at the low level; pick whichever level scores lower.
        let target: Vec<i64> = (0..k)
            .map(|a| {
                let (mut lo_sum, mut lo_n, mut hi_sum, mut hi_n) = (0.0, 0usize, 0.0, 0usize);
                for combo in 0..(1usize << k) {
                    let s = self.filter.score(&samples[self.corner_of_combo[combo]]);
                    if !s.is_finite() {
                        continue;
                    }
                    if combo >> a & 1 == 1 {
                        hi_sum += s;
                        hi_n += 1;
                    } else {
                        lo_sum += s;
                        lo_n += 1;
                    }
                }
                let vals = &self.attrs.attrs[a].values;
                let lo = *vals.first().unwrap();
                let hi = *vals.last().unwrap();
                if lo_n == 0 {
                    return hi;
                }
                if hi_n == 0 {
                    return lo;
                }
                if hi_sum / hi_n as f64 <= lo_sum / lo_n as f64 {
                    hi
                } else {
                    lo
                }
            })
            .collect();
        self.winner = Some(nearest_function(&self.attr_vecs, &target, &self.attrs));
    }
}

impl Strategy for Factorial {
    fn next_assignment(&mut self, samples: &[Vec<f64>]) -> usize {
        if let Some(w) = self.winner {
            return w;
        }
        if self.emitted < self.corner_funcs.len() * self.reps {
            let i = self.emitted / self.reps;
            self.emitted += 1;
            return self.corner_funcs[i];
        }
        if self
            .corner_funcs
            .iter()
            .any(|&f| samples[f].len() < self.min_samples)
        {
            // Provisional until every corner has reported.
            return self.filter.argmin(samples).unwrap_or(self.corner_funcs[0]);
        }
        self.decide(samples);
        self.winner.expect("decide sets winner")
    }
    fn winner(&self) -> Option<usize> {
        self.winner
    }
    fn name(&self) -> &'static str {
        "2k-factorial"
    }
}

// ----------------------------------------------------------------------
// Racing elimination
// ----------------------------------------------------------------------

/// Brute force with block-interleaved deterministic elimination.
///
/// Candidates are measured in fixed-size blocks: every still-active
/// candidate, in index order, receives `block` consecutive iterations,
/// then the strategy waits for the block's measurements. After each
/// complete block the current leader is the active candidate with the
/// lowest `(score, name, index)` triple (a total order — ties cannot
/// depend on timing or thread interleaving), and any other candidate
/// whose filtered lower bound exceeds the leader's filtered upper bound
/// is permanently eliminated. The block schedule is a pure function of
/// the elimination history, so the emitted iteration sequence — and with
/// it every simulated event — is byte-identical across reruns and `--jobs`
/// values.
struct Racing {
    reps: usize,
    block: usize,
    min_samples: usize,
    names: Vec<String>,
    filter: FilterKind,
    active: Vec<bool>,
    /// 1-based block at which each candidate was eliminated.
    eliminated_at: Vec<Option<usize>>,
    /// Completed (fully emitted) blocks so far.
    block_no: usize,
    /// Iterations handed out per candidate (including warmup discards).
    emitted_iters: Vec<usize>,
    /// Assignments of the current block not yet handed out.
    pending: VecDeque<usize>,
    winner: Option<usize>,
}

impl Racing {
    fn new(
        n_funcs: usize,
        names: &[String],
        reps: usize,
        min_samples: usize,
        block: usize,
        filter: FilterKind,
    ) -> Self {
        assert_eq!(names.len(), n_funcs, "one name per function");
        Racing {
            reps,
            block,
            min_samples,
            names: names.to_vec(),
            filter,
            active: vec![true; n_funcs],
            eliminated_at: vec![None; n_funcs],
            block_no: 0,
            emitted_iters: vec![0; n_funcs],
            pending: VecDeque::new(),
            winner: None,
        }
    }

    fn active_indices(&self) -> impl Iterator<Item = usize> + '_ {
        self.active
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(f, _)| f)
    }

    /// Active candidate with the lowest `(score, name, index)`; `None`
    /// while no active candidate has a finite score yet.
    fn leader(&self, samples: &[Vec<f64>]) -> Option<usize> {
        self.active_indices()
            .filter_map(|f| {
                let sc = self.filter.score(&samples[f]);
                sc.is_finite().then_some((f, sc))
            })
            .min_by(|&(f1, s1), &(f2, s2)| {
                s1.total_cmp(&s2)
                    .then_with(|| self.names[f1].cmp(&self.names[f2]))
                    .then_with(|| f1.cmp(&f2))
            })
            .map(|(f, _)| f)
    }

    /// Drop every active non-leader whose optimistic bound is already
    /// worse than the leader's pessimistic bound.
    fn eliminate(&mut self, samples: &[Vec<f64>]) {
        let Some(leader) = self.leader(samples) else {
            return;
        };
        let ub = self.filter.upper_bound(&samples[leader]);
        for (f, sample) in samples.iter().enumerate().take(self.active.len()) {
            if !self.active[f] || f == leader || sample.is_empty() {
                continue;
            }
            if self.filter.lower_bound(sample) > ub {
                self.active[f] = false;
                self.eliminated_at[f] = Some(self.block_no);
            }
        }
    }

    fn provisional(&self, samples: &[Vec<f64>]) -> usize {
        self.leader(samples)
            .or_else(|| self.active_indices().next())
            .unwrap_or(0)
    }
}

impl Strategy for Racing {
    fn next_assignment(&mut self, samples: &[Vec<f64>]) -> usize {
        loop {
            if let Some(w) = self.winner {
                return w;
            }
            if let Some(f) = self.pending.pop_front() {
                return f;
            }
            // Between blocks. The first `reps - min_samples` iterations of
            // each candidate are warmup discards, so a candidate that has
            // been handed `e` iterations owes `e - warmup` measurements.
            // Like brute force, stay provisional (never commit, never
            // eliminate) until every active candidate's block data is in.
            let warmup = self.reps - self.min_samples;
            let complete = self
                .active_indices()
                .all(|f| samples[f].len() >= self.emitted_iters[f].saturating_sub(warmup));
            if !complete {
                return self.provisional(samples);
            }
            if self.block_no > 0 {
                self.eliminate(samples);
                if self.active.iter().filter(|&&a| a).count() == 1 {
                    // Everyone else is dominated: commit early without
                    // spending the survivor's remaining budget.
                    let sole = self.active_indices().next();
                    self.winner = sole;
                    continue;
                }
            }
            if self
                .active_indices()
                .all(|f| self.emitted_iters[f] >= self.reps)
            {
                // Full budget spent for every survivor: commit like brute
                // force, with the racing total order as the tie-break.
                self.winner = Some(self.provisional(samples));
                continue;
            }
            // Emit the next block: every active candidate, in index
            // order, gets up to `block` of its remaining iterations.
            self.block_no += 1;
            for f in 0..self.active.len() {
                if !self.active[f] || self.emitted_iters[f] >= self.reps {
                    continue;
                }
                let take = self.block.min(self.reps - self.emitted_iters[f]);
                self.emitted_iters[f] += take;
                for _ in 0..take {
                    self.pending.push_back(f);
                }
            }
        }
    }
    fn winner(&self) -> Option<usize> {
        self.winner
    }
    fn name(&self) -> &'static str {
        "racing"
    }
    fn eliminations(&self) -> Option<&[Option<usize>]> {
        Some(&self.eliminated_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drive a strategy against a synthetic cost oracle until convergence;
    /// returns (winner, iterations spent learning).
    fn drive(
        strategy: &mut dyn Strategy,
        n: usize,
        mut cost: impl FnMut(usize) -> f64,
    ) -> (usize, usize) {
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); n];
        let mut iters = 0;
        loop {
            let f = strategy.next_assignment(&samples);
            if let Some(w) = strategy.winner() {
                if samples.iter().map(|s| s.len()).sum::<usize>() > 0 || n == 1 {
                    return (w, iters);
                }
            }
            samples[f].push(cost(f));
            iters += 1;
            if iters > 100_000 {
                panic!("strategy never converged");
            }
        }
    }

    fn grid_attrs() -> (Vec<Vec<i64>>, AttributeSet) {
        // 2 attributes: a in {0,1,2}, b in {10, 20}; 6 functions.
        let mut vecs = Vec::new();
        for a in 0..3i64 {
            for b in [10i64, 20] {
                vecs.push(vec![a, b]);
            }
        }
        let names = ["a", "b"];
        let attrs = AttributeSet::from_functions(&names, &vecs);
        (vecs, attrs)
    }

    fn func_names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("f{i:02}")).collect()
    }

    #[test]
    fn fixed_never_learns() {
        let (vecs, attrs) = grid_attrs();
        let mut s = SelectionLogic::Fixed(3).build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            5,
            5,
            FilterKind::default(),
        );
        assert_eq!(s.winner(), Some(3));
        assert_eq!(s.next_assignment(&vec![Vec::new(); 6]), 3);
    }

    #[test]
    fn brute_force_finds_minimum() {
        let (vecs, attrs) = grid_attrs();
        let mut s = SelectionLogic::BruteForce.build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            4,
            4,
            FilterKind::default(),
        );
        let (w, iters) = drive(s.as_mut(), 6, |f| 10.0 + ((f as f64) - 4.0).abs());
        assert_eq!(w, 4);
        assert_eq!(iters, 24); // 6 functions x 4 reps
    }

    #[test]
    fn brute_force_robust_to_one_outlier() {
        let (vecs, attrs) = grid_attrs();
        let mut s = SelectionLogic::BruteForce.build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            8,
            8,
            FilterKind::Iqr(1.5),
        );
        let mut call = 0usize;
        let (w, _) = drive(s.as_mut(), 6, move |f| {
            call += 1;
            let base = if f == 2 { 1.0 } else { 2.0 };
            // Inject a single enormous spike into the true winner's samples.
            if f == 2 && call % 7 == 3 {
                base + 100.0
            } else {
                base
            }
        });
        assert_eq!(w, 2);
    }

    #[test]
    fn heuristic_finds_separable_minimum() {
        let (vecs, attrs) = grid_attrs();
        // Separable cost: best a=1, best b=20 -> function [1,20] = index 3.
        let vecs2 = vecs.clone();
        let cost = move |f: usize| {
            let a = vecs2[f][0] as f64;
            let b = vecs2[f][1] as f64;
            (a - 1.0).abs() * 10.0 + (b - 20.0).abs() * 0.1 + 1.0
        };
        let mut s = SelectionLogic::AttributeHeuristic.build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            3,
            3,
            FilterKind::default(),
        );
        let (w, iters) = drive(s.as_mut(), 6, cost);
        assert_eq!(vecs[w], vec![1, 20]);
        // Heuristic tests 3 values of a + 2 values of b = 5 representatives,
        // 3 reps each = 15 iterations < 18 for brute force.
        assert_eq!(iters, 15);
    }

    #[test]
    fn heuristic_prunes_fewer_tests_than_brute_force() {
        // Paper's Ibcast shape: 7 x 3 = 21 functions.
        let mut vecs = Vec::new();
        for a in [0i64, 1, 2, 3, 4, 5, 99] {
            for b in [32i64, 64, 128] {
                vecs.push(vec![a, b]);
            }
        }
        let attrs = AttributeSet::from_functions(&["fanout", "segsize"], &vecs);
        let vecs2 = vecs.clone();
        let cost = move |f: usize| (vecs2[f][0] as f64 - 3.0).abs() + (vecs2[f][1] as f64) * 0.001;
        let mut h = SelectionLogic::AttributeHeuristic.build(
            21,
            &vecs,
            &attrs,
            &func_names(21),
            5,
            5,
            FilterKind::default(),
        );
        let (w, h_iters) = drive(h.as_mut(), 21, &cost);
        assert_eq!(vecs[w], vec![3, 32]);
        let mut b = SelectionLogic::BruteForce.build(
            21,
            &vecs,
            &attrs,
            &func_names(21),
            5,
            5,
            FilterKind::default(),
        );
        let (wb, b_iters) = drive(b.as_mut(), 21, &cost);
        assert_eq!(vecs[wb], vec![3, 32]);
        assert!(
            h_iters < b_iters,
            "heuristic {h_iters} should beat brute force {b_iters}"
        );
    }

    #[test]
    fn factorial_picks_predicted_corner() {
        let (vecs, attrs) = grid_attrs();
        // Monotone cost: lower a better, higher b better -> corner [0, 20].
        let vecs2 = vecs.clone();
        let cost = move |f: usize| vecs2[f][0] as f64 * 5.0 - vecs2[f][1] as f64 * 0.1 + 10.0;
        let mut s = SelectionLogic::TwoKFactorial.build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            3,
            3,
            FilterKind::default(),
        );
        let (w, iters) = drive(s.as_mut(), 6, cost);
        assert_eq!(vecs[w], vec![0, 20]);
        // 4 corners x 3 reps.
        assert_eq!(iters, 12);
    }

    #[test]
    fn nearest_function_normalizes_ranges() {
        let (vecs, attrs) = grid_attrs();
        // Target exactly a function.
        assert_eq!(nearest_function(&vecs, &[2, 10], &attrs), 4);
        // Off-grid target snaps to the closest in scaled space.
        let n = nearest_function(&vecs, &[2, 13], &attrs);
        assert_eq!(vecs[n], vec![2, 10]);
    }

    #[test]
    fn best_so_far_before_convergence() {
        let (vecs, attrs) = grid_attrs();
        let mut s = SelectionLogic::BruteForce.build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            10,
            10,
            FilterKind::default(),
        );
        let mut samples: Vec<Vec<f64>> = vec![Vec::new(); 6];
        // Measure two functions only.
        let f = s.next_assignment(&samples);
        samples[f].push(5.0);
        samples[1].push(1.0);
        assert_eq!(s.best_so_far(&samples), 1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn fixed_out_of_range_rejected() {
        let (vecs, attrs) = grid_attrs();
        SelectionLogic::Fixed(9).build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            1,
            1,
            FilterKind::default(),
        );
    }

    #[test]
    fn racing_eliminates_slow_candidate_after_block_one() {
        let (vecs, attrs) = grid_attrs();
        let mut s = SelectionLogic::Racing(2).build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            6,
            6,
            FilterKind::default(),
        );
        // Candidate 3 is deliberately ~30x slower; the fast ones overlap
        // (per-call jitter wider than their separation) so they survive
        // the early blocks and keep racing.
        let mut call = 0usize;
        let (w, iters) = drive(s.as_mut(), 6, move |f| {
            call += 1;
            let jitter = (call % 4) as f64;
            if f == 3 {
                100.0 + jitter
            } else {
                1.0 + jitter
            }
        });
        assert_ne!(w, 3, "the slow candidate must never win");
        let elim = s.eliminations().expect("racing records eliminations");
        assert_eq!(elim[3], Some(1), "slow candidate dropped after block 1");
        assert_eq!(elim[w], None, "the winner is never eliminated");
        // Brute force would spend 6 functions x 6 reps = 36 learning
        // iterations; elimination must cut that.
        assert!(iters < 36, "racing spent {iters} iterations, expected < 36");
    }

    #[test]
    fn racing_matches_brute_force_on_well_separated_costs() {
        let (vecs, attrs) = grid_attrs();
        let cost = |f: usize| 10.0 + ((f as f64) - 4.0).abs();
        let mut r = SelectionLogic::Racing(2).build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            4,
            4,
            FilterKind::default(),
        );
        let (wr, r_iters) = drive(r.as_mut(), 6, cost);
        let mut b = SelectionLogic::BruteForce.build(
            6,
            &vecs,
            &attrs,
            &func_names(6),
            4,
            4,
            FilterKind::default(),
        );
        let (wb, b_iters) = drive(b.as_mut(), 6, cost);
        assert_eq!(wr, wb, "racing winner must match brute force");
        assert!(r_iters <= b_iters);
    }

    #[test]
    fn racing_reruns_are_byte_identical() {
        // Same oracle, two runs: the emitted assignment sequence (hence
        // every simulated event) must match exactly.
        let (vecs, attrs) = grid_attrs();
        let run = || {
            let mut s = SelectionLogic::Racing(2).build(
                6,
                &vecs,
                &attrs,
                &func_names(6),
                5,
                5,
                FilterKind::default(),
            );
            let mut samples: Vec<Vec<f64>> = vec![Vec::new(); 6];
            let mut seq = Vec::new();
            let mut call = 0usize;
            while s.winner().is_none() {
                let f = s.next_assignment(&samples);
                seq.push(f);
                call += 1;
                samples[f].push(if f == 2 { 1.0 } else { 3.0 + (call % 3) as f64 });
                if call > 10_000 {
                    panic!("no convergence");
                }
            }
            (seq, s.winner())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn racing_single_candidate_commits() {
        let attrs = AttributeSet::from_functions(&[], &[vec![]]);
        let mut s = SelectionLogic::Racing(2).build(
            1,
            &[vec![]],
            &attrs,
            &func_names(1),
            3,
            3,
            FilterKind::default(),
        );
        let (w, iters) = drive(s.as_mut(), 1, |_| 1.0);
        assert_eq!(w, 0);
        assert!(iters <= 3);
    }

    #[test]
    fn racing_env_spec_parses() {
        assert_eq!(parse_racing(None), RacingEnv::Unset);
        assert_eq!(parse_racing(Some("")), RacingEnv::Unset);
        assert_eq!(parse_racing(Some("off")), RacingEnv::Off);
        assert_eq!(parse_racing(Some("0")), RacingEnv::Off);
        assert_eq!(
            parse_racing(Some("on")),
            RacingEnv::On(DEFAULT_RACING_BLOCK)
        );
        assert_eq!(parse_racing(Some("ON:4")), RacingEnv::On(4));
        assert_eq!(parse_racing(Some("on:0")), RacingEnv::Unset);
        assert_eq!(parse_racing(Some("bogus")), RacingEnv::Unset);
    }
}
