//! Statistical filtering of run-time measurements.
//!
//! Measurements taken while the application runs are contaminated by OS
//! noise and process-arrival skew. ADCL filters each function's sample set
//! before comparing implementations; the paper notes that the few wrong
//! decisions ADCL makes are caused by "a larger number of data outliers
//! during the evaluation phase". These filters are what keeps that rate low.

use simcore::stats;

/// Outlier-filtering policy applied to a function's sample set before
/// scoring.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FilterKind {
    /// No filtering: plain arithmetic mean.
    None,
    /// Tukey-fence IQR rejection with factor `k` (conventional `k` = 1.5),
    /// then the mean of the survivors.
    Iqr(f64),
    /// Trimmed mean, dropping fraction `t` from each tail.
    Trimmed(f64),
    /// Median (maximally robust location estimate).
    Median,
}

impl Default for FilterKind {
    fn default() -> Self {
        FilterKind::Iqr(1.5)
    }
}

impl FilterKind {
    /// Robust location estimate of a sample set under this policy.
    /// Returns `f64::INFINITY` for an empty sample (an unmeasured function
    /// never wins).
    pub fn score(&self, samples: &[f64]) -> f64 {
        if samples.is_empty() {
            return f64::INFINITY;
        }
        match *self {
            FilterKind::None => stats::mean(samples),
            FilterKind::Iqr(k) => stats::mean(&stats::iqr_filter(samples, k)),
            FilterKind::Trimmed(t) => stats::trimmed_mean(samples, t),
            FilterKind::Median => stats::median(samples),
        }
    }

    /// Number of samples that survive this filter (the population whose
    /// mean [`FilterKind::score`] reports). Feeds the tuner decision audit
    /// log, where `samples - survivors` is the outlier-rejection count.
    pub fn survivors(&self, samples: &[f64]) -> usize {
        if samples.is_empty() {
            return 0;
        }
        match *self {
            // Mean and median are computed over the full sample set.
            FilterKind::None | FilterKind::Median => samples.len(),
            FilterKind::Iqr(k) => stats::iqr_filter(samples, k).len(),
            FilterKind::Trimmed(t) => {
                // Mirror the clamp in `stats::trimmed_mean`: the drop per
                // tail never exceeds (len-1)/2, so at least one sample
                // always survives even for aggressive trim fractions on
                // tiny sample sets.
                let drop =
                    (((samples.len() as f64) * t).floor() as usize).min((samples.len() - 1) / 2);
                samples.len() - 2 * drop
            }
        }
    }

    /// Short human-readable name of this policy for audit records.
    pub fn describe(&self) -> String {
        match *self {
            FilterKind::None => "none".into(),
            FilterKind::Iqr(k) => format!("iqr({k})"),
            FilterKind::Trimmed(t) => format!("trimmed({t})"),
            FilterKind::Median => "median".into(),
        }
    }

    /// The sample subset that survives this filter (the population whose
    /// mean [`FilterKind::score`] reports). Mean/median policies keep the
    /// full set; IQR and trimmed policies drop their outliers.
    fn surviving(&self, samples: &[f64]) -> Vec<f64> {
        match *self {
            FilterKind::None | FilterKind::Median => samples.to_vec(),
            FilterKind::Iqr(k) => stats::iqr_filter(samples, k),
            FilterKind::Trimmed(t) => {
                // Mirror the clamp in `stats::trimmed_mean`.
                let drop =
                    (((samples.len() as f64) * t).floor() as usize).min((samples.len() - 1) / 2);
                let mut sorted = samples.to_vec();
                sorted.sort_by(f64::total_cmp);
                sorted[drop..samples.len() - drop].to_vec()
            }
        }
    }

    /// Smallest sample surviving this filter: an optimistic bound on any
    /// robust location estimate the function can still achieve. Returns
    /// `f64::INFINITY` for an empty set (an unmeasured function has no
    /// evidence either way). Racing elimination compares a candidate's
    /// lower bound against the leader's [`FilterKind::upper_bound`].
    pub fn lower_bound(&self, samples: &[f64]) -> f64 {
        if samples.is_empty() {
            return f64::INFINITY;
        }
        self.surviving(samples)
            .into_iter()
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest sample surviving this filter: a pessimistic bound on the
    /// leader's final score. A candidate whose [`FilterKind::lower_bound`]
    /// exceeds this can never overtake the leader under this policy.
    pub fn upper_bound(&self, samples: &[f64]) -> f64 {
        if samples.is_empty() {
            return f64::NEG_INFINITY;
        }
        self.surviving(samples)
            .into_iter()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Index of the best (lowest-scoring) sample set among `sets`, or
    /// `None` if every set is empty.
    pub fn argmin(&self, sets: &[Vec<f64>]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, s) in sets.iter().enumerate() {
            let sc = self.score(s);
            if sc.is_finite() && best.is_none_or(|(_, b)| sc < b) {
                best = Some((i, sc));
            }
        }
        best.map(|(i, _)| i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_scores_infinite() {
        assert_eq!(FilterKind::default().score(&[]), f64::INFINITY);
    }

    #[test]
    fn iqr_ignores_spike() {
        let mut clean: Vec<f64> = (0..20).map(|i| 1.0 + 0.001 * i as f64).collect();
        let clean_score = FilterKind::Iqr(1.5).score(&clean);
        clean.push(50.0); // one massive outlier
        let spiked_score = FilterKind::Iqr(1.5).score(&clean);
        assert!((clean_score - spiked_score).abs() < 1e-6);
        // The unfiltered mean, by contrast, is badly skewed.
        assert!(FilterKind::None.score(&clean) > 3.0);
    }

    #[test]
    fn median_robust() {
        let xs = [1.0, 1.0, 1.0, 1.0, 100.0];
        assert_eq!(FilterKind::Median.score(&xs), 1.0);
    }

    #[test]
    fn survivors_counts_filter_population() {
        let xs = [1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 20.0];
        assert_eq!(FilterKind::None.survivors(&xs), 9);
        assert_eq!(FilterKind::Median.survivors(&xs), 9);
        assert_eq!(FilterKind::Iqr(1.5).survivors(&xs), 8); // spike rejected
        assert_eq!(FilterKind::Trimmed(0.2).survivors(&xs), 7); // 1 per tail
        assert_eq!(FilterKind::default().survivors(&[]), 0);
    }

    #[test]
    fn trimmed_overtrim_keeps_a_survivor() {
        // Aggressive trim fractions on tiny sample sets must leave at
        // least one survivor and a finite score.
        let xs = [1.0, 2.0, 30.0];
        assert_eq!(FilterKind::Trimmed(0.7).survivors(&xs), 1);
        assert_eq!(FilterKind::Trimmed(0.7).score(&xs), 2.0);
        assert_eq!(FilterKind::Trimmed(0.4).survivors(&[1.0, 2.0]), 2);
        assert_eq!(FilterKind::Trimmed(0.9).survivors(&[7.0]), 1);
        assert!(FilterKind::Trimmed(0.9).score(&[7.0]).is_finite());
    }

    #[test]
    fn argmin_picks_lowest() {
        let sets = vec![vec![3.0, 3.1], vec![1.0, 1.1], vec![2.0]];
        assert_eq!(FilterKind::default().argmin(&sets), Some(1));
    }

    #[test]
    fn argmin_skips_empty_sets() {
        let sets = vec![vec![], vec![5.0], vec![]];
        assert_eq!(FilterKind::default().argmin(&sets), Some(1));
        assert_eq!(FilterKind::default().argmin(&[vec![], vec![]]), None);
    }

    #[test]
    fn argmin_with_outliers_still_correct() {
        // Function 0 is truly faster but has one huge spike; IQR filtering
        // must still rank it first, while the raw mean would not.
        let f0 = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 20.0];
        let f1 = vec![2.0; 9];
        assert_eq!(
            FilterKind::Iqr(1.5).argmin(&[f0.clone(), f1.clone()]),
            Some(0)
        );
        assert_eq!(FilterKind::None.argmin(&[f0, f1]), Some(1));
    }
}
