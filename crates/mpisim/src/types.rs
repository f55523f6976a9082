//! Identifier and configuration types for the simulated MPI layer.

/// A simulated process (MPI rank).
pub type RankId = usize;

/// Message tag. Collective schedules allocate one tag per operation
/// instance so concurrently outstanding operations never cross-match;
/// within one `(source, tag)` pair, matching is FIFO, exactly as in MPI.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag(pub u64);

/// Handle to a posted non-blocking send: an index into the *sending*
/// rank's message arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SendHandle {
    pub(crate) rank: u32,
    pub(crate) idx: u32,
}

/// Handle to a posted non-blocking receive: an index into the *receiving*
/// rank's request arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct RecvHandle {
    pub(crate) rank: u32,
    pub(crate) idx: u32,
}

/// Compute-noise configuration for a simulation (see
/// [`simcore::rng::NoiseModel`]).
///
/// The paper attributes ADCL's occasional wrong decision to measurement
/// outliers caused by OS interference; enabling noise exercises the
/// statistical filter in the selection logic and makes verification runs
/// realistic.
#[derive(Debug, Clone, Copy)]
pub struct NoiseConfig {
    /// Master seed; every rank derives an independent stream.
    pub seed: u64,
    /// Relative stddev of multiplicative jitter on compute phases.
    pub jitter: f64,
    /// Probability of an OS-noise spike per compute phase.
    pub spike_prob: f64,
    /// Relative magnitude of a spike.
    pub spike_scale: f64,
}

impl NoiseConfig {
    /// No noise at all: fully deterministic compute times.
    pub fn none() -> Self {
        NoiseConfig {
            seed: 0,
            jitter: 0.0,
            spike_prob: 0.0,
            spike_scale: 0.0,
        }
    }

    /// A light, realistic noise level: 0.5 % jitter, 1 in 500 compute
    /// phases suffers a ~2x spike.
    pub fn light(seed: u64) -> Self {
        NoiseConfig {
            seed,
            jitter: 0.005,
            spike_prob: 0.002,
            spike_scale: 1.0,
        }
    }

    /// Heavy noise for stress-testing the measurement filter.
    pub fn heavy(seed: u64) -> Self {
        NoiseConfig {
            seed,
            jitter: 0.02,
            spike_prob: 0.01,
            spike_scale: 3.0,
        }
    }

    /// True if this configuration never perturbs anything.
    pub fn is_none(&self) -> bool {
        self.jitter == 0.0 && self.spike_prob == 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn noise_presets() {
        assert!(NoiseConfig::none().is_none());
        assert!(!NoiseConfig::light(1).is_none());
        assert!(NoiseConfig::heavy(1).spike_scale > NoiseConfig::light(1).spike_scale);
    }

    #[test]
    fn tags_order() {
        assert!(Tag(1) < Tag(2));
        assert_eq!(Tag(7), Tag(7));
    }
}
