//! One [`World`] per run.
//!
//! A run owns exactly what it uses, like the paper's persistent request:
//! [`with_world`] builds the world a simulation runs in and drops it when
//! the run ends, so a finished run keeps nothing and a long-lived process
//! does not grow with the shapes it has run. Building one costs no more
//! than resetting a warm one (a few microseconds at 64 ranks); DESIGN §14
//! has the measurements. [`World::reset`] serves a caller that runs one
//! shape many times on a world it holds itself.

use crate::types::NoiseConfig;
use crate::world::World;
use netmodel::{Placement, Platform};

/// Run `f` with a freshly built world of the given shape, then publish its
/// trace and drop it.
pub fn with_world<R>(
    platform: &Platform,
    nranks: usize,
    placement: Placement,
    noise: NoiseConfig,
    f: impl FnOnce(&mut World) -> R,
) -> R {
    f(&mut World::new(platform.clone(), nranks, placement, noise))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::NeighborExchange;

    #[test]
    fn every_run_gets_a_fresh_world() {
        let shape = (Platform::whale(), 4, Placement::RoundRobin);
        let run = || {
            with_world(&shape.0, shape.1, shape.2, NoiseConfig::none(), |w| {
                assert_eq!((w.nranks(), w.events_processed()), (4, 0));
                let makespan = w.run(&mut NeighborExchange::new(4, 3, 1024, 64 * 1024));
                (makespan.unwrap(), w.event_digest())
            })
        };
        // The second run starts where the first did, not where it ended.
        assert_eq!(run(), run());
    }
}
