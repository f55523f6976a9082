//! Functions and function-sets.
//!
//! In ADCL terminology a communication operation supported by the library
//! is a *function-set*, and a particular implementation of the operation is
//! a *function*. This module defines both and provides the default
//! function-sets used in the paper:
//!
//! * [`FunctionSet::ibcast_default`] — 7 fan-out values × 3 segment sizes
//!   = 21 implementations of the non-blocking broadcast,
//! * [`FunctionSet::ialltoall_default`] — linear, pairwise and
//!   dissemination implementations of the non-blocking all-to-all,
//! * [`FunctionSet::ialltoall_extended`] — the modified function-set of
//!   §IV-B that additionally contains *blocking* all-to-all variants
//!   (realized by not using the wait pointer: the operation completes
//!   inside `start`), letting the selection logic decide at run time
//!   whether overlapping pays off at all,
//! * [`FunctionSet::iallgather_default`] / [`FunctionSet::ireduce_default`]
//!   — the further operations ADCL converted from Open MPI to LibNBC
//!   schedules.

use crate::attr::AttributeSet;
use mpisim::RankId;
use nbc::allgather::{build_allgather, AllgatherAlgo};
use nbc::allreduce::{build_allreduce, AllreduceAlgo};
use nbc::alltoall::{build_alltoall, AlltoallAlgo};
use nbc::bcast::{build_bcast, BcastAlgo};
use nbc::gather::{build_gather, build_scatter, GatherAlgo};
use nbc::neighbor::{build_neighbor, Cart2d, NeighborAlgo};
use nbc::reduce::{build_reduce, ReduceAlgo};
use nbc::schedule::{CollSpec, Schedule};
use std::fmt;
use std::rc::Rc;

/// Attribute value encoding the binomial ("N") fan-out.
pub const FANOUT_BINOMIAL: i64 = 99;

/// Builds the per-rank schedule of one implementation. Every call is a
/// fresh build: the operation that runs the schedule
/// ([`crate::runner::TunedOp`]) calls the builder on a rank's first start
/// (on the first start of any rank for a [`Function::symmetric`] one),
/// stores the result and shares it with every later start.
pub type ScheduleBuilder = Rc<dyn Fn(RankId, &CollSpec) -> Schedule>;

/// One implementation of a collective operation.
#[derive(Clone)]
pub struct Function {
    /// Human-readable name (e.g. `"fanout2-seg64k"`, `"pairwise"`).
    pub name: String,
    /// Attribute values, aligned with the function-set's attribute names.
    pub attrs: Vec<i64>,
    /// If true, the function is executed *blocking*: it completes inside
    /// `start` and the wait is a no-op (the "wait function pointer is
    /// NULL" trick of §III-C).
    pub blocking: bool,
    /// The builder's algorithm is rank-symmetric: every rank's schedule,
    /// with peers relative to the rank, is the same, so the operation that
    /// runs it builds one and shares it across all ranks.
    pub symmetric: bool,
    /// Schedule builder.
    pub builder: ScheduleBuilder,
}

impl fmt::Debug for Function {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Function")
            .field("name", &self.name)
            .field("attrs", &self.attrs)
            .field("blocking", &self.blocking)
            .field("symmetric", &self.symmetric)
            .finish_non_exhaustive()
    }
}

/// A collective operation together with its pool of implementations.
#[derive(Debug, Clone)]
pub struct FunctionSet {
    /// Operation name (e.g. `"ialltoall"`).
    pub name: String,
    /// Attribute names, defining the meaning of `Function::attrs` entries.
    pub attr_names: Vec<String>,
    /// The implementations.
    pub functions: Vec<Function>,
    /// The operation instance parameters.
    pub spec: CollSpec,
}

impl FunctionSet {
    /// Derive the attribute-set (domains) from the contained functions.
    pub fn attribute_set(&self) -> AttributeSet {
        let names: Vec<&str> = self.attr_names.iter().map(|s| s.as_str()).collect();
        let vecs: Vec<Vec<i64>> = self.functions.iter().map(|f| f.attrs.clone()).collect();
        AttributeSet::from_functions(&names, &vecs)
    }

    /// Number of implementations.
    pub fn len(&self) -> usize {
        self.functions.len()
    }

    /// True if the set has no implementations.
    pub fn is_empty(&self) -> bool {
        self.functions.is_empty()
    }

    /// Index of the function called `name`.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.functions.iter().position(|f| f.name == name)
    }

    /// The paper's default `Ibcast` function-set: fan-out ∈ {linear, chain,
    /// 2, 3, 4, 5, binomial} × segment size ∈ {32, 64, 128} KiB.
    pub fn ibcast_default(spec: CollSpec) -> FunctionSet {
        let mut functions = Vec::new();
        for algo in BcastAlgo::all() {
            for seg_kib in [32usize, 64, 128] {
                let seg = seg_kib * 1024;
                let fanout = match algo {
                    BcastAlgo::Binomial => FANOUT_BINOMIAL,
                    other => other.fanout_attr(),
                };
                functions.push(Function {
                    name: format!("{}-seg{}k", algo.name(), seg_kib),
                    attrs: vec![fanout, seg as i64],
                    blocking: false,
                    symmetric: false,
                    builder: Rc::new(move |rank, spec| build_bcast(algo, seg, rank, spec)),
                });
            }
        }
        FunctionSet {
            name: "ibcast".into(),
            attr_names: vec!["fanout".into(), "segsize".into()],
            functions,
            spec,
        }
    }

    /// A set `name` of one attribute, `attr`, whose value is each
    /// function's index: one non-blocking function per `(name, symmetric,
    /// builder)`.
    pub(crate) fn indexed<N, B>(
        name: &str,
        attr: &str,
        spec: CollSpec,
        functions: impl IntoIterator<Item = (N, bool, B)>,
    ) -> FunctionSet
    where
        N: Into<String>,
        B: Fn(RankId, &CollSpec) -> Schedule + 'static,
    {
        let functions = functions.into_iter().enumerate();
        FunctionSet {
            name: name.into(),
            attr_names: vec![attr.into()],
            functions: functions
                .map(|(i, (name, symmetric, build))| Function {
                    name: name.into(),
                    attrs: vec![i as i64],
                    blocking: false,
                    symmetric,
                    builder: Rc::new(build),
                })
                .collect(),
            spec,
        }
    }

    /// The paper's default `Ialltoall` function-set: linear, dissemination
    /// (Bruck) and pairwise exchange.
    pub fn ialltoall_default(spec: CollSpec) -> FunctionSet {
        let algos = AlltoallAlgo::all().into_iter().map(|algo| {
            let build = move |rank, spec: &CollSpec| build_alltoall(algo, rank, spec);
            (algo.name(), algo.symmetric(), build)
        });
        FunctionSet::indexed("ialltoall", "algorithm", spec, algos)
    }

    /// The §IV-B *extended* `Ialltoall` function-set: the three non-blocking
    /// implementations plus their blocking counterparts, so the selection
    /// logic also decides blocking vs non-blocking at run time.
    pub fn ialltoall_extended(spec: CollSpec) -> FunctionSet {
        let mut set = Self::ialltoall_default(spec);
        set.name = "ialltoall-ext".into();
        set.attr_names.push("blocking".into());
        let blocking: Vec<Function> = set
            .functions
            .iter()
            .map(|f| Function {
                name: format!("{}-blocking", f.name),
                attrs: vec![f.attrs[0], 1],
                blocking: true,
                ..f.clone()
            })
            .collect();
        for f in &mut set.functions {
            f.attrs.push(0);
        }
        set.functions.extend(blocking);
        set
    }

    /// `Iallgather` function-set: linear, ring and Bruck.
    pub fn iallgather_default(spec: CollSpec) -> FunctionSet {
        let algos = AllgatherAlgo::all().into_iter().map(|algo| {
            let build = move |rank, spec: &CollSpec| build_allgather(algo, rank, spec);
            (algo.name(), algo.symmetric(), build)
        });
        FunctionSet::indexed("iallgather", "algorithm", spec, algos)
    }

    /// `Ireduce` function-set: binomial, chain and linear trees.
    pub fn ireduce_default(spec: CollSpec) -> FunctionSet {
        let algos = ReduceAlgo::all().into_iter().map(|algo| {
            let build = move |rank, spec: &CollSpec| build_reduce(algo, rank, spec);
            (algo.name(), false, build)
        });
        FunctionSet::indexed("ireduce", "algorithm", spec, algos)
    }

    /// `Iallreduce` function-set: recursive doubling, ring
    /// (reduce-scatter + all-gather), and reduce + broadcast.
    pub fn iallreduce_default(spec: CollSpec) -> FunctionSet {
        let algos = AllreduceAlgo::all().into_iter().map(|algo| {
            let build = move |rank, spec: &CollSpec| build_allreduce(algo, rank, spec);
            (algo.name(), algo.symmetric(), build)
        });
        FunctionSet::indexed("iallreduce", "algorithm", spec, algos)
    }

    /// `Igather` function-set: linear and binomial trees.
    pub fn igather_default(spec: CollSpec) -> FunctionSet {
        let algos = GatherAlgo::all().into_iter().map(|algo| {
            let build = move |rank, spec: &CollSpec| build_gather(algo, rank, spec);
            (algo.name(), false, build)
        });
        FunctionSet::indexed("igather", "algorithm", spec, algos)
    }

    /// `Iscatter` function-set: linear and binomial trees.
    pub fn iscatter_default(spec: CollSpec) -> FunctionSet {
        let algos = GatherAlgo::all().into_iter().map(|algo| {
            let build = move |rank, spec: &CollSpec| build_scatter(algo, rank, spec);
            (algo.name(), false, build)
        });
        FunctionSet::indexed("iscatter", "algorithm", spec, algos)
    }

    /// Cartesian neighborhood-exchange function-set (ADCL's original core
    /// use case): halo exchange on a periodic `gx × gy` process grid with
    /// post-all, per-dimension and fully ordered schedules.
    ///
    /// `spec.msg_bytes` is the halo size per neighbour; `spec.nprocs` must
    /// equal `gx * gy`.
    pub fn ineighbor_default(spec: CollSpec, gx: usize, gy: usize) -> FunctionSet {
        assert_eq!(spec.nprocs, gx * gy, "grid must cover all ranks");
        let grid = Cart2d { gx, gy };
        let algos = NeighborAlgo::all().into_iter().map(|algo| {
            let build =
                move |rank, spec: &CollSpec| build_neighbor(algo, grid, rank, spec.msg_bytes);
            (algo.name(), false, build)
        });
        FunctionSet::indexed("ineighbor", "schedule", spec, algos)
    }

    /// A single-function set (used to pin a baseline implementation, e.g.
    /// "LibNBC default = linear alltoall" in §IV-B).
    pub fn pinned(mut self, function_name: &str) -> FunctionSet {
        let idx = self
            .index_of(function_name)
            .unwrap_or_else(|| panic!("no function named {function_name} in {}", self.name));
        let f = self.functions.swap_remove(idx);
        self.functions = vec![f];
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> CollSpec {
        CollSpec::new(8, 4096)
    }

    #[test]
    fn ibcast_has_21_functions() {
        let set = FunctionSet::ibcast_default(spec());
        assert_eq!(set.len(), 21);
        let attrs = set.attribute_set();
        assert_eq!(attrs.attrs[0].values.len(), 7); // fan-outs
        assert_eq!(attrs.attrs[1].values, vec![32768, 65536, 131072]);
    }

    #[test]
    fn ialltoall_has_three() {
        let set = FunctionSet::ialltoall_default(spec());
        assert_eq!(set.len(), 3);
        assert!(set.index_of("linear").is_some());
        assert!(set.index_of("pairwise").is_some());
        assert!(set.index_of("dissemination").is_some());
        assert!(set.functions.iter().all(|f| !f.blocking));
    }

    #[test]
    fn extended_set_adds_blocking_variants() {
        let set = FunctionSet::ialltoall_extended(spec());
        assert_eq!(set.len(), 6);
        assert_eq!(set.functions.iter().filter(|f| f.blocking).count(), 3);
        let attrs = set.attribute_set();
        assert_eq!(attrs.attrs[1].name, "blocking");
        assert_eq!(attrs.attrs[1].values, vec![0, 1]);
    }

    #[test]
    fn builders_produce_schedules() {
        let set = FunctionSet::ialltoall_default(spec());
        for f in &set.functions {
            let sched = (f.builder)(0, &set.spec);
            assert!(sched.num_rounds() > 0, "{}", f.name);
            sched.validate().unwrap();
        }
    }

    #[test]
    fn pinned_keeps_one() {
        let set = FunctionSet::ialltoall_default(spec()).pinned("linear");
        assert_eq!(set.len(), 1);
        assert_eq!(set.functions[0].name, "linear");
    }

    #[test]
    #[should_panic(expected = "no function named")]
    fn pinned_unknown_panics() {
        FunctionSet::ialltoall_default(spec()).pinned("quantum");
    }

    #[test]
    fn other_sets_construct() {
        assert_eq!(FunctionSet::iallgather_default(spec()).len(), 3);
        assert_eq!(FunctionSet::ireduce_default(spec()).len(), 3);
        assert_eq!(FunctionSet::iallreduce_default(spec()).len(), 3);
        assert_eq!(FunctionSet::igather_default(spec()).len(), 2);
        assert_eq!(FunctionSet::iscatter_default(spec()).len(), 2);
        let neigh = FunctionSet::ineighbor_default(CollSpec::new(8, 512), 4, 2);
        assert_eq!(neigh.len(), 3);
        for f in &neigh.functions {
            let sched = (f.builder)(3, &neigh.spec);
            sched.validate().unwrap();
            assert!(sched.num_sends() >= 2, "{}", f.name);
        }
    }

    #[test]
    #[should_panic(expected = "grid must cover")]
    fn neighbor_grid_mismatch_rejected() {
        FunctionSet::ineighbor_default(CollSpec::new(8, 512), 3, 2);
    }
}
