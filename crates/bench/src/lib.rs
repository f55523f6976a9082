//! Shared infrastructure for the figure/table-regeneration binaries.
//!
//! Every figure and table of the paper's evaluation section has a binary
//! in `src/bin/` that regenerates it (see the experiment index in
//! `DESIGN.md`). Each binary prints the same rows/series the paper
//! reports. By default the experiments run at a scaled-down size that
//! completes in seconds; pass `--full` to use the paper-scale process
//! counts (slower, same shape).

#![forbid(unsafe_code)]

use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use autonbc::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Worker-thread count for the current process, set once by
/// [`Args::parse`] and read by the sweep helpers ([`verification_table`],
/// [`fft_table`]). Defaults to 1 (serial) so library users who never parse
/// arguments get the serial baseline.
static JOBS: AtomicUsize = AtomicUsize::new(1);

/// Set the process-wide worker count used by the sweep helpers.
pub fn set_jobs(n: usize) {
    JOBS.store(n.max(1), Ordering::Relaxed);
}

/// The process-wide worker count (1 unless [`set_jobs`] raised it).
pub fn jobs() -> usize {
    JOBS.load(Ordering::Relaxed).max(1)
}

/// Command-line options common to all figure binaries.
#[derive(Debug, Clone, Copy)]
pub struct Args {
    /// Run at paper-scale process counts instead of the standard defaults.
    pub full: bool,
    /// Run a minimal smoke-sized sweep (used by `scripts/verify.sh` and
    /// the jobs-invariance tests; fast even at `--jobs 1`).
    pub quick: bool,
    /// Requested worker threads; 0 means auto (`NBC_JOBS` env var, then
    /// the host's available parallelism).
    pub jobs: usize,
}

impl Args {
    /// Parse from `std::env::args`. Recognized: `--full`, `--quick`,
    /// `--jobs N` (also `--jobs=N`; `0` = auto), `--trace-out FILE` (also
    /// `--trace-out=FILE`; enables tracing to that file, like
    /// `NBC_TRACE=FILE`) and `--help`.
    /// Also publishes the resolved worker count via [`set_jobs`].
    pub fn parse() -> Args {
        let mut full = false;
        let mut quick = false;
        let mut jobs: Option<usize> = None;
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => full = true,
                "--quick" => quick = true,
                "--jobs" => {
                    let v = it.next().unwrap_or_else(|| {
                        eprintln!("--jobs needs a value (0 = auto)");
                        std::process::exit(2);
                    });
                    jobs = Some(parse_jobs(&v));
                }
                "--trace-out" => {
                    // `Args` is `Copy`, so the path rides on the global
                    // trace configuration rather than the struct.
                    let v = it.next().unwrap_or_else(|| {
                        eprintln!("--trace-out needs a file path");
                        std::process::exit(2);
                    });
                    simcore::trace::set_out_path(&v);
                }
                "--help" | "-h" => {
                    println!(
                        "usage: <figure-binary> [--full | --quick] [--jobs N] [--trace-out FILE]"
                    );
                    println!("  --full           paper-scale process counts (slower)");
                    println!("  --quick          minimal smoke-sized sweep (fast)");
                    println!("  --jobs N         worker threads for the sweep (0 = auto)");
                    println!("  --trace-out FILE write a Chrome trace_event timeline plus the");
                    println!("                   tuner audit log (same as NBC_TRACE=FILE)");
                    std::process::exit(0);
                }
                other => {
                    if let Some(v) = other.strip_prefix("--jobs=") {
                        jobs = Some(parse_jobs(v));
                    } else if let Some(v) = other.strip_prefix("--trace-out=") {
                        simcore::trace::set_out_path(v);
                    } else {
                        eprintln!(
                            "unknown argument {other}; supported: --full --quick --jobs N --trace-out FILE"
                        );
                        std::process::exit(2);
                    }
                }
            }
        }
        if full && quick {
            eprintln!("--full and --quick are mutually exclusive");
            std::process::exit(2);
        }
        let args = Args {
            full,
            quick,
            jobs: jobs.unwrap_or(0),
        };
        set_jobs(args.effective_jobs());
        args
    }

    /// The resolved worker count (explicit `--jobs`, then `NBC_JOBS`,
    /// then the host's available parallelism).
    pub fn effective_jobs(&self) -> usize {
        simcore::par::effective_jobs(Some(self.jobs))
    }

    /// Pick between the scaled-down and the paper-scale value (`--quick`
    /// also selects the scaled-down one).
    pub fn pick<T>(&self, quick: T, full: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }

    /// Three-way pick: the smoke-sized (`--quick`), standard, or
    /// paper-scale (`--full`) value.
    pub fn pick3<T>(&self, quick: T, standard: T, full: T) -> T {
        if self.full {
            full
        } else if self.quick {
            quick
        } else {
            standard
        }
    }
}

/// Write the collected timeline + tuner audit log to the `--trace-out` /
/// `NBC_TRACE` path, if one was configured. Every figure binary calls this
/// as its last statement; it is a no-op with tracing off and reports only
/// to stderr, so figure stdout stays byte-identical either way.
pub fn write_trace_if_requested() {
    autonbc::traceout::write_if_requested();
}

fn parse_jobs(v: &str) -> usize {
    v.trim().parse().unwrap_or_else(|_| {
        eprintln!("--jobs expects a non-negative integer, got {v:?}");
        std::process::exit(2);
    })
}

/// Print a figure banner.
pub fn banner(fig: &str, caption: &str) {
    println!("==========================================================================");
    println!("{fig}: {caption}");
    println!("==========================================================================");
}

/// Simple fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    widths: Vec<usize>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create with column headers.
    pub fn new(headers: &[&str]) -> Table {
        Table {
            widths: headers.iter().map(|h| h.len()).collect(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        for (w, c) in self.widths.iter_mut().zip(&cells) {
            *w = (*w).max(c.len());
        }
        self.rows.push(cells);
    }

    /// Print the table.
    pub fn print(&self) {
        let line: Vec<String> = self
            .headers
            .iter()
            .zip(&self.widths)
            .map(|(h, w)| format!("{h:>w$}", w = w))
            .collect();
        println!("{}", line.join("  "));
        println!("{}", "-".repeat(line.join("  ").len()));
        for r in &self.rows {
            let line: Vec<String> = r
                .iter()
                .zip(&self.widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect();
            println!("{}", line.join("  "));
        }
    }
}

/// Format seconds with engineering units.
pub fn fmt_secs(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

/// A verification-run scenario: run every implementation fixed, then ADCL
/// with brute force and the attribute heuristic, and print the comparison
/// (the bar groups of Figs. 2–5).
pub fn verification_table(spec: &MicrobenchSpec, label: &str) {
    println!();
    println!(
        "[{label}] {} on {}: {} procs, {} B msg, {} iters, {} compute, {} progress calls",
        spec.op.name(),
        spec.platform.name,
        spec.nprocs,
        spec.msg_bytes,
        spec.iters,
        spec.compute_total,
        spec.num_progress,
    );
    let mut t = Table::new(&["implementation", "total", "vs best"]);
    let rows = spec.run_all_fixed_jobs(jobs());
    let best = rows.iter().map(|(_, x)| *x).fold(f64::INFINITY, f64::min);
    for (name, total) in &rows {
        t.row(vec![
            name.clone(),
            fmt_secs(*total),
            format!("{:+.1}%", (total / best - 1.0) * 100.0),
        ]);
    }
    let logics = [tuned_logic(), SelectionLogic::AttributeHeuristic];
    let outs = simcore::par::par_map(jobs(), &logics, |_, &logic| spec.run(logic));
    for (logic, out) in logics.iter().zip(outs) {
        let name = match logic {
            SelectionLogic::BruteForce => "ADCL (brute force)",
            SelectionLogic::Racing(_) => "ADCL (racing)",
            SelectionLogic::AttributeHeuristic => "ADCL (heuristic)",
            _ => unreachable!(),
        };
        t.row(vec![
            format!("{name} -> {}", out.winner.unwrap_or_else(|| "?".into())),
            fmt_secs(out.total),
            format!("{:+.1}%", (out.total / best - 1.0) * 100.0),
        ]);
    }
    t.print();
}

/// The tuned-selection logic the figure binaries run: brute force by
/// default (byte-identical to every committed `results/*.txt`), swapped
/// for racing elimination when the user opts in with `NBC_RACING=on`
/// (or `on:BLOCK`). `NBC_RACING=off`/unset both keep brute force here —
/// the flag's default only flips inside the `adcld` daemon, whose cold
/// path is what racing exists for.
pub fn tuned_logic() -> SelectionLogic {
    match adcl::strategy::racing_env() {
        adcl::strategy::RacingEnv::On(block) => SelectionLogic::Racing(block),
        _ => SelectionLogic::BruteForce,
    }
}

/// Default micro-benchmark spec used by several figures.
pub fn base_spec(platform: Platform, nprocs: usize, msg_bytes: usize) -> MicrobenchSpec {
    MicrobenchSpec {
        platform,
        nprocs,
        op: CollectiveOp::Ialltoall,
        msg_bytes,
        iters: 30,
        compute_total: SimTime::from_millis(60),
        num_progress: 5,
        noise: NoiseConfig::light(2015),
        reps: 4,
        placement: Placement::Block,
        imbalance: Imbalance::None,
    }
}

/// Run the 3-D FFT kernel for every pattern under the given modes and
/// print one row per pattern (the bar groups of Figs. 9–12). Returns
/// `(pattern, mode, result)` tuples for further aggregation.
pub fn fft_table(
    platform: &Platform,
    procs: usize,
    cfg: &FftKernelConfig,
    modes: &[FftMode],
) -> Vec<(FftPattern, FftMode, fft3d::patterns::FftRunResult)> {
    println!();
    println!(
        "{}: {} procs, {}x{}x{} grid, tile {}, {} iterations",
        platform.name,
        procs,
        cfg.n,
        cfg.n,
        procs * cfg.planes_per_rank,
        cfg.tile,
        cfg.iters
    );
    let mut headers: Vec<String> = vec!["pattern".into()];
    for m in modes {
        headers.push(m.name().to_string());
    }
    headers.push("adcl winner".into());
    let hdr_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut t = Table::new(&hdr_refs);
    // Every (pattern, mode) kernel run is an independent simulation: fan
    // them out across the sweep engine, then assemble rows in input order.
    let work: Vec<(FftPattern, FftMode)> = FftPattern::all()
        .into_iter()
        .flat_map(|p| modes.iter().map(move |&m| (p, m)))
        .collect();
    // Kernel runs are far above the hand-off floor at every figure
    // size, but routing through the costed map keeps tiny test-sized
    // configs on the serial path instead of paying a pointless handoff.
    let est = work
        .iter()
        .map(|&(p, _)| cfg.est_run_nanos(p, procs))
        .max()
        .unwrap_or(simcore::par::COST_UNKNOWN);
    let runs = simcore::par::par_map_costed(jobs(), &work, est, |_, &(pattern, mode)| {
        fft3d::patterns::run_fft_kernel(
            platform,
            procs,
            cfg,
            pattern,
            mode,
            NoiseConfig::light(procs as u64),
        )
    });
    let mut results = Vec::new();
    let mut it = work.iter().zip(runs);
    for pattern in FftPattern::all() {
        let mut cells = vec![pattern.name().to_string()];
        let mut winner = String::new();
        for _ in modes {
            let (&(_, mode), r) = it.next().expect("one run per (pattern, mode)");
            cells.push(fmt_secs(r.total_time));
            if matches!(mode, FftMode::Adcl(_) | FftMode::AdclExtended(_)) {
                winner = r.winner.clone().unwrap_or_else(|| "?".into());
            }
            results.push((pattern, mode, r));
        }
        cells.push(winner);
        t.row(cells);
    }
    t.print();
    results
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formats() {
        let mut t = Table::new(&["a", "bb"]);
        t.row(vec!["x".into(), "12345".into()]);
        t.print();
    }

    #[test]
    fn fmt_units() {
        assert_eq!(fmt_secs(2.5), "2.500 s");
        assert_eq!(fmt_secs(2.5e-3), "2.50 ms");
        assert_eq!(fmt_secs(2.5e-6), "2.5 us");
    }

    #[test]
    fn args_pick() {
        let a = Args {
            full: false,
            quick: false,
            jobs: 0,
        };
        assert_eq!(a.pick(1, 2), 1);
        assert_eq!(a.pick3(0, 1, 2), 1);
        let a = Args {
            full: true,
            quick: false,
            jobs: 0,
        };
        assert_eq!(a.pick(1, 2), 2);
        assert_eq!(a.pick3(0, 1, 2), 2);
        let a = Args {
            full: false,
            quick: true,
            jobs: 0,
        };
        assert_eq!(a.pick(1, 2), 1);
        assert_eq!(a.pick3(0, 1, 2), 0);
    }

    #[test]
    fn jobs_setting_floor_is_one() {
        set_jobs(0);
        assert_eq!(jobs(), 1);
        set_jobs(4);
        assert_eq!(jobs(), 4);
        set_jobs(1);
    }
}
