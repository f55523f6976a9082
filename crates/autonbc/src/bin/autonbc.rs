//! `autonbc` — command-line driver for the auto-tuning simulator.
//!
//! ```text
//! autonbc platforms
//! autonbc tune --platform whale --op ialltoall --procs 32 --msg 128K \
//!              --iters 50 --compute 200ms --progress 5 --logic brute \
//!              [--all-fixed] [--noise SEED] [--roundrobin]
//! autonbc fft  --platform crill --procs 96 --grid 256 --iters 40 \
//!              [--mode adcl|adcl-ext|libnbc|mpi] [--pattern window-tiled]
//! ```

use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use autonbc::prelude::*;
use fft3d::patterns::run_fft_kernel;
use std::collections::HashMap;
use std::process::exit;

fn usage() -> ! {
    eprintln!(
        "usage:\n  autonbc platforms\n  autonbc tune --platform <name> --op <op> --procs <n> --msg <size> \\\n               [--iters N] [--compute DUR] [--progress N] [--logic brute|heuristic|factorial]\\\n               [--reps N] [--all-fixed] [--noise SEED] [--roundrobin]\n  autonbc fft  --platform <name> --procs <n> [--grid N] [--iters N] \\\n               [--mode adcl|adcl-ext|libnbc|mpi] [--pattern NAME]\n\nops: ialltoall ialltoall-ext ibcast iallgather ireduce iallreduce igather iscatter\nsizes accept K/M suffixes; durations accept us/ms/s suffixes\n\nany command also accepts --trace-out <file> (or NBC_TRACE=<file>): write a\nChrome trace_event timeline plus the tuner decision audit log"
    );
    exit(2)
}

/// Look up a platform preset, exiting with a diagnostic (never a panic)
/// when the user typos the name.
fn platform_or_exit(name: &str) -> Platform {
    Platform::by_name(name).unwrap_or_else(|| {
        eprintln!(
            "unknown platform '{name}'; valid presets: {}",
            Platform::preset_names().join(", ")
        );
        exit(2)
    })
}

fn parse_flags(args: &[String]) -> HashMap<String, String> {
    let mut map = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        if let Some(key) = a.strip_prefix("--") {
            let boolean = matches!(key, "all-fixed" | "roundrobin" | "help");
            if boolean {
                map.insert(key.to_string(), "true".to_string());
                i += 1;
            } else {
                if i + 1 >= args.len() {
                    eprintln!("missing value for --{key}");
                    usage();
                }
                map.insert(key.to_string(), args[i + 1].clone());
                i += 2;
            }
        } else {
            eprintln!("unexpected argument {a}");
            usage();
        }
    }
    map
}

fn parse_size(s: &str) -> usize {
    let s = s.trim();
    let (num, mult) = if let Some(n) = s.strip_suffix('M') {
        (n, 1024 * 1024)
    } else if let Some(n) = s.strip_suffix('K') {
        (n, 1024)
    } else {
        (s, 1)
    };
    num.parse::<usize>().unwrap_or_else(|_| {
        eprintln!("bad size: {s}");
        usage()
    }) * mult
}

fn parse_duration(s: &str) -> SimTime {
    let s = s.trim();
    if let Some(n) = s.strip_suffix("us") {
        SimTime::from_micros(n.parse().unwrap_or_else(|_| usage()))
    } else if let Some(n) = s.strip_suffix("ms") {
        SimTime::from_millis(n.parse().unwrap_or_else(|_| usage()))
    } else if let Some(n) = s.strip_suffix('s') {
        SimTime::from_secs_f64(n.parse().unwrap_or_else(|_| usage()))
    } else {
        eprintln!("bad duration: {s} (use us/ms/s)");
        usage()
    }
}

fn get<'a>(flags: &'a HashMap<String, String>, key: &str) -> &'a str {
    flags.get(key).map(|s| s.as_str()).unwrap_or_else(|| {
        eprintln!("missing required flag --{key}");
        usage()
    })
}

fn cmd_platforms() {
    println!(
        "{:<12} {:>6} {:>6} {:>5}  interconnect",
        "name", "nodes", "cores", "nics"
    );
    for name in Platform::preset_names() {
        let p = platform_or_exit(name);
        println!(
            "{:<12} {:>6} {:>6} {:>5}  {} (L={}, {:.2} GB/s)",
            p.name,
            p.nodes,
            p.cores_per_node,
            p.nics_per_node,
            p.inter.name,
            p.inter.latency,
            1.0 / p.inter.gap_ns_per_byte
        );
    }
}

fn cmd_tune(flags: HashMap<String, String>) {
    let platform = platform_or_exit(get(&flags, "platform"));
    let op = match get(&flags, "op") {
        "ialltoall" => CollectiveOp::Ialltoall,
        "ialltoall-ext" => CollectiveOp::IalltoallExtended,
        "ibcast" => CollectiveOp::Ibcast,
        "iallgather" => CollectiveOp::Iallgather,
        "ireduce" => CollectiveOp::Ireduce,
        "iallreduce" => CollectiveOp::Iallreduce,
        "igather" => CollectiveOp::Igather,
        "iscatter" => CollectiveOp::Iscatter,
        other => {
            eprintln!("unknown op {other}");
            usage()
        }
    };
    let logic = match flags.get("logic").map(|s| s.as_str()).unwrap_or("brute") {
        "brute" => SelectionLogic::BruteForce,
        "heuristic" => SelectionLogic::AttributeHeuristic,
        "factorial" => SelectionLogic::TwoKFactorial,
        other => {
            eprintln!("unknown logic {other}");
            usage()
        }
    };
    let spec = MicrobenchSpec {
        platform,
        nprocs: get(&flags, "procs").parse().unwrap_or_else(|_| usage()),
        op,
        msg_bytes: parse_size(get(&flags, "msg")),
        iters: flags
            .get("iters")
            .map(|s| s.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(50),
        compute_total: flags
            .get("compute")
            .map(|s| parse_duration(s))
            .unwrap_or(SimTime::from_millis(100)),
        num_progress: flags
            .get("progress")
            .map(|s| s.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(5),
        noise: flags
            .get("noise")
            .map(|s| NoiseConfig::light(s.parse().unwrap_or_else(|_| usage())))
            .unwrap_or(NoiseConfig::none()),
        reps: flags
            .get("reps")
            .map(|s| s.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(5),
        placement: if flags.contains_key("roundrobin") {
            Placement::RoundRobin
        } else {
            Placement::Block
        },
        imbalance: flags
            .get("imbalance")
            .map(|s| Imbalance::Ramp {
                spread: s.parse().unwrap_or_else(|_| usage()),
            })
            .unwrap_or(Imbalance::None),
    };
    println!(
        "{} on {}: {} procs, {} B, {} iters, {} compute, {} progress calls",
        spec.op.name(),
        spec.platform.name,
        spec.nprocs,
        spec.msg_bytes,
        spec.iters,
        spec.compute_total,
        spec.num_progress
    );
    if flags.contains_key("all-fixed") {
        println!("\nfixed implementations:");
        for (name, total) in spec.run_all_fixed() {
            println!("  {name:<24} {:>10.3} ms", total * 1e3);
        }
    }
    if let Some(path) = flags.get("trace") {
        // Re-run the winning configuration with tracing enabled and dump a
        // Chrome trace-event file (viewable in Perfetto).
        write_trace(&spec, path);
    }
    let out = spec.run(logic);
    println!("\n{} tuning:", out.strategy);
    println!(
        "  winner        : {}",
        out.winner.unwrap_or_else(|| "(not converged)".into())
    );
    println!(
        "  converged at  : {}",
        out.converged_at
            .map(|c| c.to_string())
            .unwrap_or_else(|| "-".into())
    );
    println!("  total         : {:>10.3} ms", out.total * 1e3);
    println!("  post-learning : {:>10.3} ms", out.post_learning * 1e3);
    let a = out.accounting;
    println!(
        "  time split    : compute {} | library {} | blocked {} (exposed {:.1}%)",
        a.compute,
        a.library,
        a.blocked,
        a.exposed_fraction() * 100.0
    );
}

/// Run one fixed-implementation pass with tracing and write the timeline.
fn write_trace(spec: &MicrobenchSpec, path: &str) {
    use adcl::microbench::MicroBenchScript;
    use adcl::runner::{Runner, Script, TuningSession};
    use adcl::tuner::TunerConfig;
    let mut world = World::new(
        spec.platform.clone(),
        spec.nprocs,
        spec.placement,
        spec.noise,
    );
    world.enable_trace();
    let mut session = TuningSession::new(spec.nprocs);
    let op = session.add_op(
        spec.op.name(),
        spec.op.fnset(spec.coll_spec()),
        TunerConfig {
            logic: SelectionLogic::Fixed(0),
            reps: 1,
            warmup: 0,
            filter: FilterKind::default(),
        },
    );
    let timer = session.add_timer(vec![op]);
    let scripts: Vec<Box<dyn Script>> =
        MicroBenchScript::per_rank(spec.bench_config(), op, timer, spec.nprocs);
    let mut runner = Runner::new(session, scripts);
    world.run(&mut runner).expect("trace run deadlocked");
    let mut f = std::fs::File::create(path).unwrap_or_else(|e| {
        eprintln!("cannot create {path}: {e}");
        exit(1)
    });
    world.write_chrome_trace(&mut f).expect("write trace");
    println!(
        "wrote {} trace segments to {path} (open in Perfetto / chrome://tracing)",
        world.trace().len()
    );
}

fn cmd_fft(flags: HashMap<String, String>) {
    let platform = platform_or_exit(get(&flags, "platform"));
    let procs: usize = get(&flags, "procs").parse().unwrap_or_else(|_| usage());
    let cfg = FftKernelConfig {
        n: flags
            .get("grid")
            .map(|s| s.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(256),
        iters: flags
            .get("iters")
            .map(|s| s.parse().unwrap_or_else(|_| usage()))
            .unwrap_or(40),
        ..FftKernelConfig::default()
    };
    let mode = match flags.get("mode").map(|s| s.as_str()).unwrap_or("adcl") {
        "adcl" => FftMode::Adcl(SelectionLogic::BruteForce),
        "adcl-ext" => FftMode::AdclExtended(SelectionLogic::BruteForce),
        "libnbc" => FftMode::LibNbc,
        "mpi" => FftMode::BlockingMpi,
        other => {
            eprintln!("unknown mode {other}");
            usage()
        }
    };
    let patterns: Vec<FftPattern> = match flags.get("pattern") {
        None => FftPattern::all(),
        Some(name) => {
            let p = FftPattern::all()
                .into_iter()
                .find(|p| p.name() == name)
                .unwrap_or_else(|| {
                    eprintln!("unknown pattern {name}");
                    usage()
                });
            vec![p]
        }
    };
    println!(
        "3-D FFT on {}: {} procs, {}^2 x {} grid, {} iterations, mode {}",
        platform.name,
        procs,
        cfg.n,
        procs * cfg.planes_per_rank,
        cfg.iters,
        mode.name()
    );
    for pattern in patterns {
        let r = run_fft_kernel(&platform, procs, &cfg, pattern, mode, NoiseConfig::none());
        println!(
            "  {:<14} total {:>9.3} ms  steady {:>9.3} ms  winner {}",
            pattern.name(),
            r.total_time * 1e3,
            r.post_learning_time * 1e3,
            r.winner.unwrap_or_else(|| "-".into())
        );
    }
}

/// Strip the global `--trace-out <path>` / `--trace-out=<path>` flag from
/// `args`, enabling span tracing and the decision audit log to `path`.
fn take_trace_out(args: &mut Vec<String>) {
    let mut i = 0;
    while i < args.len() {
        if let Some(p) = args[i].strip_prefix("--trace-out=") {
            simcore::trace::set_out_path(p);
            args.remove(i);
        } else if args[i] == "--trace-out" {
            if i + 1 >= args.len() {
                eprintln!("missing value for --trace-out");
                usage();
            }
            simcore::trace::set_out_path(&args[i + 1]);
            args.drain(i..=i + 1);
        } else {
            i += 1;
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    take_trace_out(&mut args);
    match args.first().map(|s| s.as_str()) {
        Some("platforms") => cmd_platforms(),
        Some("tune") => cmd_tune(parse_flags(&args[1..])),
        Some("fft") => cmd_fft(parse_flags(&args[1..])),
        _ => usage(),
    }
    autonbc::traceout::write_if_requested();
}
