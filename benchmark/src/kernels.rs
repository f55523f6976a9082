//! The micro-kernel panel: one unit cost per floor of the tower.
//!
//! Every kernel times public functions only, through
//! [`KernelTimer`](crate::stats::KernelTimer): iterations auto-scale until a
//! sample lasts 200 ms, and the reported value is the median over the
//! samples, with quartiles. Counts that the simulation fixes exactly
//! (`adcl.sim_events_per_decision.*`, `fft3d.sim_gain_vs_libnbc`,
//! `adcl.oracle_match_share`, `adcld.op_coverage_share`) are taken once.
//!
//! The panel is independent of workload and seed. Which end-to-end metric
//! each kernel should move is written down in `README.md`.

use crate::host::{nproc, OneCpu};
use crate::spans::Recorder;
use crate::stats::{self, KernelTimer, Summary};
use crate::workloads::decide::Key;
use crate::workloads::serve::{self, Client, ScratchDir};
use crate::workloads::{fft, sweep, Scale};
use adcld::protocol::{self, Decision};
use adcld::service::{Query, Service, ServiceConfig};
use adcld::Server;
use autonbc::adcl::history::{HistoryKey, HistoryStore};
use autonbc::adcl::simmemo;
use autonbc::driver::{CollectiveOp, MicrobenchSpec};
use autonbc::mpisim::{self, workload::run_neighbor_exchange, World};
use autonbc::nbc;
use autonbc::netmodel::network::NetworkState;
use autonbc::prelude::*;
use autonbc::simcore::json::{self, Json};
use autonbc::simcore::{par, EventQueue};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::time::Instant;

/// One per-layer value with its spread.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub value: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Metric {
    /// An exact count or a value observed once: no spread.
    pub fn exact(value: f64) -> Metric {
        Metric {
            value,
            q1: value,
            q3: value,
            n: 1,
        }
    }

    fn scaled(s: Summary, factor: f64) -> Metric {
        Metric {
            value: s.median * factor,
            q1: s.q1 * factor,
            q3: s.q3 * factor,
            n: s.n,
        }
    }

    pub fn to_json(self, unit: &str) -> Json {
        Json::obj([
            ("value", Json::num(self.value)),
            ("q1", Json::num(self.q1)),
            ("q3", Json::num(self.q3)),
            ("n", Json::num(self.n as f64)),
            ("unit", Json::str(unit)),
        ])
    }

    pub fn from_json(j: &Json) -> Option<Metric> {
        Some(Metric {
            value: j.get("value")?.as_f64()?,
            q1: j.get("q1")?.as_f64()?,
            q3: j.get("q3")?.as_f64()?,
            n: j.get("n")?.as_u64()? as usize,
        })
    }
}

pub type Table = BTreeMap<String, Metric>;

const NS: f64 = 1.0;
const US: f64 = 1e-3;
const MS: f64 = 1e-6;
const S: f64 = 1e-9;

struct Panel {
    timer: KernelTimer,
    scale: Scale,
    table: Table,
}

impl Panel {
    /// Time a kernel and record nanoseconds per unit times `factor`.
    fn time(&mut self, name: &str, factor: f64, body: impl FnMut(u64) -> u64) -> f64 {
        let m = Metric::scaled(self.timer.time(body), factor);
        self.table.insert(name.to_string(), m);
        m.value
    }

    fn exact(&mut self, name: &str, value: f64) {
        self.table.insert(name.to_string(), Metric::exact(value));
    }

    fn full(&self) -> bool {
        self.scale == Scale::Full
    }
}

/// Run the whole panel. `samples` is 9 for the full ledger and 3 inside a
/// single traced workload run.
pub fn run_panel(timer: KernelTimer, scale: Scale) -> Result<Table, String> {
    let mut p = Panel {
        timer,
        scale,
        table: Table::new(),
    };
    simcore_kernels(&mut p);
    netmodel_kernels(&mut p);
    mpisim_kernels(&mut p);
    nbc_kernels(&mut p);
    adcl_kernels(&mut p)?;
    fft_kernels(&mut p);
    adcld_kernels(&mut p)?;
    Ok(p.table)
}

fn queue_kernel(p: &mut Panel, name: &str, depth: u64) {
    // One unit = one pop and one push at a steady depth. The queue is
    // refilled per sample; that is `depth` pushes against millions of units.
    p.time(name, NS, |iters| {
        let mut q = EventQueue::with_capacity(depth as usize);
        for i in 0..depth {
            q.push(SimTime::from_nanos(i * 16), i);
        }
        let mut acc = 0u64;
        for _ in 0..iters {
            let (t, v) = q.pop().expect("queue holds `depth` events");
            // Always ahead of the pop watermark; the offset varies the
            // sift path.
            q.push(
                SimTime::from_nanos(t.as_nanos() + depth * 16 + v * 7919 % 4096),
                v,
            );
            acc = acc.wrapping_add(v);
        }
        black_box(acc);
        iters
    });
}

fn simcore_kernels(p: &mut Panel) {
    queue_kernel(p, "simcore.queue_ns_per_op.d1k", 1 << 10);
    queue_kernel(p, "simcore.queue_ns_per_op.d64k", 1 << 16);

    let line = serve::query_line(123_456, &serve::history_key(4_321));
    let line = line.trim_end();
    p.time("simcore.json_parse_ns", NS, |iters| {
        for _ in 0..iters {
            black_box(json::parse(black_box(line)).is_ok());
        }
        iters
    });
    let reply = json::parse(&sample_reply()).expect("rendered reply parses");
    p.time("simcore.json_render_ns", NS, |iters| {
        for _ in 0..iters {
            black_box(black_box(&reply).render());
        }
        iters
    });

    // A fan-out with nothing to do: what one `par_map` hand-off costs.
    let items = [0u8; 64];
    p.time("simcore.par_handoff_us", US, |iters| {
        for _ in 0..iters {
            black_box(par::par_map(nproc(), &items, |_, x| *x));
        }
        iters
    });

    // The `sweep_memo` priming pass, serial against fanned out.
    let specs = sweep::grid_specs(1, p.scale);
    let specs = &specs[..specs.len().min(20)];
    let order: Vec<usize> = (0..specs.len()).collect();
    simmemo::set_enabled(true);
    MicrobenchSpec::prewarm_sweep(nproc(), specs);
    let priming = |p: &mut Panel, jobs: usize| {
        p.timer.time(|iters| {
            let mut off = Recorder::new(false, Instant::now(), 0);
            for _ in 0..iters {
                simmemo::clear();
                sweep::pass(specs, &order, jobs, &mut off, &mut Vec::new());
            }
            iters
        })
    };
    let serial = priming(p, 1);
    let fanned = priming(p, nproc());
    p.table.insert(
        "simcore.par_speedup".to_string(),
        Metric {
            value: serial.median / fanned.median,
            // Worst against best, and the reverse: the widest the ratio of
            // the two quartile ranges can be.
            q1: serial.q1 / fanned.q3,
            q3: serial.q3 / fanned.q1,
            n: serial.n,
        },
    );
}

fn sample_reply() -> String {
    let d = Decision {
        winner: "pairwise".to_string(),
        score: 1.234_567_890_123e-3,
        margin: 0.051_234,
    };
    protocol::render_ok(&Json::num(123_456.0), &d, protocol::SOURCE_HISTORY_HIT)
}

fn netmodel_kernels(p: &mut Panel) {
    // whale has 8 cores per node: rank r and r+8 sit on different nodes
    // under block placement, r and r^1 on the same one.
    let mut net = NetworkState::new(Platform::whale(), 64, Placement::Block);
    let mut plan =
        |p: &mut Panel, name: &str, peer: fn(usize) -> usize, bytes: usize, step: u64| {
            p.time(name, NS, |iters| {
                net.reset();
                let mut now = 0u64;
                for i in 0..iters {
                    let src = (i % 64) as usize;
                    let dst = peer(src);
                    let t = SimTime::from_nanos(now);
                    // What the message layer asks per message: which protocol,
                    // when do the handshake's control messages land (rendezvous
                    // only), when does the payload drain.
                    if !net.is_eager(src, dst, bytes) {
                        black_box(net.ctrl_arrival(t, src, dst));
                        black_box(net.ctrl_arrival(t, dst, src));
                    }
                    black_box(net.plan_transfer(t, src, dst, bytes));
                    now += step;
                }
                iters
            });
        };
    plan(
        p,
        "netmodel.plan_ns.eager_inter",
        |r| (r + 8) % 64,
        1024,
        2_000,
    );
    plan(
        p,
        "netmodel.plan_ns.rdv_inter",
        |r| (r + 8) % 64,
        1 << 20,
        500_000,
    );
    plan(p, "netmodel.plan_ns.intra", |r| r ^ 1, 1024, 2_000);
    p.time("netmodel.state_build_us.p64", US, |iters| {
        for _ in 0..iters {
            black_box(NetworkState::new(Platform::whale(), 64, Placement::Block));
        }
        iters
    });
}

fn mpisim_kernels(p: &mut Panel) {
    // The message layer alone: a 256-rank ring exchange, all messages small
    // (eager) or all large (rendezvous). One unit = one simulated event.
    let ranks = if p.full() { 256 } else { 16 };
    let exchange = |p: &mut Panel, name: &str, bytes: usize| {
        let mut world = mpisim::workload::test_world(Platform::whale(), ranks);
        p.time(name, NS, |iters| {
            let mut events = 0;
            for _ in 0..iters {
                world.reset(NoiseConfig::none());
                let (out, _) = run_neighbor_exchange(&mut world, 20, bytes, bytes);
                out.expect("ring exchange completes");
                events += world.events_processed();
            }
            events
        });
    };
    exchange(p, "mpisim.ns_per_event.eager", 1024);
    exchange(p, "mpisim.ns_per_event.rdv", 256 * 1024);

    p.time("mpisim.world_build_us.p64", US, |iters| {
        for _ in 0..iters {
            black_box(World::new(
                Platform::whale(),
                64,
                Placement::Block,
                NoiseConfig::none(),
            ));
        }
        iters
    });
    let whale = Platform::whale();
    p.time("mpisim.world_reuse_us.p64", US, |iters| {
        for _ in 0..iters {
            mpisim::worldpool::with_world(&whale, 64, Placement::Block, NoiseConfig::none(), |w| {
                black_box(w.nranks());
            });
        }
        iters
    });
    // What the host charges the first time a payload slab is written: 64 MiB
    // buffers are always fresh mappings, so every sample faults them in
    // again. One unit = one MiB.
    let mib = if p.full() { 64 } else { 1 };
    p.time("mpisim.payload_first_touch_us_per_mib", US, |iters| {
        for _ in 0..iters {
            let mut buf = mpisim::PooledBuf::unpooled(mib << 20);
            buf.as_mut_slice().fill(1);
            black_box(buf.as_slice()[buf.len() / 2]);
        }
        iters * mib as u64
    });
}

fn nbc_kernels(p: &mut Panel) {
    // Uncached builders: one unit = the schedules of all 64 ranks.
    let coll = CollSpec::new(64, 1 << 20);
    p.time("nbc.build_us.bcast_p64", US, |iters| {
        for _ in 0..iters {
            for rank in 0..64 {
                black_box(nbc::bcast::build_bcast(
                    nbc::bcast::BcastAlgo::Binomial,
                    64 * 1024,
                    rank,
                    &coll,
                ));
            }
        }
        iters
    });
    let coll = CollSpec::new(64, 4096);
    p.time("nbc.build_us.alltoall_p64", US, |iters| {
        for _ in 0..iters {
            for rank in 0..64 {
                black_box(nbc::alltoall::build_alltoall(
                    nbc::alltoall::AlltoallAlgo::Pairwise,
                    rank,
                    &coll,
                ));
            }
        }
        iters
    });
    // The cache as the tuner reaches it: a default function-set's builder
    // on an interned schedule.
    let fnset = CollectiveOp::Ialltoall.fnset(coll);
    let build = &fnset.functions[1].builder;
    for rank in 0..64 {
        build(rank, &coll);
    }
    p.time("nbc.cache_hit_ns", NS, |iters| {
        for i in 0..iters {
            black_box(build((i % 64) as usize, &coll));
        }
        iters
    });
    // Executor and message layer with the tuner pinned: one unit = one
    // simulated event of a rendezvous-sized broadcast loop.
    simmemo::set_enabled(false);
    let spec = Key {
        platform: "whale",
        nprocs: if p.full() { 32 } else { 8 },
        op: CollectiveOp::Ibcast,
        msg_bytes: 1 << 20,
    }
    .spec(1);
    p.time("nbc.exec_ns_per_event.fixed", NS, |iters| {
        (0..iters)
            .map(|_| spec.run(SelectionLogic::Fixed(0)).sim_events)
            .sum()
    });
}

/// The 8-key decision panel: 2 machines x 4 collectives.
fn decision_panel(scale: Scale) -> Vec<MicrobenchSpec> {
    use CollectiveOp::*;
    let shapes: &[(&'static str, usize)] = match scale {
        Scale::Full => &[("whale", 16), ("crill", 24)],
        Scale::Tiny => &[("whale", 4), ("crill", 6)],
    };
    let mut specs = Vec::new();
    for &(platform, nprocs) in shapes {
        for (op, msg_bytes) in [
            (Ibcast, 65536),
            (Ialltoall, 4096),
            (Iallgather, 4096),
            (Iallreduce, 65536),
        ] {
            specs.push(
                Key {
                    platform,
                    nprocs,
                    op,
                    msg_bytes,
                }
                .spec(specs.len() as u64),
            );
        }
    }
    specs
}

fn adcl_kernels(p: &mut Panel) -> Result<(), String> {
    simmemo::set_enabled(false);
    let panel = decision_panel(p.scale);
    let logics = [
        ("brute", SelectionLogic::BruteForce),
        ("heuristic", SelectionLogic::AttributeHeuristic),
        ("factorial", SelectionLogic::TwoKFactorial),
        ("racing2", SelectionLogic::Racing(2)),
    ];
    for (tag, logic) in logics {
        let outs: Vec<_> = panel.iter().map(|s| s.run(logic)).collect();
        if let Some(i) = outs.iter().position(|o| o.winner.is_none()) {
            return Err(format!(
                "decision panel: {tag} found no winner for key {i} ({})",
                panel[i].memo_key(logic)
            ));
        }
        let events: u64 = outs.iter().map(|o| o.sim_events).sum();
        p.exact(
            &format!("adcl.sim_events_per_decision.{tag}"),
            events as f64 / panel.len() as f64,
        );
        p.time(&format!("adcl.wall_ms_per_decision.{tag}"), MS, |iters| {
            for _ in 0..iters {
                for s in &panel {
                    black_box(s.run(logic).total);
                }
            }
            iters * panel.len() as u64
        });
    }
    // Does brute force pick what a fully informed oracle would?
    let matches = panel
        .iter()
        .filter(|s| s.run(SelectionLogic::BruteForce).winner.as_deref() == Some(&s.oracle().0))
        .count();
    p.exact(
        "adcl.oracle_match_share",
        matches as f64 / panel.len() as f64,
    );

    let spec = &panel[0];
    p.time("autonbc.memo_key_ns", NS, |iters| {
        for _ in 0..iters {
            black_box(spec.memo_key(SelectionLogic::BruteForce));
        }
        iters
    });
    simmemo::set_enabled(true);
    let key = spec.memo_key(SelectionLogic::BruteForce);
    simmemo::get_or_run(&key, || 7u64);
    p.time("adcl.simmemo_hit_ns", NS, |iters| {
        for _ in 0..iters {
            black_box(simmemo::get_or_run(&key, || 7u64));
        }
        iters
    });

    history_kernels(p)
}

fn history_len(p: &Panel) -> usize {
    if p.full() {
        serve::HISTORY_KEYS
    } else {
        500
    }
}

fn history_kernels(p: &mut Panel) -> Result<(), String> {
    let n = history_len(p);
    let dir = ScratchDir::new("kernels-history")?;
    let path = dir.0.join("history.tsv");
    serve::seed_history(&path, n)?;
    let mut store = HistoryStore::load(&path).map_err(|e| e.to_string())?;
    let keys: Vec<HistoryKey> = (0..n).map(|i| serve::history_key(i * 7919 % n)).collect();
    p.time("adcl.history_get_ns.h20k", NS, |iters| {
        for i in 0..iters as usize {
            black_box(store.get(&keys[i % n]).is_some());
        }
        iters
    });
    p.time("adcl.history_put_ns.h20k", NS, |iters| {
        for i in 0..iters as usize {
            // Overwrites: the store stays at `n` decisions.
            let _ = store.put_decision(keys[i % n].clone(), "linear", 1e-3, 0.05);
        }
        iters
    });
    p.time("adcl.history_save_ms.h20k", MS, |iters| {
        for _ in 0..iters {
            store.save(&path).expect("history save");
        }
        iters
    });
    p.time("adcl.history_load_ms.h20k", MS, |iters| {
        for _ in 0..iters {
            black_box(HistoryStore::load(&path).expect("history load").len());
        }
        iters
    });
    Ok(())
}

fn fft_kernels(p: &mut Panel) {
    simmemo::set_enabled(false);
    let (nprocs, cfg) = fft::kernel_config(p.scale);
    let crill = Platform::crill();
    let run = |cfg: &FftKernelConfig, pattern, mode| {
        run_fft_kernel(&crill, nprocs, cfg, pattern, mode, NoiseConfig::none()).total_time
    };
    // `fft_app`'s kernel cut to 4 iterations: a fixed-algorithm run has
    // nothing to learn, and the pipelined pattern costs four times the tiled
    // one per iteration.
    let short = FftKernelConfig { iters: 4, ..cfg };
    for pattern in FftPattern::all() {
        let name = format!("fft3d.kernel_wall_s.{}", pattern.name());
        p.time(&name, S, |iters| {
            for _ in 0..iters {
                black_box(run(&short, pattern, FftMode::LibNbc));
            }
            iters
        });
    }
    // Simulated seconds, not host seconds: the fixed algorithm's total over
    // the tuned run's, learning phase included. Exact for a given simulator.
    let libnbc = run(&cfg, FftPattern::WindowTiled, FftMode::LibNbc);
    let tuned = run(
        &cfg,
        FftPattern::WindowTiled,
        FftMode::Adcl(SelectionLogic::BruteForce),
    );
    p.exact("fft3d.sim_gain_vs_libnbc", libnbc / tuned);
}

/// One reply per line, as the daemon frames them, with no daemon behind:
/// what loopback TCP and the line framing cost on their own.
fn echo_server() -> Result<(std::net::SocketAddr, std::thread::JoinHandle<()>), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let handle = std::thread::spawn(move || {
        let Ok((stream, _)) = listener.accept() else {
            return;
        };
        let _ = stream.set_nodelay(true);
        let Ok(read_half) = stream.try_clone() else {
            return;
        };
        let mut writer = std::io::BufWriter::new(stream);
        for line in BufReader::new(read_half).lines() {
            let Ok(line) = line else { break };
            if writer.write_all(line.as_bytes()).is_err()
                || writer.write_all(b"\n").is_err()
                || writer.flush().is_err()
            {
                break;
            }
        }
    });
    Ok((addr, handle))
}

/// Median round-trip of `lines` against `addr`, one summary value per
/// sample; each sample keeps asking until the floor has passed.
fn roundtrip_p50_us(
    timer: &KernelTimer,
    addr: std::net::SocketAddr,
    lines: &[String],
) -> Result<Summary, String> {
    let mut client = Client::connect(addr)?;
    let mut p50s = Vec::with_capacity(timer.samples);
    for _ in 0..timer.samples {
        let mut lat = Vec::new();
        let t0 = Instant::now();
        let mut i = 0;
        while t0.elapsed() < timer.floor() || lat.len() < 100 {
            let t = Instant::now();
            client
                .roundtrip(&lines[i % lines.len()])
                .map_err(|e| e.to_string())?;
            lat.push(t.elapsed().as_secs_f64() * 1e6);
            i += 1;
        }
        p50s.push(stats::median(&lat));
    }
    Ok(stats::summarize(&p50s))
}

fn query_of(key: HistoryKey) -> Query {
    Query {
        op: key.op,
        platform: key.platform,
        nprocs: key.nprocs,
        msg_bytes: key.msg_bytes,
    }
}

fn adcld_kernels(p: &mut Panel) -> Result<(), String> {
    simmemo::set_enabled(true);
    let n = history_len(p);
    let line = serve::query_line(123_456, &serve::history_key(4_321 % n));
    let line = line.trim_end();
    p.time("adcld.parse_ns", NS, |iters| {
        for _ in 0..iters {
            black_box(protocol::parse_request(black_box(line)).is_ok());
        }
        iters
    });
    let decision = Decision {
        winner: "pairwise".to_string(),
        score: 1.234_567_890_123e-3,
        margin: 0.051_234,
    };
    let id = Json::num(123_456.0);
    p.time("adcld.render_ns", NS, |iters| {
        for _ in 0..iters {
            black_box(protocol::render_ok(
                &id,
                black_box(&decision),
                protocol::SOURCE_HISTORY_HIT,
            ));
        }
        iters
    });

    let dir = ScratchDir::new("kernels-adcld")?;
    let path = dir.0.join("history.tsv");
    serve::seed_history(&path, n)?;
    let cfg = ServiceConfig {
        jobs: nproc(),
        history_path: Some(path.clone()),
        checkpoint_every: 0,
        ..ServiceConfig::default()
    };
    let start = |cfg: &ServiceConfig| {
        Service::start(cfg.clone()).map_err(|e| format!("service start: {e}"))
    };

    // A hit through the service alone: submit to reply, no socket.
    let queries: Vec<Query> = (0..n)
        .map(|i| query_of(serve::history_key(i * 7919 % n)))
        .collect();
    let svc = start(&cfg)?;
    let in_process_us = p.time("adcld.submit_hit_us", US, |iters| {
        for i in 0..iters as usize {
            black_box(svc.submit(&queries[i % n]).recv().is_ok());
        }
        iters
    });
    p.time("adcld.checkpoint_ms.h20k", MS, |iters| {
        for _ in 0..iters {
            black_box(svc.checkpoint());
        }
        iters
    });
    svc.shutdown(false);
    p.time("adcld.start_ms.h20k", MS, |iters| {
        for _ in 0..iters {
            Service::start(cfg.clone())
                .expect("service start")
                .shutdown(false);
        }
        iters
    });

    // The same hit over loopback TCP, and the socket's own share of it.
    // Ping-pong, so on one CPU, like `serve_warm`.
    let lines: Vec<String> = (0..n.min(4096))
        .map(|i| serve::query_line(i as u64, &serve::history_key(i * 7919 % n)))
        .collect();
    let server = Server::spawn(cfg.clone(), "127.0.0.1:0").map_err(|e| e.to_string())?;
    let one_cpu = OneCpu::pin();
    let tcp = roundtrip_p50_us(&p.timer, server.addr(), &lines)?;
    server.shutdown();
    p.exact("adcld.socket_share", 1.0 - in_process_us / tcp.median);
    let (addr, echo) = echo_server()?;
    let rtt = roundtrip_p50_us(&p.timer, addr, &lines)?;
    echo.join()
        .map_err(|_| "echo server panicked".to_string())?;
    drop(one_cpu);
    p.table.insert(
        "adcld.loopback_rtt_us".to_string(),
        Metric::scaled(rtt, 1.0),
    );

    // Cold decisions with nothing else going on: one fresh service and an
    // empty memo per sample, distinct keys, submit to reply.
    let mut p50s = Vec::new();
    for _ in 0..p.timer.samples {
        simmemo::clear();
        let svc = start(&ServiceConfig {
            jobs: nproc(),
            ..ServiceConfig::default()
        })?;
        let mut lat = Vec::new();
        let t0 = Instant::now();
        while t0.elapsed() < p.timer.floor() || lat.len() < 20 {
            let q = query_of(serve::cold_key(lat.len()));
            let t = Instant::now();
            let ok = matches!(svc.submit(&q).recv(), Ok(Ok(_)));
            lat.push(t.elapsed().as_secs_f64() * 1e3);
            if !ok {
                svc.shutdown(false);
                return Err(format!("cold decision failed for {q:?}"));
            }
        }
        svc.shutdown(false);
        p50s.push(stats::median(&lat));
    }
    p.table.insert(
        "adcld.cold_decision_ms_p50".to_string(),
        Metric::scaled(stats::summarize(&p50s), 1.0),
    );

    // One canonical query (16 ranks, 64 KiB) per operation and machine: how
    // much of its own protocol the daemon's default probe can answer.
    simmemo::clear();
    let svc = start(&ServiceConfig {
        jobs: nproc(),
        ..ServiceConfig::default()
    })?;
    let ops = [
        "ialltoall",
        "iallgather",
        "iallreduce",
        "igather",
        "iscatter",
        "ibcast",
        "ireduce",
    ];
    let platforms = Platform::preset_names();
    let mut answered = 0;
    for op in ops {
        for platform in platforms {
            let q = Query {
                op: op.to_string(),
                platform: platform.to_string(),
                nprocs: 16,
                msg_bytes: 65536,
            };
            if matches!(svc.submit(&q).recv(), Ok(Ok(_))) {
                answered += 1;
            }
        }
    }
    svc.shutdown(false);
    p.exact(
        "adcld.op_coverage_share",
        answered as f64 / (ops.len() * platforms.len()) as f64,
    );
    Ok(())
}

/// ROADMAP 2d trial, `--features worldpar-trial` only: the partitioned
/// engine against the serial one on a 1024-rank exchange.
#[cfg(feature = "worldpar-trial")]
pub fn worldpar_trial(timer: KernelTimer) -> Metric {
    use autonbc::mpisim::ParMode;
    let run = |mode: Option<ParMode>| {
        let mut world = mpisim::workload::test_world(Platform::synth_hpc(), 1024);
        world.set_par_mode(mode);
        timer.time(|iters| {
            for _ in 0..iters {
                world.reset(NoiseConfig::none());
                world.set_par_mode(mode);
                run_neighbor_exchange(&mut world, 20, 1024, 256 * 1024)
                    .0
                    .expect("ring exchange completes");
            }
            iters
        })
    };
    let serial = run(Some(ParMode::Off));
    let partitioned = run(Some(ParMode::Fixed(nproc())));
    Metric {
        value: serial.median / partitioned.median,
        q1: serial.q1 / partitioned.q3,
        q3: serial.q3 / partitioned.q1,
        n: serial.n,
    }
}
