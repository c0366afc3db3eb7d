//! Run-server self-benchmark: what the memo and the worker pool buy.
//!
//! Usage:
//!
//! ```text
//! serve_bench [--quick] [--repeat R] [--threads N] [--out PATH]
//! serve_bench --replay [--quick]
//! ```
//!
//! The default mode measures three things and records them in
//! `BENCH_serve.json` (override with `--out`):
//!
//! 1. **Memo latency** — the submit→response wall-clock of the heaviest
//!    Fig. 6 MXM cell spec, cold (first request on a fresh server, which
//!    simulates) vs warm (every later request, served from the memory
//!    tier without touching the engine). The warm hit must be at least
//!    **100× faster** than the cold miss — that factor is the whole
//!    point of content-addressing the results — and the run fails if it
//!    is not (`DLB_BENCH_ALLOW_REGRESSION=1` downgrades to a warning).
//! 2. **Concurrent throughput** — requests/second through one shared
//!    server with 1, 4 and 16 client threads submitting unique,
//!    never-memoized specs, i.e. the worker pool under real simulation
//!    load.
//! 3. **Grid determinism** — real experiment cells (the full replica ×
//!    strategy grid behind a figure) run on a 1-worker server and on an
//!    N-worker server, byte-compared and timed. Grid reassembly is
//!    positional, so the worker count must not change a single output
//!    byte; the run fails if it does. This absorbed the retired
//!    `now-sweep` executor's self-benchmark — the run server is the one
//!    parallel grid engine now. `--threads` overrides the parallel pool
//!    size (default: `DLB_SERVE_THREADS` or available parallelism).
//!
//! Each invocation appends its aggregate to the file's `trajectory`
//! array (the same pattern as `engine_bench`) so successive passes over
//! the server keep a comparable history, and a regression gate checks
//! the new point against the last one recorded in the same mode.
//!
//! `--replay` is the CI cache-replay check instead: it runs a small MXM
//! sweep twice against a fresh disk memo directory and asserts the
//! second pass is served almost entirely (≥ 90 %) from the memo with
//! byte-identical output.

use dlb_apps::{MxmConfig, TrfdConfig};
use dlb_bench::{
    format_table, mxm_experiment_with, paper_group_size, persistence_for,
    trfd_loop_experiment_with, Align, Args, TrfdLoop, LOAD_SEED,
};
use dlb_core::strategy::{Strategy, StrategyConfig};
use now_serve::{MemoConfig, RunKind, RunServer, RunSpec, ServeConfig, Served, WorkloadSpec};
use now_sim::ClusterSpec;
use serde::{Serialize, Value};
use std::time::Instant;

#[derive(Debug, Serialize)]
struct ThroughputRow {
    clients: usize,
    requests: usize,
    wall_s: f64,
    req_per_s: f64,
}

/// One experiment grid timed on a 1-worker vs an N-worker server.
#[derive(Debug, Serialize)]
struct GridCell {
    name: String,
    /// Median wall-clock of one repetition on the 1-worker server.
    serial_s: f64,
    /// Median wall-clock of one repetition on the N-worker server.
    parallel_s: f64,
    /// `null` when only one core is available — a parallel-vs-serial
    /// ratio measured on a single core is noise, not a speedup.
    speedup: Option<f64>,
    /// Parallel result serializes to exactly the same bytes as serial.
    identical: bool,
}

#[derive(Debug, Serialize)]
struct TrajectoryPoint {
    mode: String,
    cold_miss_s: f64,
    warm_hit_s: f64,
    hit_speedup: f64,
    /// Requests/second with 16 concurrent clients (the densest row).
    req_per_s_16: f64,
}

#[derive(Debug, Serialize)]
struct ServeBench {
    mode: String,
    cores: usize,
    /// Worker threads in the throughput server.
    threads: usize,
    /// Fresh-server repetitions behind the cold median.
    repeat: usize,
    /// Median submit→response wall-clock of the first (simulating)
    /// request, seconds.
    cold_miss_s: f64,
    /// Median submit→response wall-clock of a memory-tier hit, seconds.
    warm_hit_s: f64,
    /// cold_miss_s / warm_hit_s — gated at ≥ 100.
    hit_speedup: f64,
    warm_samples: usize,
    throughput: Vec<ThroughputRow>,
    grid: Vec<GridCell>,
    trajectory: Vec<Value>,
}

fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The latency spec: the heaviest Fig. 6 cell (GDDLB on MXM R=3200,
/// P=16), scaled down under `--quick` — but only so far: the cold miss
/// must still dwarf the ~µs memo-key hashing that dominates a warm hit,
/// or the 100× contract below would be unmeasurable.
fn latency_spec(quick: bool) -> RunSpec {
    let (p, cfg) = if quick {
        (4, MxmConfig::new(1600, 400, 400))
    } else {
        (16, MxmConfig::new(3200, 800, 400))
    };
    let cluster = ClusterSpec::paper_homogeneous(p, LOAD_SEED, persistence_for(&cfg.workload()));
    let scfg = StrategyConfig::paper(Strategy::Gddlb, paper_group_size(p));
    RunSpec::new(WorkloadSpec::mxm(cfg), cluster, RunKind::Dlb { cfg: scfg })
}

/// Cold vs warm latency on memory-only servers. Cold is measured on a
/// fresh server per repetition (a memo can only be cold once); warm is
/// the median over many hits on the last of them.
fn latency(quick: bool, repeat: usize) -> (f64, f64, usize) {
    let spec = latency_spec(quick);
    let warm_samples = if quick { 200 } else { 1000 };
    let mut colds = Vec::with_capacity(repeat);
    let mut warms = Vec::with_capacity(warm_samples);
    for rep in 0..repeat {
        let server = RunServer::new(ServeConfig::new(1, MemoConfig::memory_only()));
        let mut client = server.client();
        let t0 = Instant::now();
        client.submit(&spec);
        let resp = client.recv_response();
        colds.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            resp.source,
            Served::Simulated,
            "first request on a fresh server must simulate"
        );
        if rep + 1 == repeat {
            for _ in 0..warm_samples {
                let t0 = Instant::now();
                client.submit(&spec);
                let resp = client.recv_response();
                warms.push(t0.elapsed().as_secs_f64());
                assert_eq!(
                    resp.source,
                    Served::Memory,
                    "repeat request must hit the memory tier"
                );
            }
        }
    }
    (median(&mut colds), median(&mut warms), warm_samples)
}

/// `total` unique specs pushed through one shared memo-disabled server
/// by `clients` threads. Every spec differs (per-section load seed salt)
/// so nothing coalesces or caches: this measures simulation throughput
/// through the serve path.
fn throughput(server: &RunServer, clients: usize, total: usize, section: u64) -> ThroughputRow {
    let per_client = total / clients;
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for c in 0..clients {
            let mut client = server.client();
            scope.spawn(move || {
                for i in 0..per_client {
                    let seed = LOAD_SEED
                        ^ (section << 48)
                        ^ ((c as u64) << 32)
                        ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
                    let cluster = ClusterSpec::paper_homogeneous(4, seed, 2.0);
                    let wl = WorkloadSpec::Uniform {
                        iterations: 200,
                        iter_cost: 0.01,
                        bytes_per_iter: 800,
                    };
                    client.submit(&RunSpec::new(wl, cluster, RunKind::NoDlb));
                }
                for _ in 0..per_client {
                    let resp = client.recv_response();
                    assert_eq!(resp.source, Served::Simulated);
                }
            });
        }
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let requests = per_client * clients;
    ThroughputRow {
        clients,
        requests,
        wall_s,
        req_per_s: requests as f64 / wall_s.max(1e-12),
    }
}

/// One benchmarkable grid: a closure producing a serializable result on
/// a given server.
struct Grid {
    name: String,
    run: Box<dyn Fn(&RunServer) -> String>,
}

fn mxm_grid(p: usize, cfg: MxmConfig) -> Grid {
    Grid {
        name: format!("MXM {} P={p}", cfg.label()),
        run: Box::new(move |server| {
            serde_json::to_string(&mxm_experiment_with(server, p, cfg)).expect("serialize")
        }),
    }
}

fn trfd_grid(p: usize, cfg: TrfdConfig, which: TrfdLoop) -> Grid {
    Grid {
        name: format!("TRFD {} {} P={p}", cfg.label(), which.label()),
        run: Box::new(move |server| {
            serde_json::to_string(&trfd_loop_experiment_with(server, p, cfg, which))
                .expect("serialize")
        }),
    }
}

/// Serial-vs-parallel determinism + throughput on real experiment grids.
/// Both servers run memo-disabled: every repetition re-simulates every
/// grid slot, so the numbers measure execution, not caching.
fn grid_bench(quick: bool, threads: usize, repeat: usize, cores: usize) -> Vec<GridCell> {
    let serial = RunServer::new(ServeConfig::new(1, MemoConfig::disabled()));
    let parallel = RunServer::new(ServeConfig::new(threads, MemoConfig::disabled()));
    let grids: Vec<Grid> = if quick {
        vec![
            mxm_grid(4, MxmConfig::new(100, 400, 400)),
            trfd_grid(4, TrfdConfig::new(10), TrfdLoop::L2),
        ]
    } else {
        // The heaviest cells of Fig. 6 and Table 2: P = 16, largest data.
        vec![
            mxm_grid(16, MxmConfig::new(3200, 800, 400)),
            trfd_grid(16, TrfdConfig::new(50), TrfdLoop::L2),
        ]
    };

    let time_reps = |server: &RunServer, grid: &Grid| {
        let mut samples = Vec::with_capacity(repeat);
        let mut last = String::new();
        for _ in 0..repeat {
            let t0 = Instant::now();
            last = (grid.run)(server);
            samples.push(t0.elapsed().as_secs_f64());
        }
        (median(&mut samples), last)
    };

    let single_core = cores == 1;
    let mut cells = Vec::new();
    let mut table = Vec::new();
    for grid in &grids {
        let (serial_s, serial_out) = time_reps(&serial, grid);
        let (parallel_s, parallel_out) = time_reps(&parallel, grid);
        let identical = serial_out == parallel_out;
        assert!(
            identical,
            "{}: parallel grid diverged from serial — determinism bug",
            grid.name
        );
        let speedup = (!single_core).then(|| serial_s / parallel_s.max(1e-12));
        table.push(vec![
            grid.name.clone(),
            format!("{serial_s:.3}"),
            format!("{parallel_s:.3}"),
            speedup.map_or("n/a".to_string(), |s| format!("{s:.2}x")),
            "yes".to_string(),
        ]);
        cells.push(GridCell {
            name: grid.name.clone(),
            serial_s,
            parallel_s,
            speedup,
            identical,
        });
    }
    println!(
        "grid determinism (1 vs {} worker(s), {repeat} rep(s), memo off, byte-compared):",
        parallel.threads()
    );
    println!(
        "{}",
        format_table(
            &["grid", "serial [s]", "parallel [s]", "speedup", "identical"],
            &[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right
            ],
            &table
        )
    );
    if single_core {
        println!("note: single core — parallel-vs-serial speedup is not meaningful");
    }
    println!();
    cells
}

/// CI cache-replay check: the same small sweep twice against one fresh
/// disk memo directory, second process-generation served from disk.
fn replay(quick: bool) -> ! {
    let dir = std::env::temp_dir().join(format!("dlb-serve-replay-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let p = 4;
    let cfg = if quick {
        MxmConfig::new(100, 400, 400)
    } else {
        MxmConfig::new(400, 400, 400)
    };

    // First pass: everything misses and is persisted.
    let first = {
        let server = RunServer::new(ServeConfig::new(1, MemoConfig::disk(&dir)));
        let result = mxm_experiment_with(&server, p, cfg);
        let stats = server.stats();
        println!(
            "pass 1: {} request(s), {} simulation(s), {} hit(s)",
            stats.requests(),
            stats.simulations,
            stats.hits()
        );
        assert_eq!(stats.hits(), 0, "fresh memo dir must not hit");
        serde_json::to_string(&result).expect("serialize")
    };

    // Second pass: a fresh server (cold memory) replays from disk.
    let server = RunServer::new(ServeConfig::new(1, MemoConfig::disk(&dir)));
    let result = mxm_experiment_with(&server, p, cfg);
    let second = serde_json::to_string(&result).expect("serialize");
    let stats = server.stats();
    println!(
        "pass 2: {} request(s), {} simulation(s), {} disk hit(s), {} memory hit(s)",
        stats.requests(),
        stats.simulations,
        stats.disk_hits,
        stats.hits() - stats.disk_hits
    );
    let _ = std::fs::remove_dir_all(&dir);

    assert_eq!(first, second, "replayed sweep diverged from the original");
    let hit_rate = stats.hits() as f64 / stats.requests().max(1) as f64;
    println!("replay hit rate: {:.1}%", hit_rate * 100.0);
    assert!(
        hit_rate >= 0.90,
        "replay must serve >= 90% from the memo, got {:.1}%",
        hit_rate * 100.0
    );
    println!(
        "cache replay OK: byte-identical, {:.1}% memoized",
        hit_rate * 100.0
    );
    std::process::exit(0);
}

/// Salvage the `trajectory` array from a previous `BENCH_serve.json`.
fn load_trajectory(path: &str) -> Vec<Value> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(value) = serde_json::parse_value_complete(&text) else {
        return Vec::new();
    };
    value
        .as_map()
        .and_then(|m| serde::value::get_field(m, "trajectory"))
        .and_then(Value::as_seq)
        .map(<[Value]>::to_vec)
        .unwrap_or_default()
}

/// Gate: the warm hit must be ≥ 100× faster than the cold miss
/// (absolute, every invocation), and the speedup must not collapse
/// below half of the last same-mode trajectory point (relative).
/// `DLB_BENCH_ALLOW_REGRESSION=1` records the point anyway.
fn regression_gate(trajectory: &[Value], mode: &str, hit_speedup: f64) {
    let mut regressions = Vec::new();
    if hit_speedup < 100.0 {
        regressions.push(format!(
            "memo hit speedup {hit_speedup:.1}x is below the 100x contract"
        ));
    }
    let prior = trajectory
        .iter()
        .rev()
        .skip(1) // the point this invocation just appended
        .filter_map(Value::as_map)
        .find(|m| {
            matches!(
                serde::value::get_field(m, "mode"),
                Some(Value::Str(s)) if s == mode
            )
        });
    match prior {
        None => println!("regression gate: no prior {mode} trajectory point, nothing to compare"),
        Some(prior) => {
            if let Some(&Value::F64(prev)) = serde::value::get_field(prior, "hit_speedup") {
                if prev >= 100.0 && hit_speedup < prev * 0.5 {
                    regressions.push(format!(
                        "hit speedup collapsed: {hit_speedup:.1}x vs prior {prev:.1}x"
                    ));
                }
            }
        }
    }
    if regressions.is_empty() {
        println!("regression gate: memo speedup within contract");
        return;
    }
    for r in &regressions {
        eprintln!("REGRESSION: {r}");
    }
    if std::env::var("DLB_BENCH_ALLOW_REGRESSION").as_deref() == Ok("1") {
        eprintln!("DLB_BENCH_ALLOW_REGRESSION=1 set — recording the point and continuing");
    } else {
        eprintln!("set DLB_BENCH_ALLOW_REGRESSION=1 to accept a deliberate trade-off");
        std::process::exit(1);
    }
}

const USAGE: &str = "\
usage: serve_bench [--quick] [--repeat R] [--threads N] [--out PATH]
       serve_bench --replay [--quick]

Measures the run server's memo latency and throughput and appends them
to BENCH_serve.json; --replay runs the cache-replay check instead.

  --quick      scaled-down runs (CI smoke)
  --repeat R   fresh servers for the latency probe (default 3)
  --threads N  parallel pool size (default: available cores)
  --out PATH   result file (default BENCH_serve.json)
  --replay     run the same sweep twice and check the memo hits
";

fn main() {
    let args = Args::from_env(
        USAGE,
        &["--quick", "--replay"],
        &["--out", "--repeat", "--threads"],
    );
    let quick = args.flag("--quick");
    if args.flag("--replay") {
        replay(quick);
    }
    let out = args
        .string("--out")
        .unwrap_or("BENCH_serve.json")
        .to_string();
    let repeat: usize = args.number("--repeat", 1).unwrap_or(3);
    let threads: Option<usize> = args.number("--threads", 1);

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "serve_bench — memo latency + concurrent throughput{}\n",
        if quick { " [quick]" } else { "" }
    );

    let (cold_miss_s, warm_hit_s, warm_samples) = latency(quick, repeat);
    let hit_speedup = cold_miss_s / warm_hit_s.max(1e-12);
    println!("memo latency (heaviest cell, {repeat} fresh server(s), {warm_samples} warm hits):");
    println!("  cold miss  {cold_miss_s:.6} s  (simulates)");
    println!("  warm hit   {warm_hit_s:.9} s  (memory tier)");
    println!("  speedup    {hit_speedup:.0}x\n");

    // One shared server for all throughput rows; specs are unique per
    // row so earlier rows never warm later ones.
    let tserver = RunServer::new(ServeConfig::new(
        ServeConfig::from_env().threads,
        MemoConfig::disabled(),
    ));
    let total = if quick { 48 } else { 96 };
    let mut rows = Vec::new();
    let mut table = Vec::new();
    for (section, clients) in [1usize, 4, 16].into_iter().enumerate() {
        let row = throughput(&tserver, clients, total, section as u64);
        table.push(vec![
            format!("{}", row.clients),
            format!("{}", row.requests),
            format!("{:.3}", row.wall_s),
            format!("{:.1}", row.req_per_s),
        ]);
        rows.push(row);
    }
    println!(
        "throughput ({} worker thread(s), unique specs, memo off):",
        tserver.threads()
    );
    println!(
        "{}",
        format_table(
            &["clients", "requests", "wall [s]", "req/s"],
            &[Align::Right, Align::Right, Align::Right, Align::Right],
            &table
        )
    );

    let grid = grid_bench(
        quick,
        threads.unwrap_or_else(|| ServeConfig::from_env().threads),
        if quick { 1 } else { repeat },
        cores,
    );

    let req_per_s_16 = rows.last().map_or(0.0, |r| r.req_per_s);
    let mode = if quick { "quick" } else { "full" }.to_string();
    let mut trajectory = load_trajectory(&out);
    trajectory.push(
        serde_json::to_value(&TrajectoryPoint {
            mode: mode.clone(),
            cold_miss_s,
            warm_hit_s,
            hit_speedup,
            req_per_s_16,
        })
        .expect("trajectory points serialize"),
    );

    let bench = ServeBench {
        mode: mode.clone(),
        cores,
        threads: tserver.threads(),
        repeat,
        cold_miss_s,
        warm_hit_s,
        hit_speedup,
        warm_samples,
        throughput: rows,
        grid,
        trajectory,
    };
    let json = serde_json::to_string_pretty(&bench).expect("serialize bench");
    std::fs::write(&out, format!("{json}\n")).expect("write bench output");
    println!("wrote {out}");
    regression_gate(&bench.trajectory, &mode, hit_speedup);
}
