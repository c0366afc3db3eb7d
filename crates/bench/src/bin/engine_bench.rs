//! Engine self-benchmark: per-iteration reference vs batched
//! event-horizon execution vs episode fast-forward, on the paper's
//! heaviest MXM cell.
//!
//! Usage:
//!
//! ```text
//! engine_bench [--quick] [--procs P] [--repeat R] [--out PATH]
//! ```
//!
//! For noDLB plus each of the four strategies, the run is executed in
//! all three engine modes `R` times; the table reports the **median**
//! wall-clock per mode, the heap-event totals broken down by kind
//! (compute vs. protocol vs. heartbeat), the episode fast-forward
//! commit/fallback counts, and asserts that all three modes'
//! `RunReport`s serialize to exactly the same bytes (the optimized
//! engines' correctness contract — CI fails if it trips). `--quick`
//! scales the cell down for CI smoke; the default is the full Fig. 6
//! cell (MXM R=3200, P=16). Results land in `BENCH_engine.json`
//! (override with `--out`); each invocation appends its cell aggregate
//! to the file's `trajectory` array so successive optimization passes
//! accumulate a history.
//!
//! `--procs P` runs a **large-P scaling cell** instead of the paper
//! cell: the iteration count scales with P (constant work per
//! processor), the strategy set narrows to noDLB + GDDLB + LCDLB (one
//! global-distributed, one local-centralized — the two protocol
//! shapes), and LCDLB runs under a two-level group hierarchy
//! (DESIGN.md §S16) once P ≥ 64. At P ≥ 1024 the per-iteration
//! reference is skipped — its O(P) broadcast replay is exactly the
//! cost this cell demonstrates the episode engine avoids — and the
//! byte-identity assert compares batched vs episode (the reference is
//! pinned separately by the P=64 equivalence test). Trajectory points
//! carry a `procs` field and the regression gate compares like with
//! like: same mode string *and* same P (older points without the field
//! are read as quick=4 / full=16).

use dlb_apps::MxmConfig;
use dlb_bench::{format_table, paper_group_size, persistence_for, Align, Args, LOAD_SEED};
use dlb_core::strategy::{Strategy, StrategyConfig};
use now_serve::{MemoConfig, RunKind, RunServer, RunSpec, ServeConfig, Served, WorkloadSpec};
use now_sim::{ClusterSpec, EngineCounters, EngineMode};
use serde::{Serialize, Value};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Serialize)]
struct RunBench {
    name: String,
    /// Median wall-clock of the per-iteration reference, seconds.
    per_iter_s: f64,
    /// Median wall-clock of the batched engine, seconds.
    batched_s: f64,
    /// Median wall-clock of the episode fast-forward engine, seconds.
    episode_s: f64,
    /// per_iter_s / batched_s.
    speedup_batched: f64,
    /// per_iter_s / episode_s.
    speedup_episode: f64,
    /// Heap events pushed over the run, per mode.
    events_per_iter: u64,
    events_batched: u64,
    events_episode: u64,
    /// events_per_iter / events_episode.
    event_reduction: f64,
    /// Episode-mode event breakdown by kind.
    episode_compute_events: u64,
    episode_protocol_events: u64,
    episode_heartbeat_events: u64,
    /// Sync episodes fast-forwarded analytically vs. replayed
    /// per-message (fallback).
    episodes_fast_forwarded: u64,
    episodes_fallback: u64,
    /// Fallback causes: a foreign (cross-group) message arrived in the
    /// window, a fault intersected the episode, a delay régime change
    /// invalidated the cached timings, or a §S17 strategy switch forced
    /// the group's next episode onto the per-message path.
    ff_fallback_foreign: u64,
    ff_fallback_fault: u64,
    ff_fallback_delay: u64,
    ff_fallback_switch: u64,
    /// All three modes' reports serialize to exactly the same bytes.
    identical: bool,
}

/// One cell aggregate, kept across invocations in the `trajectory`
/// array so successive optimization passes can be compared.
#[derive(Debug, Serialize)]
struct TrajectoryPoint {
    mode: String,
    /// Cell size — regression comparisons never cross P values.
    procs: usize,
    total_per_iter_s: f64,
    total_batched_s: f64,
    total_episode_s: f64,
    wall_speedup_batched: f64,
    wall_speedup_episode: f64,
    total_event_reduction: f64,
    /// Raw episode-mode event count — the deterministic half of the
    /// regression gate (wall-clock is noisy; this is not).
    total_events_episode: u64,
}

#[derive(Debug, Serialize)]
struct EngineBench {
    mode: String,
    cores: usize,
    /// Repetitions per timed measurement (median reported).
    repeat: usize,
    runs: Vec<RunBench>,
    /// Cell aggregates: summed medians and summed event counts.
    total_per_iter_s: f64,
    total_batched_s: f64,
    total_episode_s: f64,
    wall_speedup_batched: f64,
    wall_speedup_episode: f64,
    total_events_per_iter: u64,
    total_events_batched: u64,
    total_events_episode: u64,
    total_event_reduction: f64,
    /// Cell aggregates of previous invocations (oldest first), with
    /// this invocation's appended last.
    trajectory: Vec<Value>,
}

/// Median of an odd-length sample (the default repeat counts are odd);
/// for an even length this is the upper median.
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Time `spec` through a memo-disabled server (every submission
/// simulates — no deduplication, no caching), returning the median
/// submit→response wall-clock, the served report bytes, and the engine
/// counters of the last run.
fn timed_runs(
    server: &RunServer,
    spec: &RunSpec,
    repeat: usize,
) -> (f64, Arc<String>, EngineCounters) {
    let mut samples = Vec::with_capacity(repeat);
    let mut last = None;
    for _ in 0..repeat {
        let mut client = server.client();
        let t0 = Instant::now();
        client.submit(spec);
        let resp = client.recv_response();
        samples.push(t0.elapsed().as_secs_f64());
        assert_eq!(
            resp.source,
            Served::Simulated,
            "memo-disabled server must simulate every request"
        );
        last = Some(resp);
    }
    let resp = last.expect("repeat >= 1");
    let counters = resp.counters.expect("simulated responses carry counters");
    (median(&mut samples), resp.bytes, counters)
}

/// Salvage the `trajectory` array from a previous `BENCH_engine.json`,
/// tolerating any older schema (missing file, missing field, wrong
/// shape all yield an empty history).
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

/// Trajectory regression gate (satellite of the rejoin PR): compare this
/// invocation's cell aggregate against the most recent *prior* trajectory
/// point recorded at the same (mode, procs) cell — scales differ across
/// both axes, so comparisons never cross them. Points written before the
/// `procs` field existed can only have come from the quick (P=4) or full
/// (P=16) paper cells, so they are read as such and stay valid history.
/// A >10% growth in the deterministic episode-mode event count, or in
/// episode wall-clock above a 50 ms noise floor, fails the run so an
/// engine perf regression cannot land silently. Setting
/// `DLB_BENCH_ALLOW_REGRESSION=1` downgrades the failure to a warning
/// (for deliberate trade-offs). Points written by older schemas (no
/// event-count field) are skipped.
fn regression_gate(trajectory: &[Value], mode: &str, procs: usize, wall_s: f64, events: u64) {
    let prior = trajectory
        .iter()
        .rev()
        .skip(1) // the point this invocation just appended
        .filter_map(Value::as_map)
        .find(|m| {
            let same_mode = matches!(
                serde::value::get_field(m, "mode"),
                Some(Value::Str(s)) if s == mode
            );
            let same_procs = match serde::value::get_field(m, "procs") {
                Some(&Value::U64(pp)) => pp as usize == procs,
                _ => procs == if mode == "quick" { 4 } else { 16 },
            };
            same_mode && same_procs
        });
    let Some(prior) = prior else {
        println!("regression gate: no prior {mode} P={procs} trajectory point, nothing to compare");
        return;
    };
    let mut regressions = Vec::new();
    match serde::value::get_field(prior, "total_events_episode") {
        Some(&Value::U64(prev)) if prev > 0 => {
            if events as f64 > prev as f64 * 1.10 {
                regressions.push(format!(
                    "episode event count regressed: {events} vs {prev} (+{:.1}%)",
                    (events as f64 / prev as f64 - 1.0) * 100.0
                ));
            }
        }
        _ => println!("regression gate: prior point predates event-count tracking, skipped"),
    }
    if let Some(&Value::F64(prev)) = serde::value::get_field(prior, "total_episode_s") {
        // Wall-clock is noisy: require the floor on both the baseline
        // and the absolute delta before calling it a regression.
        if prev >= 0.05 && wall_s > prev * 1.10 && wall_s - prev > 0.05 {
            regressions.push(format!(
                "episode wall-clock regressed: {wall_s:.3}s vs {prev:.3}s (+{:.1}%)",
                (wall_s / prev - 1.0) * 100.0
            ));
        }
    }
    if regressions.is_empty() {
        println!("regression gate: within 10% of the prior {mode} P={procs} point");
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
usage: engine_bench [--quick] [--procs P] [--repeat R] [--out PATH]

Runs noDLB and the strategies in all three engine modes, asserts their
reports are byte-identical, and appends the timings to BENCH_engine.json.

  --quick     scaled-down cell (CI smoke)
  --procs P   large-P scaling cell with P >= 2 processors
  --repeat R  runs per mode, the median is reported (default 5, 3 quick)
  --out PATH  result file (default BENCH_engine.json)
";

fn main() {
    let args = Args::from_env(USAGE, &["--quick"], &["--out", "--repeat", "--procs"]);
    let quick = args.flag("--quick");
    let out = args
        .string("--out")
        .unwrap_or("BENCH_engine.json")
        .to_string();
    let repeat: usize = args
        .number("--repeat", 1)
        .unwrap_or(if quick { 3 } else { 5 });
    let procs_override: Option<usize> = args.number("--procs", 2);

    let (p, cfg) = match procs_override {
        // Large-P scaling cell: constant work per processor, so the
        // events-vs-P curve isolates per-event protocol cost.
        Some(p) => {
            let r = (if quick { 25 } else { 100 }) * p as u64;
            (p, MxmConfig::new(r, if quick { 400 } else { 800 }, 400))
        }
        None if quick => (4, MxmConfig::new(100, 400, 400)),
        // The heaviest Fig. 6 cell: one simulated event per iteration in
        // the reference path means R = 3200 iter events per noDLB run.
        None => (16, MxmConfig::new(3200, 800, 400)),
    };
    // The O(P)-broadcast reference path is the cost the large-P cell
    // exists to show the episode engine shedding — running it at
    // P ≥ 1024 would dominate the bench for no signal (the P=64
    // equivalence test pins the reference separately).
    let run_reference = procs_override.is_none_or(|p| p < 1024);
    let wl = WorkloadSpec::mxm(cfg);
    let cluster = ClusterSpec::paper_homogeneous(p, LOAD_SEED, persistence_for(&cfg.workload()));
    // Paper cells keep the paper's K=P/2 grouping; scaling cells hold K
    // constant so the *group count* grows with P, which is the regime
    // the §S16 hierarchy exists for.
    let group = if procs_override.is_some() {
        8.min(p)
    } else {
        paper_group_size(p)
    };
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One worker, memo off: the timings measure the engine through the
    // serve path, and repeats must re-simulate rather than hit a cache.
    let server = RunServer::new(ServeConfig::new(1, MemoConfig::disabled()));

    println!(
        "engine_bench — per-iteration vs batched vs episode on MXM {} P={p}, {repeat} rep(s){}",
        cfg.label(),
        if quick { " [quick]" } else { "" }
    );
    println!("(median wall-clock per mode; reports byte-compared across all three)\n");

    let mut kinds: Vec<(String, Option<StrategyConfig>)> = vec![("noDLB".into(), None)];
    if procs_override.is_some() {
        // One global-distributed and one local-centralized strategy —
        // the two protocol shapes whose scaling differs. LCDLB gets the
        // §S16 two-level hierarchy once there are enough groups for
        // domains to mean anything.
        kinds.push((
            Strategy::Gddlb.to_string(),
            Some(StrategyConfig::paper(Strategy::Gddlb, group)),
        ));
        let mut lc = StrategyConfig::paper(Strategy::Lcdlb, group);
        if p >= 64 {
            lc = lc.with_hierarchy(2, 8);
        }
        kinds.push((Strategy::Lcdlb.to_string(), Some(lc)));
    } else {
        for s in Strategy::ALL {
            kinds.push((s.to_string(), Some(StrategyConfig::paper(s, group))));
        }
    }

    let mut rows = Vec::new();
    let mut runs = Vec::new();
    for (name, scfg) in &kinds {
        let kind = match scfg {
            None => RunKind::NoDlb,
            Some(cfg) => RunKind::Dlb { cfg: *cfg },
        };
        let spec = RunSpec::new(wl.clone(), cluster.clone(), kind);
        let (batched_s, bat_bytes, bat_counters) = timed_runs(
            &server,
            &spec.clone().with_mode(EngineMode::Batched),
            repeat,
        );
        let (episode_s, epi_bytes, epi_counters) = timed_runs(
            &server,
            &spec.clone().with_mode(EngineMode::Episode),
            repeat,
        );
        assert!(
            bat_bytes == epi_bytes,
            "{name}: episode report diverged from the batched engine"
        );
        // Reference skipped at P ≥ 1024: its columns read 0 and the
        // byte-identity contract is batched vs episode only.
        let (per_iter_s, ref_counters) = if run_reference {
            let (per_iter_s, ref_bytes, ref_counters) =
                timed_runs(&server, &spec.with_mode(EngineMode::PerIter), repeat);
            assert!(
                ref_bytes == bat_bytes,
                "{name}: batched report diverged from the per-iteration reference"
            );
            (per_iter_s, ref_counters)
        } else {
            (0.0, EngineCounters::default())
        };
        let identical = true; // asserted above
        let speedup_batched = per_iter_s / batched_s.max(1e-12);
        let speedup_episode = per_iter_s / episode_s.max(1e-12);
        let event_reduction = ref_counters.events as f64 / epi_counters.events.max(1) as f64;
        rows.push(vec![
            name.clone(),
            format!("{per_iter_s:.4}"),
            format!("{batched_s:.4}"),
            format!("{episode_s:.4}"),
            format!("{speedup_batched:.1}x"),
            format!("{speedup_episode:.1}x"),
            format!("{}", ref_counters.events),
            format!(
                "{}={}c+{}p+{}h",
                epi_counters.events,
                epi_counters.compute_events,
                epi_counters.protocol_events,
                epi_counters.heartbeat_events
            ),
            format!(
                "{}/{}",
                epi_counters.episodes_fast_forwarded,
                epi_counters.episodes_fast_forwarded + epi_counters.episodes_fallback
            ),
            format!(
                "{}f+{}F+{}d+{}s",
                epi_counters.ff_fallback_foreign,
                epi_counters.ff_fallback_fault,
                epi_counters.ff_fallback_delay,
                epi_counters.ff_fallback_switch
            ),
            "yes".to_string(),
        ]);
        runs.push(RunBench {
            name: name.clone(),
            per_iter_s,
            batched_s,
            episode_s,
            speedup_batched,
            speedup_episode,
            events_per_iter: ref_counters.events,
            events_batched: bat_counters.events,
            events_episode: epi_counters.events,
            event_reduction,
            episode_compute_events: epi_counters.compute_events,
            episode_protocol_events: epi_counters.protocol_events,
            episode_heartbeat_events: epi_counters.heartbeat_events,
            episodes_fast_forwarded: epi_counters.episodes_fast_forwarded,
            episodes_fallback: epi_counters.episodes_fallback,
            ff_fallback_foreign: epi_counters.ff_fallback_foreign,
            ff_fallback_fault: epi_counters.ff_fallback_fault,
            ff_fallback_delay: epi_counters.ff_fallback_delay,
            ff_fallback_switch: epi_counters.ff_fallback_switch,
            identical,
        });
    }

    println!(
        "{}",
        format_table(
            &[
                "run",
                "per-iter [s]",
                "batched [s]",
                "episode [s]",
                "spd bat",
                "spd epi",
                "ev ref",
                "ev epi (c/p/h)",
                "ff/eps",
                "fb why",
                "identical",
            ],
            &[
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Right,
            ],
            &rows
        )
    );

    let total_per_iter_s: f64 = runs.iter().map(|r| r.per_iter_s).sum();
    let total_batched_s: f64 = runs.iter().map(|r| r.batched_s).sum();
    let total_episode_s: f64 = runs.iter().map(|r| r.episode_s).sum();
    let total_events_per_iter: u64 = runs.iter().map(|r| r.events_per_iter).sum();
    let total_events_batched: u64 = runs.iter().map(|r| r.events_batched).sum();
    let total_events_episode: u64 = runs.iter().map(|r| r.events_episode).sum();
    let wall_speedup_batched = total_per_iter_s / total_batched_s.max(1e-12);
    let wall_speedup_episode = total_per_iter_s / total_episode_s.max(1e-12);
    let total_event_reduction = total_events_per_iter as f64 / total_events_episode.max(1) as f64;

    let mut trajectory = load_trajectory(&out);
    trajectory.push(
        serde_json::to_value(&TrajectoryPoint {
            mode: if quick { "quick" } else { "full" }.to_string(),
            procs: p,
            total_per_iter_s,
            total_batched_s,
            total_episode_s,
            wall_speedup_batched,
            wall_speedup_episode,
            total_event_reduction,
            total_events_episode,
        })
        .expect("trajectory points serialize"),
    );

    let bench = EngineBench {
        mode: if quick { "quick" } else { "full" }.to_string(),
        cores,
        repeat,
        runs,
        total_per_iter_s,
        total_batched_s,
        total_episode_s,
        wall_speedup_batched,
        wall_speedup_episode,
        total_events_per_iter,
        total_events_batched,
        total_events_episode,
        total_event_reduction,
        trajectory,
    };
    println!(
        "cell aggregate: wall {:.1}x batched, {:.1}x episode, events {:.1}x",
        bench.wall_speedup_batched, bench.wall_speedup_episode, bench.total_event_reduction
    );
    let json = serde_json::to_string_pretty(&bench).expect("serialize bench");
    std::fs::write(&out, format!("{json}\n")).expect("write bench output");
    println!("wrote {out}");
    regression_gate(
        &bench.trajectory,
        &bench.mode,
        p,
        total_episode_s,
        total_events_episode,
    );
}
