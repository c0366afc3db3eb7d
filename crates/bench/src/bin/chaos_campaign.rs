//! Seeded chaos campaign: randomized fault plans, machine-checked
//! invariants (EXPERIMENTS.md §FT2).
//!
//! Usage:
//!
//! ```text
//! chaos_campaign [--quick] [--plans N] [--start I] [--seed S] [--procs P] [--out PATH]
//! ```
//!
//! Generates `N` seeded random [`FaultPlan`]s — crash+recover, stall,
//! partition+heal, message loss, delay inflation, crash-only, a
//! composition of several, a **three-way network split** (every
//! cross-segment link cut, then healed), and **churn** (every processor
//! crashes and recovers twice, staggered) — and runs each under noDLB,
//! all four static strategies, **and the §S17 adaptive switching
//! policy**, in all three engine modes. The campaign cluster's random
//! external load drifts (persistence 0.5), so the adaptive cells
//! genuinely re-decide — and sometimes switch — while the plan's
//! crashes, partitions and delays land around the handover. `--procs`
//! scales the cluster (default 4, the paper's small cell): iterations
//! grow with P, groups stay K ≤ 8 so the group count grows, and at
//! P ≥ 64 the local strategies run under the §S16 two-level hierarchy,
//! putting promotion escalation and per-domain admission under chaos.
//! Every run is checked against the fault-tolerance invariants:
//!
//! 1. **Conservation** — every iteration executes exactly once
//!    (`total_iters` matches the workload, and the per-processor counts
//!    sum to it; the engine's internal assert additionally rules out
//!    duplicate execution).
//! 2. **Bounded detection** — every recorded death detection has
//!    latency at most the heartbeat interval.
//! 3. **No spurious deaths** — detections only name processors the
//!    plan actually crashed; partition-only plans produce none at all.
//! 4. **Termination** — a liveness watchdog kills the campaign if any
//!    single run wedges instead of finishing.
//! 5. **Mode equivalence** — the three engine modes' `RunReport`s
//!    serialize to byte-identical JSON.
//! 6. **Rejoin liveness** — across the campaign, at least one recovered
//!    processor is admitted and executes work after rejoining
//!    (plan 0 is a deterministic early-crash/early-recover scenario
//!    that guarantees the opportunity).
//! 7. **Legal handover** — adaptive cells never switch strategy inside
//!    an open episode (`mid_episode_switches == 0`) and never apply an
//!    old-regime instruction that crossed the switch
//!    (`stale_applied == 0`).
//!
//! Any violation is reported and the process exits nonzero. Results
//! land in `BENCH_fault.json`; each invocation appends a point to the
//! file's `trajectory` array so robustness coverage accumulates a
//! cross-PR history like the engine bench does.
//!
//! Every cell routes through the process-wide run server: with
//! `DLB_MEMO_DIR` set, a repeated campaign (same seed and plan range)
//! replays entirely from the persistent memo — byte-identical reports,
//! no engine invocations — and the report's memo counters prove it.

use dlb_apps::MxmConfig;
use dlb_bench::Args;
use dlb_core::strategy::{AdaptiveConfig, Strategy, StrategyConfig};
use dlb_core::work::LoopWorkload;
use now_fault::{
    rng, CrashSpec, DelaySpec, FailurePolicy, FaultPlan, LossSpec, PartitionSpec, RecoverSpec,
    StallSpec,
};
use now_serve::{RunKind, RunSpec, ServeResponse, WorkloadSpec};
use now_sim::{ClusterSpec, EngineMode, RunReport};
use serde::{Serialize, Value};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Wall-clock ceiling for one (plan, strategy) cell — three engine
/// runs on a small workload finish in milliseconds; a cell that takes
/// this long has wedged.
const CELL_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug, Serialize)]
struct TrajectoryPoint {
    mode: String,
    /// Cluster size of the campaign (4 = the paper cell).
    procs: usize,
    plans: usize,
    runs: usize,
    violations: usize,
    detections: u64,
    rejoins_with_work: u64,
    wall_s: f64,
}

#[derive(Debug, Serialize)]
struct CampaignReport {
    mode: String,
    seed: u64,
    plans: usize,
    /// (plan, strategy) cells executed; each cell runs all three modes.
    runs: usize,
    scenario_counts: Vec<String>,
    violations: Vec<String>,
    detections: u64,
    recoveries: u64,
    rejoins: u64,
    /// Rejoin records whose processor executed work after admission.
    rejoins_with_work: u64,
    stale_instructions: u64,
    messages_cut: u64,
    /// §S17 strategy switches performed across the adaptive cells.
    strategy_switches: u64,
    /// Old-regime Instructions/Interrupts dropped by the epoch guards.
    stale_dropped: u64,
    /// Run-server memo counters over the whole campaign: a replay with
    /// `DLB_MEMO_DIR` set serves every cell from the memo
    /// (`simulations == 0`), a cold campaign simulates every cell.
    memo_hits: u64,
    memo_misses: u64,
    memo_coalesced: u64,
    simulations: u64,
    wall_s: f64,
    /// Campaign aggregates of previous invocations (oldest first), with
    /// this invocation's appended last.
    trajectory: Vec<Value>,
}

/// Salvage the `trajectory` array from a previous output file,
/// tolerating any older schema.
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

const KINDS: [&str; 9] = [
    "crash+recover",
    "stall",
    "partition+heal",
    "loss",
    "delay",
    "crash",
    "composition",
    "three-way-split",
    "churn",
];

/// Deterministic plan generator: scenario kinds cycle so every kind is
/// covered, parameters come from the splitmix64 stream.
fn make_plan(seed: u64, i: usize, t: f64, p: usize) -> (usize, FaultPlan) {
    let u = |k: u64| rng::unit(seed, (i as u64) << 8 | k);
    let victim = |k: u64| (u(k) * p as f64) as usize % p;
    if i == 0 {
        // The deterministic rejoin-liveness anchor: crash early, recover
        // early, leave most of the run for the rejoined processor.
        let plan = FaultPlan {
            crashes: vec![CrashSpec {
                proc: p - 1,
                at: t * 0.15,
            }],
            recoveries: vec![RecoverSpec {
                proc: p - 1,
                at: t * 0.3,
            }],
            ..FaultPlan::default()
        };
        return (0, plan);
    }
    // The three-way split needs one processor per segment.
    let kind = match i % KINDS.len() {
        7 if p < 3 => 2,
        k => k,
    };
    let plan = match kind {
        0 => {
            let at = t * (0.05 + u(0) * 0.4);
            FaultPlan {
                crashes: vec![CrashSpec {
                    proc: victim(1),
                    at,
                }],
                recoveries: vec![RecoverSpec {
                    proc: victim(1),
                    at: at + t * (0.05 + u(2) * 0.35),
                }],
                ..FaultPlan::default()
            }
        }
        1 => {
            let from = t * (0.05 + u(0) * 0.4);
            FaultPlan {
                stalls: vec![StallSpec {
                    proc: victim(1),
                    from,
                    until: from + t * (0.05 + u(2) * 0.4),
                }],
                ..FaultPlan::default()
            }
        }
        2 => {
            let a = victim(0);
            let b = (a + 1 + (u(1) * (p - 1) as f64) as usize % (p - 1)) % p;
            let start = t * (0.05 + u(2) * 0.4);
            let heal = start + t * (0.05 + u(3) * 0.45);
            FaultPlan {
                partitions: vec![
                    PartitionSpec {
                        from: a,
                        to: b,
                        start,
                        heal,
                    },
                    PartitionSpec {
                        from: b,
                        to: a,
                        start,
                        heal,
                    },
                ],
                ..FaultPlan::default()
            }
        }
        3 => FaultPlan {
            loss: Some(LossSpec {
                prob: 0.05 + u(0) * 0.2,
                seed: rng::mix(seed ^ i as u64),
            }),
            ..FaultPlan::default()
        },
        4 => {
            let from = t * (0.05 + u(0) * 0.3);
            FaultPlan {
                delay: Some(DelaySpec {
                    factor: 1.5 + u(1) * 3.0,
                    from,
                    until: from + t * (0.1 + u(2) * 0.4),
                }),
                ..FaultPlan::default()
            }
        }
        5 => FaultPlan {
            crashes: vec![CrashSpec {
                proc: victim(0),
                at: t * (0.05 + u(1) * 0.6),
            }],
            ..FaultPlan::default()
        },
        6 => {
            // Composition: crash+recover under loss and delay.
            let at = t * (0.05 + u(0) * 0.3);
            let from = t * (0.05 + u(4) * 0.3);
            FaultPlan {
                crashes: vec![CrashSpec {
                    proc: victim(1),
                    at,
                }],
                recoveries: vec![RecoverSpec {
                    proc: victim(1),
                    at: at + t * (0.05 + u(2) * 0.3),
                }],
                loss: Some(LossSpec {
                    prob: 0.03 + u(3) * 0.12,
                    seed: rng::mix(seed ^ (i as u64) << 1),
                }),
                delay: Some(DelaySpec {
                    factor: 1.5 + u(5) * 2.0,
                    from,
                    until: from + t * (0.1 + u(6) * 0.3),
                }),
                ..FaultPlan::default()
            }
        }
        7 => {
            // Three-way split: the cluster separates into three
            // contiguous segments and every cross-segment link is cut
            // in both directions, then all heal at once. Groups (and at
            // large P, §S16 domains) straddle the boundaries, so
            // episodes in flight lose arbitrary subsets of their
            // participants' links.
            let s1 = (p / 3).max(1);
            let s2 = (2 * p / 3).max(s1 + 1);
            let seg = |m: usize| usize::from(m >= s1) + usize::from(m >= s2);
            let start = t * (0.1 + u(0) * 0.3);
            let heal = start + t * (0.1 + u(1) * 0.3);
            let partitions = (0..p)
                .flat_map(|a| (0..p).map(move |b| (a, b)))
                .filter(|&(a, b)| a != b && seg(a) != seg(b))
                .map(|(a, b)| PartitionSpec {
                    from: a,
                    to: b,
                    start,
                    heal,
                })
                .collect();
            FaultPlan {
                partitions,
                ..FaultPlan::default()
            }
        }
        _ => {
            // Churn: every processor crashes and recovers twice, with
            // staggered short outages so the membership epoch, rejoin
            // admission, and (at depth) role promotion chains are
            // exercised on every processor — including every balancer
            // host — while survivors always exist to carry the work.
            let mut crashes = Vec::with_capacity(2 * p);
            let mut recoveries = Vec::with_capacity(2 * p);
            for cycle in 0..2u64 {
                for m in 0..p {
                    let at = t
                        * (0.08
                            + 0.38 * cycle as f64
                            + 0.30 * m as f64 / p as f64
                            + 0.02 * u(cycle << 1 | 1));
                    crashes.push(CrashSpec { proc: m, at });
                    recoveries.push(RecoverSpec {
                        proc: m,
                        at: at + t * (0.02 + 0.02 * u(cycle << 1)),
                    });
                }
            }
            FaultPlan {
                crashes,
                recoveries,
                ..FaultPlan::default()
            }
        }
    };
    (kind, plan)
}

/// The three per-mode specs of one (plan, run-kind) cell.
fn cell_specs(
    cluster: &ClusterSpec,
    wl: &WorkloadSpec,
    kind: &RunKind,
    plan: &FaultPlan,
    policy: FailurePolicy,
) -> Vec<(EngineMode, RunSpec)> {
    [
        EngineMode::PerIter,
        EngineMode::Batched,
        EngineMode::Episode,
    ]
    .into_iter()
    .map(|m| {
        let spec = RunSpec::new(wl.clone(), cluster.clone(), kind.clone())
            .with_faults(plan.clone(), policy)
            .with_mode(m);
        (m, spec)
    })
    .collect()
}

const USAGE: &str = "\
usage: chaos_campaign [--quick] [--plans N] [--start I] [--seed S] [--procs P] [--out PATH]

Runs seeded random fault plans under every strategy and engine mode,
checks the fault-tolerance invariants, and appends to BENCH_fault.json.

  --quick     24 plans instead of 210 (CI smoke)
  --plans N   number of plans (N >= 1)
  --start I   index of the first plan (default 0)
  --seed S    campaign seed
  --procs P   cluster size, P >= 2 (default 4)
  --out PATH  result file (default BENCH_fault.json)
";

fn main() {
    let args = Args::from_env(
        USAGE,
        &["--quick"],
        &["--out", "--procs", "--start", "--plans", "--seed"],
    );
    let quick = args.flag("--quick");
    let out = args
        .string("--out")
        .unwrap_or("BENCH_fault.json")
        .to_string();
    let plans: usize = args
        .number("--plans", 1)
        .unwrap_or(if quick { 24 } else { 210 });
    let start: usize = args.number("--start", 0).unwrap_or(0);
    let seed: u64 = args.number("--seed", 0).unwrap_or(0xC4A0_5CA1);
    let p: usize = args.number("--procs", 2).unwrap_or(4);

    // Iterations scale with P (constant work per processor); at the
    // default P=4 this is the original 100-iteration cell, so existing
    // memo entries and trajectory history stay comparable.
    let mxm = MxmConfig::new(25 * p as u64, 400, 400);
    let wl = WorkloadSpec::mxm(mxm);
    let expected = mxm.workload().iterations();
    let cluster = ClusterSpec::paper_homogeneous(p, 0x0DB1_0ADE, 0.5);
    let policy = FailurePolicy::default();
    let server = now_serve::global();
    // Probe run for the fault-free horizon; fault times scale off it.
    // Served from the memo on replay like every other cell.
    let t = server
        .call(&RunSpec::new(wl.clone(), cluster.clone(), RunKind::NoDlb))
        .total_time;

    // Groups stay K ≤ 8 so the group count grows with P; the local
    // strategies go hierarchical (§S16) once there are enough groups.
    let group = (p / 2).clamp(1, 8);
    let mut cfgs: Vec<(String, RunKind)> = vec![("noDLB".into(), RunKind::NoDlb)];
    for s in Strategy::ALL {
        let mut cfg = StrategyConfig::paper(s, group);
        if p >= 64 && s.scope() == dlb_core::Scope::Local {
            cfg = cfg.with_hierarchy(2, 8);
        }
        cfgs.push((s.to_string(), RunKind::Dlb { cfg }));
    }
    // §S17 adaptive switching under chaos: a tight observation window so
    // re-decisions (and hence epoch-guarded handovers) actually happen
    // inside these short runs, on top of whatever the plan injects.
    cfgs.push((
        "adaptive".into(),
        RunKind::Adaptive {
            cfg: AdaptiveConfig {
                window: 1,
                min_episodes_between: 2,
                ..AdaptiveConfig::paper(Strategy::Lddlb, group)
            },
        },
    ));

    println!(
        "chaos_campaign — {plans} seeded plans x {} run kinds x 3 engine modes, P={p} (seed {seed:#x}{})",
        cfgs.len(),
        if quick { ", quick" } else { "" }
    );

    let t0 = Instant::now();
    let mut violations: Vec<String> = Vec::new();
    let mut kind_counts = [0usize; KINDS.len()];
    let mut runs = 0usize;
    let mut detections = 0u64;
    let mut recoveries = 0u64;
    let mut rejoins = 0u64;
    let mut rejoins_with_work = 0u64;
    let mut stale_instructions = 0u64;
    let mut messages_cut = 0u64;
    let mut strategy_switches = 0u64;
    let mut stale_dropped = 0u64;

    for i in start..plans {
        let (kind, plan) = make_plan(seed, i, t, p);
        plan.validate(p).expect("generated plan must be valid");
        if start > 0 {
            println!(
                "plan {i}: {}",
                serde_json::to_string(&plan).expect("serialize plan")
            );
        }
        kind_counts[kind] += 1;
        let crashed: Vec<usize> = plan.crashes.iter().map(|c| c.proc).collect();
        let partition_only = !plan.partitions.is_empty() && crashed.is_empty();
        for (cname, cfg) in &cfgs {
            runs += 1;
            let tag = format!("plan {i} ({}) / {cname}", KINDS[kind]);
            // Liveness watchdog: a wedged protocol must fail the
            // campaign, not hang it. The watchdog thread owns its own
            // client on the global server.
            let specs = cell_specs(&cluster, &wl, cfg, &plan, policy);
            let (tx, rx) = mpsc::channel();
            {
                let specs = specs.clone();
                std::thread::spawn(move || {
                    let mut client = now_serve::global().client();
                    for (_, spec) in &specs {
                        client.submit(spec);
                    }
                    let r: Vec<ServeResponse> =
                        specs.iter().map(|_| client.recv_response()).collect();
                    let _ = tx.send(r);
                });
            }
            let responses = match rx.recv_timeout(CELL_TIMEOUT) {
                Ok(r) => r,
                Err(_) => {
                    eprintln!("VIOLATION: {tag}: run did not terminate within {CELL_TIMEOUT:?}");
                    std::process::exit(1);
                }
            };

            // Mode equivalence on the served bytes themselves — the
            // server's responses ARE the serialized reports.
            let reference = &responses[0].bytes;
            for ((m, _), resp) in specs.iter().zip(&responses).skip(1) {
                if resp.bytes != *reference {
                    violations.push(format!("{tag}: {m:?} report diverged from PerIter"));
                }
            }

            let rep: RunReport = responses[0].report();
            let rep = &rep;
            if rep.total_iters != expected {
                violations.push(format!(
                    "{tag}: conservation broken: {} of {expected} iterations",
                    rep.total_iters
                ));
            }
            let per_proc: u64 = rep.per_proc.iter().map(|p| p.iters_done).sum();
            if per_proc != rep.total_iters {
                violations.push(format!(
                    "{tag}: per-proc counts sum to {per_proc}, total says {}",
                    rep.total_iters
                ));
            }
            if !rep.total_time.is_finite() {
                violations.push(format!("{tag}: non-finite finish time"));
            }
            if let Some(a) = rep.adaptive.as_ref() {
                if a.mid_episode_switches != 0 {
                    violations.push(format!(
                        "{tag}: {} strategy switch(es) inside an open episode",
                        a.mid_episode_switches
                    ));
                }
                if a.stale_applied != 0 {
                    violations.push(format!(
                        "{tag}: {} old-regime instruction(s) applied across a switch",
                        a.stale_applied
                    ));
                }
                strategy_switches += a.switches.len() as u64;
                stale_dropped += a.stale_dropped;
            }
            let Some(f) = rep.faults.as_ref() else {
                continue;
            };
            for d in &f.detections {
                if !crashed.contains(&d.proc) {
                    violations.push(format!("{tag}: spurious death of processor {}", d.proc));
                }
                if d.latency() > policy.heartbeat_interval + 1e-9 {
                    violations.push(format!(
                        "{tag}: detection latency {} exceeds heartbeat interval {}",
                        d.latency(),
                        policy.heartbeat_interval
                    ));
                }
            }
            if partition_only && !f.detections.is_empty() {
                violations.push(format!(
                    "{tag}: partition-only plan declared {} death(s)",
                    f.detections.len()
                ));
            }
            if partition_only && !f.rejoins.is_empty() {
                violations.push(format!("{tag}: partition-only plan recorded a rejoin"));
            }
            detections += f.detections.len() as u64;
            recoveries += f.recoveries;
            rejoins += f.rejoins.len() as u64;
            rejoins_with_work += f
                .rejoins
                .iter()
                .filter(|r| r.iters_after_rejoin > 0)
                .count() as u64;
            stale_instructions += f.stale_instructions;
            messages_cut += f.messages_cut;
        }
        if (i + 1) % 25 == 0 || i + 1 == plans {
            println!(
                "  {}/{plans} plans, {runs} cells, {} violation(s)",
                i + 1,
                violations.len()
            );
        }
    }

    if rejoins_with_work == 0 {
        violations
            .push("campaign: no rejoined processor ever executed work after admission".to_string());
    }

    let wall_s = t0.elapsed().as_secs_f64();
    let stats = server.stats();
    let scenario_counts: Vec<String> = KINDS
        .iter()
        .zip(kind_counts)
        .map(|(k, n)| format!("{k}: {n}"))
        .collect();

    let mut trajectory = load_trajectory(&out);
    trajectory.push(
        serde_json::to_value(&TrajectoryPoint {
            mode: if quick { "quick" } else { "full" }.to_string(),
            procs: p,
            plans,
            runs,
            violations: violations.len(),
            detections,
            rejoins_with_work,
            wall_s,
        })
        .expect("trajectory points serialize"),
    );

    let report = CampaignReport {
        mode: if quick { "quick" } else { "full" }.to_string(),
        seed,
        plans,
        runs,
        scenario_counts,
        violations: violations.clone(),
        detections,
        recoveries,
        rejoins,
        rejoins_with_work,
        stale_instructions,
        messages_cut,
        strategy_switches,
        stale_dropped,
        memo_hits: stats.hits(),
        memo_misses: stats.misses,
        memo_coalesced: stats.coalesced,
        simulations: stats.simulations,
        wall_s,
        trajectory,
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize campaign");
    std::fs::write(&out, format!("{json}\n")).expect("write campaign output");

    println!(
        "campaign: {runs} cells, {detections} detections, {recoveries} recoveries, \
         {rejoins} rejoins ({rejoins_with_work} with post-admission work), \
         {stale_instructions} stale instructions, {messages_cut} cut messages, \
         {strategy_switches} strategy switch(es) ({stale_dropped} stale drop(s)), {wall_s:.1}s"
    );
    println!(
        "memo: {} hit(s), {} miss(es), {} coalesced — {} simulation(s) executed",
        stats.hits(),
        stats.misses,
        stats.coalesced,
        stats.simulations
    );
    println!("wrote {out}");
    if violations.is_empty() {
        println!("all invariants held");
    } else {
        eprintln!("{} INVARIANT VIOLATION(S):", violations.len());
        for v in &violations {
            eprintln!("  {v}");
        }
        std::process::exit(1);
    }
}
