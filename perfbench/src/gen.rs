//! Seeded workload generation. Every spec the benchmark submits is a pure
//! function of `(workload, seed, round)`; the program under test only
//! ever sees the generated [`RunSpec`]s.

use std::sync::Arc;

use dlb_apps::{MxmConfig, TrfdConfig};
use dlb_bench::{paper_group_size, persistence_for, CELL_REPLICAS};
use dlb_core::strategy::{AdaptiveConfig, Scope, Strategy, StrategyConfig};
use dlb_core::work::LoopWorkload;
use dlb_core::IndexedLoop;
use now_fault::{
    rng, CrashSpec, DelaySpec, FailurePolicy, FaultPlan, LossSpec, PartitionSpec, RecoverSpec,
    StallSpec,
};
use now_serve::{RunKind, RunSpec, WorkloadSpec};
use now_sim::{ClusterSpec, EngineMode};

use crate::stats::Tail;
use crate::trace::Tracer;

/// The benchmark's workloads, in `--help` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperGrid,
    MemoReplay,
    LargeP,
    Chaos,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperGrid,
        Workload::MemoReplay,
        Workload::LargeP,
        Workload::Chaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::MemoReplay => "memo-replay",
            Workload::LargeP => "large-p",
            Workload::Chaos => "chaos",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// The percentile `run_tail_us` reports. Fixed per workload, so a
    /// baseline and a candidate always report the same quantity: p99
    /// where a window holds thousands of requests (memo-replay, 18,000
    /// or more on a 2-vCPU Xeon), else p90 (paper-grid about 4,000;
    /// large-p 108, whose p90 is inside its slowest cell). With few
    /// samples beyond it a percentile reads the host's scheduling stalls:
    /// paper-grid's p99 and p99.9 spread 0.34 and 0.73 over ten runs.
    pub fn tail(self) -> Tail {
        match self {
            Workload::MemoReplay => ("p99", 0.99),
            _ => ("p90", 0.9),
        }
    }

    /// The workload whose round-0 specs this one submits: memo-replay
    /// replays the paper grid.
    pub fn grid(self) -> Self {
        match self {
            Workload::MemoReplay => Workload::PaperGrid,
            w => w,
        }
    }
}

/// One request and what its answer must satisfy.
pub struct Job {
    pub spec: RunSpec,
    /// Iterations of the workload: the report must account for each
    /// exactly once.
    pub iters: u64,
    /// Requests sharing a group must return byte-identical reports (the
    /// three engine modes of one chaos cell).
    pub group: Option<usize>,
    /// Index into [`Round::models`]: the client computes the model's
    /// decision for this replica when it submits this request, as the
    /// figure binaries do.
    pub decide: Option<usize>,
    /// `<kind>.p<P>`, the key of the `sim.execute_us` per-layer metric.
    pub cell: String,
}

/// The model side of one paper-grid cell.
pub struct ModelCell {
    /// Prefix-sum indexed when the loop is non-uniform, as the
    /// experiment harness probes it.
    pub workload: Arc<dyn LoopWorkload>,
    pub group_size: usize,
}

/// One seeded batch of requests.
pub struct Round {
    pub jobs: Vec<Job>,
    pub models: Vec<ModelCell>,
}

/// The cluster-load seed stream of `(seed, round)`.
fn round_seed(seed: u64, round: u64) -> u64 {
    rng::mix(seed ^ rng::mix(round.wrapping_add(0x5eed)))
}

/// Build round `round` of `workload` for `seed`. Cluster and cost-index
/// construction record spans on `tr` (a no-op when tracing is off).
pub fn round(workload: Workload, seed: u64, round: u64, tr: &mut Tracer) -> Round {
    let s = round_seed(seed, round);
    match workload.grid() {
        Workload::PaperGrid => paper_grid(s, tr),
        Workload::LargeP => large_p(s, tr),
        Workload::Chaos => chaos(s, tr),
        Workload::MemoReplay => unreachable!("memo-replay submits the paper grid"),
    }
}

fn kind_name(kind: &RunKind) -> &'static str {
    match kind {
        RunKind::NoDlb => "nodlb",
        RunKind::Dlb { cfg } | RunKind::Periodic { cfg, .. } => match cfg.strategy {
            Strategy::Gcdlb => "gc",
            Strategy::Gddlb => "gd",
            Strategy::Lcdlb => "lc",
            Strategy::Lddlb => "ld",
        },
        RunKind::TaskQueue { .. } => "taskqueue",
        RunKind::Adaptive { .. } => "adaptive",
    }
}

fn job(spec: RunSpec, iters: u64) -> Job {
    let cell = format!("{}.p{}", kind_name(&spec.kind), spec.cluster.processors());
    Job {
        spec,
        iters,
        group: None,
        decide: None,
        cell,
    }
}

fn cluster(tr: &mut Tracer, p: usize, load_seed: u64, persistence: f64) -> ClusterSpec {
    tr.span("load.cluster_build", 0, |_| {
        let c = ClusterSpec::paper_homogeneous(p, load_seed, persistence);
        // The engine's per-processor clocks are what the load layer
        // builds from the spec; time them with it.
        std::hint::black_box(c.clocks());
        c
    })
}

/// Every cell behind Figs. 5–8 and Tables 1–2: MXM (4 sizes × P∈{4,16})
/// and TRFD (N∈{30,40,50} × L1/L2 × P∈{4,16}), each as noDLB plus the
/// four strategies over [`CELL_REPLICAS`] load draws — 500 specs.
fn paper_grid(s: u64, tr: &mut Tracer) -> Round {
    let mut cells: Vec<(usize, WorkloadSpec, u64)> = Vec::new();
    for p in [4, 16] {
        for cfg in MxmConfig::paper_configs(p) {
            cells.push((p, WorkloadSpec::mxm(cfg), cfg.r ^ (cfg.c << 16)));
        }
    }
    for p in [4, 16] {
        for cfg in TrfdConfig::paper_configs() {
            cells.push((p, WorkloadSpec::TrfdL1 { n: cfg.n }, cfg.n));
            cells.push((p, WorkloadSpec::TrfdL2 { n: cfg.n }, cfg.n ^ (1 << 32)));
        }
    }
    let mut jobs = Vec::with_capacity(cells.len() * CELL_REPLICAS as usize * 5);
    let mut models = Vec::with_capacity(cells.len());
    for (p, wl, salt) in cells {
        let built: Arc<dyn LoopWorkload> = Arc::from(wl.build());
        let iters = built.iterations();
        let model_wl: Arc<dyn LoopWorkload> = if built.is_uniform() {
            built
        } else {
            tr.span("core.cost_index_build", 0, |_| {
                Arc::new(IndexedLoop::new(built)) as Arc<dyn LoopWorkload>
            })
        };
        let persistence = persistence_for(model_wl.as_ref());
        let k = paper_group_size(p);
        models.push(ModelCell {
            workload: model_wl,
            group_size: k,
        });
        for replica in 0..CELL_REPLICAS {
            let c = cluster(
                tr,
                p,
                s ^ salt ^ replica.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                persistence,
            );
            let mut no_dlb = job(RunSpec::new(wl.clone(), c.clone(), RunKind::NoDlb), iters);
            no_dlb.decide = Some(models.len() - 1);
            jobs.push(no_dlb);
            for s in Strategy::ALL {
                let kind = RunKind::Dlb {
                    cfg: StrategyConfig::paper(s, k),
                };
                jobs.push(job(RunSpec::new(wl.clone(), c.clone(), kind), iters));
            }
        }
    }
    Round { jobs, models }
}

/// MXM with R=100P, C=800 in episode mode, K=8, local strategies under
/// a depth-2 hierarchy: noDLB and the four strategies at P=1024, and all
/// but GD at P=4096 (GD there would be most of the round and hide the
/// local-strategy path).
fn large_p(s: u64, tr: &mut Tracer) -> Round {
    let mut jobs = Vec::with_capacity(9);
    for p in [1024usize, 4096] {
        let cfg = MxmConfig::new(100 * p as u64, 800, 400);
        let wl = WorkloadSpec::mxm(cfg);
        let c = cluster(tr, p, s ^ p as u64, persistence_for(&cfg.workload()));
        let mut kinds = vec![RunKind::NoDlb];
        for st in Strategy::ALL {
            if p == 4096 && st == Strategy::Gddlb {
                continue;
            }
            let mut scfg = StrategyConfig::paper(st, 8);
            if st.scope() == Scope::Local {
                scfg = scfg.with_hierarchy(2, 8);
            }
            kinds.push(RunKind::Dlb { cfg: scfg });
        }
        for kind in kinds {
            let spec = RunSpec::new(wl.clone(), c.clone(), kind).with_mode(EngineMode::Episode);
            jobs.push(job(spec, cfg.r));
        }
    }
    Round {
        jobs,
        models: Vec::new(),
    }
}

/// Fault scenarios of the chaos workload, one plan of each per P.
const FAULT_KINDS: [&str; 8] = [
    "crash",
    "crash+recover",
    "stall",
    "partition+heal",
    "loss",
    "delay",
    "composition",
    "churn",
];

/// Seeded fault plans × {4 strategies, adaptive} × the three engine
/// modes at P=4 and P=16 (240 specs). The modes of one cell form an
/// identity group.
fn chaos(s: u64, tr: &mut Tracer) -> Round {
    let modes = [
        EngineMode::PerIter,
        EngineMode::Batched,
        EngineMode::Episode,
    ];
    let mut jobs = Vec::with_capacity(2 * FAULT_KINDS.len() * 5 * modes.len());
    let mut group = 0;
    for p in [4usize, 16] {
        let cfg = MxmConfig::new(25 * p as u64, 400, 400);
        let wl = WorkloadSpec::mxm(cfg);
        let c = cluster(tr, p, s ^ p as u64, 0.5);
        // Fault times scale off the balanced makespan estimate; a fault
        // past the end of a run is simply never reached.
        let work = cfg.workload();
        let horizon = work.range_cost(0, work.iterations()) / (p as f64 * 0.408);
        let k = (p / 2).clamp(1, 8);
        let mut kinds: Vec<RunKind> = Strategy::ALL
            .into_iter()
            .map(|st| RunKind::Dlb {
                cfg: StrategyConfig::paper(st, k),
            })
            .collect();
        // A tight observation window so re-decisions, and hence
        // epoch-guarded handovers, happen inside these short runs.
        kinds.push(RunKind::Adaptive {
            cfg: AdaptiveConfig {
                window: 1,
                min_episodes_between: 2,
                ..AdaptiveConfig::paper(Strategy::Lddlb, k)
            },
        });
        for (fk, scenario) in FAULT_KINDS.iter().enumerate() {
            let plan = fault_plan(s ^ p as u64, fk, horizon, p);
            plan.validate(p)
                .unwrap_or_else(|e| panic!("generated {scenario} plan invalid: {e:?}"));
            for kind in &kinds {
                for mode in modes {
                    let spec = RunSpec::new(wl.clone(), c.clone(), kind.clone())
                        .with_faults(plan.clone(), FailurePolicy::default())
                        .with_mode(mode);
                    let mut j = job(spec, cfg.r);
                    j.group = Some(group);
                    jobs.push(j);
                }
                group += 1;
            }
        }
    }
    Round {
        jobs,
        models: Vec::new(),
    }
}

/// The plan of fault kind `fk` (index into [`FAULT_KINDS`]) on `p`
/// processors over a run of about `t` simulated seconds.
fn fault_plan(seed: u64, fk: usize, t: f64, p: usize) -> FaultPlan {
    let u = |k: u64| rng::unit(seed, (fk as u64) << 8 | k);
    let victim = |k: u64| (u(k) * p as f64) as usize % p;
    match fk {
        0 => FaultPlan {
            crashes: vec![CrashSpec {
                proc: victim(0),
                at: t * (0.05 + u(1) * 0.6),
            }],
            ..FaultPlan::default()
        },
        1 => {
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
        2 => {
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
        3 => {
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
        4 => FaultPlan {
            loss: Some(LossSpec {
                prob: 0.05 + u(0) * 0.2,
                seed: rng::mix(seed ^ 4),
            }),
            ..FaultPlan::default()
        },
        5 => {
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
        6 => {
            // Crash+recover under loss and delay.
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
                    seed: rng::mix(seed ^ 6),
                }),
                delay: Some(DelaySpec {
                    factor: 1.5 + u(5) * 2.0,
                    from,
                    until: from + t * (0.1 + u(6) * 0.3),
                }),
                ..FaultPlan::default()
            }
        }
        _ => {
            // Churn: every processor crashes and recovers twice, with
            // staggered short outages so survivors always exist.
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn rounds_are_seeded_and_keys_distinct() {
        for w in [Workload::PaperGrid, Workload::LargeP, Workload::Chaos] {
            let mut tr = Tracer::off();
            let a = round(w, 7, 0, &mut tr);
            let b = round(w, 7, 0, &mut tr);
            let c = round(w, 8, 0, &mut tr);
            let keys = |r: &Round| r.jobs.iter().map(|j| j.spec.memo_key()).collect::<Vec<_>>();
            assert_eq!(keys(&a), keys(&b), "{}: same seed, same specs", w.name());
            assert_ne!(keys(&a), keys(&c), "{}: seed changes specs", w.name());
            let unique: HashSet<_> = keys(&a).into_iter().collect();
            assert_eq!(
                unique.len(),
                a.jobs.len(),
                "{}: one simulation per request",
                w.name()
            );
        }
    }

    #[test]
    fn round_sizes() {
        let mut tr = Tracer::off();
        assert_eq!(round(Workload::PaperGrid, 1, 0, &mut tr).jobs.len(), 500);
        assert_eq!(round(Workload::LargeP, 1, 0, &mut tr).jobs.len(), 9);
        assert_eq!(round(Workload::Chaos, 1, 0, &mut tr).jobs.len(), 240);
    }
}

/// Chaos cells that fail at this commit: the engine diverges across
/// modes or stalls. Ignored until the engine is fixed; then this passes
/// and `chaos` can join the declared workloads (see the README).
#[cfg(test)]
mod known_defects {
    use super::*;

    fn chaos_cell_holds(seed: u64, round_no: u64, first_job: usize) {
        let r = round(Workload::Chaos, seed, round_no, &mut Tracer::off());
        let cell = &r.jobs[first_job..first_job + 3];
        let bytes: Vec<String> = cell
            .iter()
            .map(|j| serde_json::to_string(&j.spec.execute()).expect("serialize"))
            .collect();
        for (j, b) in cell.iter().zip(&bytes) {
            assert_eq!(
                b, &bytes[0],
                "{:?} differs from {:?}",
                j.spec.mode, cell[0].spec.mode
            );
        }
    }

    #[test]
    #[ignore = "fails at this commit: episode mode diverges after a crash"]
    fn crash_gc_p4_modes_agree() {
        // Seed 2, round 70: one crash of processor 1 at t≈1.062, P=4, GC.
        chaos_cell_holds(2, 70, 0);
    }

    #[test]
    #[ignore = "fails at this commit: protocol stalls under churn"]
    fn churn_ld_p16_completes() {
        // Seed 11, round 24: churn at P=16 under LD stalls in per-iter mode.
        chaos_cell_holds(11, 24, 234);
    }
}
