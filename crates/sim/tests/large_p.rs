//! Large-P fault-tolerance regressions (§S16).
//!
//! The P=16 wall hid two protocol staleness races that only open up when
//! an episode's broadcast tail is long enough for watchdog retransmission
//! duplicates to straddle an episode boundary:
//!
//! 1. an `Instruction` duplicate outliving its episode acted on the next
//!    episode with the *old* transfer plan (donor queues no longer cover
//!    it — the "donor cannot cover the planned transfer" panic);
//! 2. a `Profile` duplicate outliving its episode seeded the next
//!    episode's balance calculation with a stale queue snapshot, planning
//!    transfers from drained donors;
//!
//! plus a conservation leak: a `Work` shipment landing on a drained
//! non-participant (orphan reassignment after a death) parked in
//! `early_work`, which only an `act_on_outcome` ever drains.
//!
//! Both payloads now carry the episode id and are dropped on mismatch,
//! and `early_work` only stashes when an act is actually pending. These
//! tests pin the P=64 crash+recover scenario that exposed all three.
//!
//! A fourth race lived in the event heap itself: a mass resume (episode
//! act or abort) restarts many processors at one instant, and their
//! next compute boundaries collide in both `(time, tie)` components —
//! the residual `seq` tie-break is mode-local, so the processors
//! profiled in different orders and the FCFS medium diverged the runs.
//! `Ev::pkey` (processor id for compute events) closes that hole; the
//! byte-equality asserts below pin all three modes to identical
//! reports at P=64.

use dlb_core::work::UniformLoop;

use dlb_apps::MxmConfig;
use dlb_core::strategy::{Strategy, StrategyConfig};
use now_fault::{CrashSpec, FailurePolicy, FaultPlan, RecoverSpec};
use now_sim::{ClusterSpec, Engine, EngineMode};

fn crash_recover_plan(p: usize, t: f64) -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashSpec {
            proc: p - 1,
            at: t * 0.15,
        }],
        recoveries: vec![RecoverSpec {
            proc: p - 1,
            at: t * 0.3,
        }],
        ..FaultPlan::default()
    }
}

/// Probe horizon: the no-DLB runtime anchors fault times the same way
/// the chaos campaign does.
fn probe(cluster: &ClusterSpec, wl: &UniformLoop) -> f64 {
    Engine::new(cluster.clone(), wl, None)
        .with_mode(EngineMode::PerIter)
        .run()
        .total_time
}

/// The original repro: every strategy at P=64 with a crash+recover
/// mid-run. The run must terminate with every iteration executed (the
/// engine asserts conservation internally) in all three modes.
#[test]
fn p64_crash_recover_terminates_all_strategies() {
    let p = 64;
    let wl = MxmConfig::new(25 * p as u64, 400, 400).workload();
    let cluster = ClusterSpec::paper_homogeneous(p, 0x0DB1_0ADE, 0.5);
    let t = probe(&cluster, &wl);
    for s in Strategy::ALL {
        let cfg = StrategyConfig::paper(s, (p / 2).clamp(1, 8));
        let mut reference: Option<String> = None;
        for mode in [
            EngineMode::PerIter,
            EngineMode::Batched,
            EngineMode::Episode,
        ] {
            let report = Engine::new(cluster.clone(), &wl, Some(cfg))
                .with_mode(mode)
                .with_faults(crash_recover_plan(p, t), FailurePolicy::default())
                .run();
            assert!(
                report.total_time.is_finite() && report.total_time > 0.0,
                "{s:?}/{mode:?}: bad total_time"
            );
            assert_eq!(
                report.faults.as_ref().map(|f| f.detections.len()),
                Some(1),
                "{s:?}/{mode:?}: exactly one death detected"
            );
            let json = serde_json::to_string(&report).expect("serialize");
            match &reference {
                None => reference = Some(json),
                Some(r) => assert_eq!(r, &json, "{s:?}/{mode:?}: report diverged from PerIter"),
            }
        }
    }
}

/// Same scenario under a §S16 hierarchy (depth 2) for the local-scope
/// strategies: promotion and admission must route through the group
/// tree without stalling the run.
#[test]
fn p64_crash_recover_hierarchical_local() {
    let p = 64;
    let wl = MxmConfig::new(25 * p as u64, 400, 400).workload();
    let cluster = ClusterSpec::paper_homogeneous(p, 0x0DB1_0ADE, 0.5);
    let t = probe(&cluster, &wl);
    for s in [Strategy::Lcdlb, Strategy::Lddlb] {
        let cfg = StrategyConfig::paper(s, 8).with_hierarchy(2, 8);
        let mut reference: Option<String> = None;
        for mode in [
            EngineMode::PerIter,
            EngineMode::Batched,
            EngineMode::Episode,
        ] {
            let report = Engine::new(cluster.clone(), &wl, Some(cfg))
                .with_mode(mode)
                .with_faults(crash_recover_plan(p, t), FailurePolicy::default())
                .run();
            assert!(
                report.total_time.is_finite() && report.total_time > 0.0,
                "{s:?}/{mode:?}: bad total_time"
            );
            let json = serde_json::to_string(&report).expect("serialize");
            match &reference {
                None => reference = Some(json),
                Some(r) => assert_eq!(r, &json, "{s:?}/{mode:?}: report diverged from PerIter"),
            }
        }
    }
}

/// Fault-free large P, the shape of the benchmark's large-p cells (MXM
/// R=100P, K=8, local strategies under a depth-2 hierarchy): batched and
/// episode mode must produce byte-identical reports, and the episode run
/// must actually fast-forward. These sizes exercise the fast-forward's
/// transfer index, lane snapshot, profile burst and window scan with
/// hundreds of participants, where P=64 has too few to tell a per-lane
/// mistake from a coincidence.
fn assert_batched_matches_episode(p: usize, cfg: StrategyConfig) {
    let wl = MxmConfig::new(100 * p as u64, 800, 400).workload();
    let cluster = ClusterSpec::paper_homogeneous(p, 0x1A26_E000 ^ p as u64, 0.5);
    let run = |mode| {
        Engine::new(cluster.clone(), &wl, Some(cfg))
            .with_mode(mode)
            .run_counted()
    };
    let (batched, _) = run(EngineMode::Batched);
    let (episode, counters) = run(EngineMode::Episode);
    assert!(
        counters.episodes_fast_forwarded > 0,
        "{:?} P={p}: no episode fast-forwarded ({counters:?})",
        cfg.strategy
    );
    let a = serde_json::to_string(&batched).expect("serialize");
    let b = serde_json::to_string(&episode).expect("serialize");
    assert!(
        a == b,
        "{:?} P={p}: episode report diverged from batched",
        cfg.strategy
    );
}

#[test]
fn p1024_gcdlb_batched_matches_episode() {
    assert_batched_matches_episode(1024, StrategyConfig::paper(Strategy::Gcdlb, 8));
}

#[test]
fn p1024_hierarchical_local_batched_matches_episode() {
    for s in [Strategy::Lcdlb, Strategy::Lddlb] {
        assert_batched_matches_episode(1024, StrategyConfig::paper(s, 8).with_hierarchy(2, 8));
    }
}

/// GD's all-to-all is O(K²) messages per episode; P=256 keeps the
/// batched reference run short (P=1024 batched takes about 2 s).
#[test]
fn p256_gddlb_batched_matches_episode() {
    assert_batched_matches_episode(256, StrategyConfig::paper(Strategy::Gddlb, 8));
}
