//! Codec conformance on real traffic: every spec and report of a
//! paper-grid cell set, plus a spec of every other run kind and fault
//! shape, survives `from_str(to_string(x)) == x` and
//! `to_string(from_str(s)) == s`; the memo key hashes exactly the
//! canonical spec's bytes; and no proper prefix of a real report parses.

use dlb_apps::{MxmConfig, TrfdConfig};
use dlb_core::loopsched::ChunkScheme;
use dlb_core::strategy::{AdaptiveConfig, Strategy, StrategyConfig};
use now_fault::{
    CrashSpec, DelaySpec, FailurePolicy, FaultPlan, LossSpec, PartitionSpec, RecoverSpec, StallSpec,
};
use now_serve::{RunKind, RunSpec, WorkloadSpec};
use now_sim::{ClusterSpec, EngineMode, RunReport, ENGINE_VERSION};

/// The cells behind Figs. 5–8 and Tables 1–2 — MXM (4 sizes) and TRFD
/// (N ∈ {30, 40, 50}, both loops) at P ∈ {4, 16}, each as noDLB plus
/// the four strategies — on one load draw per cell.
fn paper_cells() -> Vec<RunSpec> {
    let mut specs = Vec::new();
    for p in [4usize, 16] {
        let mut workloads: Vec<WorkloadSpec> = MxmConfig::paper_configs(p)
            .into_iter()
            .map(WorkloadSpec::mxm)
            .collect();
        for cfg in TrfdConfig::paper_configs() {
            workloads.push(WorkloadSpec::TrfdL1 { n: cfg.n });
            workloads.push(WorkloadSpec::TrfdL2 { n: cfg.n });
        }
        for (i, wl) in workloads.into_iter().enumerate() {
            let cluster = ClusterSpec::paper_homogeneous(p, 11 + i as u64, 0.5);
            specs.push(RunSpec::new(wl.clone(), cluster.clone(), RunKind::NoDlb));
            for s in Strategy::ALL {
                let kind = RunKind::Dlb {
                    cfg: StrategyConfig::paper(s, p / 2),
                };
                specs.push(RunSpec::new(wl.clone(), cluster.clone(), kind));
            }
        }
    }
    specs
}

/// One fault plan using every kind of fault.
fn every_fault() -> FaultPlan {
    FaultPlan {
        crashes: vec![CrashSpec { proc: 1, at: 0.3 }],
        stalls: vec![StallSpec {
            proc: 2,
            from: 0.1,
            until: 0.4,
        }],
        loss: Some(LossSpec {
            prob: 0.05,
            seed: u64::MAX,
        }),
        delay: Some(DelaySpec {
            factor: 2.5,
            from: 0.0,
            until: 0.6,
        }),
        recoveries: vec![RecoverSpec { proc: 1, at: 0.9 }],
        partitions: vec![PartitionSpec {
            from: 3,
            to: 0,
            start: 0.2,
            heal: 0.5,
        }],
    }
}

/// A spec of every other run kind, engine mode and fault shape.
fn other_shapes() -> Vec<RunSpec> {
    let wl = WorkloadSpec::Uniform {
        iterations: 400,
        iter_cost: 0.01,
        bytes_per_iter: 800,
    };
    let cluster = ClusterSpec::paper_homogeneous(4, 5, 0.5);
    let gd = StrategyConfig::paper(Strategy::Gddlb, 2);
    let mut kinds = vec![
        RunKind::Periodic { cfg: gd, dt: 0.25 },
        RunKind::Adaptive {
            cfg: AdaptiveConfig::paper(Strategy::Lddlb, 2),
        },
    ];
    for scheme in [
        ChunkScheme::SelfScheduling,
        ChunkScheme::FixedChunk(8),
        ChunkScheme::Guided,
        ChunkScheme::Factoring,
    ] {
        kinds.push(RunKind::TaskQueue { scheme });
    }
    let mut specs: Vec<RunSpec> = kinds
        .into_iter()
        .map(|kind| RunSpec::new(wl.clone(), cluster.clone(), kind))
        .collect();
    for mode in [
        EngineMode::PerIter,
        EngineMode::Batched,
        EngineMode::Episode,
    ] {
        specs.push(
            RunSpec::new(wl.clone(), cluster.clone(), RunKind::Dlb { cfg: gd })
                .with_faults(every_fault(), FailurePolicy::default())
                .with_mode(mode),
        );
    }
    specs
}

fn round_trips<T>(x: &T) -> String
where
    T: serde::Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    let s = serde_json::to_string(x).expect("serialize");
    let back: T = serde_json::from_str(&s).expect("parse");
    assert_eq!(&back, x, "from_str(to_string(x)) != x for {s}");
    assert_eq!(serde_json::to_string(&back).expect("serialize"), s);
    s
}

#[test]
fn specs_and_reports_round_trip_byte_for_byte() {
    for spec in paper_cells().into_iter().chain(other_shapes()) {
        round_trips(&spec);
        let canonical = round_trips(&spec.canonical());
        assert_eq!(
            spec.canonical_bytes(),
            format!("{{\"engine_version\":{ENGINE_VERSION},\"spec\":{canonical}}}")
        );
        round_trips(&spec.execute());
    }
}

#[test]
fn every_proper_prefix_of_a_report_is_rejected() {
    let spec = other_shapes().pop().expect("a faulted spec");
    let s = serde_json::to_string(&spec.execute()).expect("serialize");
    for end in 0..s.len() {
        assert!(
            serde_json::from_str::<RunReport>(&s[..end]).is_err(),
            "prefix of {end} bytes parsed"
        );
    }
    assert!(serde_json::from_str::<RunReport>(&s).is_ok());
    assert!(serde_json::from_str::<RunReport>(&format!("{s}x")).is_err());
}
