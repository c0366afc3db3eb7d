//! Output checks. Every answered request is checked; a request that fails
//! any check counts as failed.

use std::collections::HashMap;
use std::sync::Arc;

use dlb_model::{choose_strategy, SystemModel};
use now_serve::{fnv1a64, Served};
use now_sim::{EngineCounters, RunReport};

use crate::gen::{Job, ModelCell};

/// 32-bit digest of one report's bytes, as the golden files store it.
pub fn digest(bytes: &str) -> u32 {
    let h = fnv1a64(bytes.as_bytes());
    (h ^ (h >> 32)) as u32
}

/// Parse served bytes the way consumers do.
pub fn parse(bytes: &str) -> Result<RunReport, String> {
    serde_json::from_str(bytes).map_err(|e| format!("report does not parse: {e:?}"))
}

/// What a replayed answer must be (memo-replay).
#[derive(Clone)]
pub struct Replay {
    pub bytes: Arc<String>,
    pub source: Served,
}

/// Per-pass check state: identity-group references and the golden
/// digests of the round being served.
#[derive(Default)]
pub struct Checker {
    groups: HashMap<usize, Arc<String>>,
    golden: Option<Vec<u32>>,
}

impl Checker {
    pub fn new(golden: Option<Vec<u32>>) -> Self {
        Self {
            groups: HashMap::new(),
            golden,
        }
    }

    /// Check the answer to request `index` of the round: its bytes and
    /// the report parsed from them.
    pub fn check(
        &mut self,
        index: usize,
        job: &Job,
        bytes: &Arc<String>,
        report: &RunReport,
        source: Served,
        replay: Option<&Replay>,
    ) -> Result<(), String> {
        check_report(job, report)?;
        if let Some(want) = self.golden.as_ref().and_then(|g| g.get(index)) {
            let got = digest(bytes);
            if got != *want {
                return Err(format!("digest {got:08x} differs from golden {want:08x}"));
            }
        }
        if let Some(g) = job.group {
            let reference = self.groups.entry(g).or_insert_with(|| Arc::clone(bytes));
            if reference != bytes {
                return Err(format!(
                    "{:?} report differs from the first mode of its cell",
                    job.spec.mode
                ));
            }
        }
        if let Some(r) = replay {
            if source != r.source {
                return Err(format!("served from {source:?}, expected {:?}", r.source));
            }
            if **bytes != *r.bytes {
                return Err("replayed bytes differ from the bytes written in setup".into());
            }
        }
        Ok(())
    }
}

/// Invariants any report of `job` must satisfy, whatever the seed.
pub fn check_report(job: &Job, r: &RunReport) -> Result<(), String> {
    if r.total_iters != job.iters {
        return Err(format!(
            "work not conserved: {} of {} iterations",
            r.total_iters, job.iters
        ));
    }
    let per_proc: u64 = r.per_proc.iter().map(|p| p.iters_done).sum();
    if per_proc != r.total_iters {
        return Err(format!(
            "per-processor iterations sum to {per_proc}, total says {}",
            r.total_iters
        ));
    }
    if !(r.total_time.is_finite() && r.total_time > 0.0) {
        return Err(format!("bad makespan {}", r.total_time));
    }
    if let Some(a) = &r.adaptive {
        if a.mid_episode_switches != 0 || a.stale_applied != 0 {
            return Err(format!(
                "illegal handover: {} mid-episode switch(es), {} stale instruction(s) applied",
                a.mid_episode_switches, a.stale_applied
            ));
        }
    }
    let plan = &job.spec.plan;
    if let Some(f) = &r.faults {
        let heartbeat = job.spec.policy.heartbeat_interval;
        for d in &f.detections {
            if !plan.crashes.iter().any(|c| c.proc == d.proc) {
                return Err(format!("spurious death of processor {}", d.proc));
            }
            if d.latency() > heartbeat + 1e-9 {
                return Err(format!(
                    "detection latency {} exceeds the heartbeat interval {heartbeat}",
                    d.latency()
                ));
            }
        }
        if plan.crashes.is_empty() && !(f.detections.is_empty() && f.rejoins.is_empty()) {
            return Err("a plan without crashes declared a death or a rejoin".into());
        }
    } else if !plan.is_empty() {
        return Err("faulted run has no fault report".into());
    }
    Ok(())
}

/// The model's decision for one replica, checked for sanity.
pub fn decide(model: &ModelCell, job: &Job) -> Result<(), String> {
    let c = &job.spec.cluster;
    let system = SystemModel::from_specs(c.speeds.clone(), &c.loads, c.net);
    let d = choose_strategy(&system, model.workload.as_ref(), model.group_size);
    let finite = d
        .predictions
        .iter()
        .all(|p| p.total_time.is_finite() && p.total_time > 0.0);
    if d.predictions.len() != 4 || d.order.len() != 4 || !finite || d.no_dlb_time <= 0.0 {
        return Err(format!("malformed model decision {d:?}"));
    }
    Ok(())
}

/// Exact work counts of a set of runs: engine events, protocol and
/// fault accounting. A speed-only change leaves them unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub runs: u64,
    pub events: u64,
    pub compute_events: u64,
    pub protocol_events: u64,
    pub heartbeat_events: u64,
    pub ff_hits: u64,
    pub ff_fallbacks: u64,
    pub fb_foreign: u64,
    pub fb_fault: u64,
    pub fb_delay: u64,
    pub fb_switch: u64,
    pub adaptive_decisions: u64,
    pub adaptive_switches: u64,
    pub syncs: u64,
    pub redistributions: u64,
    pub unprofitable: u64,
    pub below_threshold: u64,
    pub control_messages: u64,
    pub transfer_messages: u64,
    pub bytes_moved: u64,
    pub retries: u64,
    pub detections: u64,
    pub heartbeat_sweeps: u64,
    pub rejoins: u64,
    pub stale_dropped: u64,
}

impl Counts {
    pub fn add(&mut self, r: &RunReport, c: &EngineCounters) {
        self.runs += 1;
        self.events += c.events;
        self.compute_events += c.compute_events;
        self.protocol_events += c.protocol_events;
        self.heartbeat_events += c.heartbeat_events;
        self.ff_hits += c.episodes_fast_forwarded;
        self.ff_fallbacks += c.episodes_fallback;
        self.fb_foreign += c.ff_fallback_foreign;
        self.fb_fault += c.ff_fallback_fault;
        self.fb_delay += c.ff_fallback_delay;
        self.fb_switch += c.ff_fallback_switch;
        let s = &r.stats;
        self.syncs += s.syncs;
        self.redistributions += s.redistributions;
        self.unprofitable += s.unprofitable;
        self.below_threshold += s.below_threshold;
        self.control_messages += s.control_messages;
        self.transfer_messages += s.transfer_messages;
        self.bytes_moved += s.bytes_moved;
        if let Some(a) = &r.adaptive {
            self.adaptive_decisions += a.decisions;
            self.adaptive_switches += a.switches.len() as u64;
            self.stale_dropped += a.stale_dropped;
        }
        if let Some(f) = &r.faults {
            self.retries += f.retries;
            self.detections += f.detections.len() as u64;
            self.heartbeat_sweeps += f.heartbeat_sweeps;
            self.rejoins += f.rejoins.len() as u64;
            self.stale_dropped += f.stale_instructions;
        }
    }

    /// `(metric name, value)` pairs, the names `BENCHMARK.json` declares.
    pub fn metrics(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("sim.events", self.events),
            ("sim.events.compute", self.compute_events),
            ("sim.events.protocol", self.protocol_events),
            ("sim.events.heartbeat", self.heartbeat_events),
            ("sim.ff.attempts", self.ff_hits + self.ff_fallbacks),
            ("sim.ff.fallback.foreign", self.fb_foreign),
            ("sim.ff.fallback.fault", self.fb_fault),
            ("sim.ff.fallback.delay", self.fb_delay),
            ("sim.ff.fallback.switch", self.fb_switch),
            ("sim.adaptive.decisions", self.adaptive_decisions),
            ("sim.adaptive.switches", self.adaptive_switches),
            ("core.syncs", self.syncs),
            ("core.redistributions", self.redistributions),
            ("core.unprofitable", self.unprofitable),
            ("core.below_threshold", self.below_threshold),
            ("net.control_messages", self.control_messages),
            ("net.transfer_messages", self.transfer_messages),
            ("net.bytes_moved", self.bytes_moved),
            ("fault.retries", self.retries),
            ("fault.detections", self.detections),
            ("fault.heartbeat_sweeps", self.heartbeat_sweeps),
            ("fault.rejoins", self.rejoins),
            ("fault.stale_dropped", self.stale_dropped),
        ]
    }

    /// One line that two runs can compare for exact equality.
    pub fn line(&self) -> String {
        let mut line = format!("sim.runs={}", self.runs);
        for (k, v) in self.metrics() {
            line.push_str(&format!(" {k}={v}"));
        }
        line
    }
}
