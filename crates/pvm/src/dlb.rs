//! The DLB library over the threaded runtime: real computation, real data
//! movement.
//!
//! This is the executable counterpart of the paper's generated code
//! (Fig. 3): each task runs the transformed SPMD loop — compute one
//! iteration, check for interrupts (`DLB_slave_sync`), join the
//! synchronization protocol when interrupted or out of work
//! (`DLB_send_interrupt` / `DLB_profile_send_move_work`). Iteration
//! *payloads* (array rows/columns) are packed and shipped with the moved
//! iterations, so the final result provably does not depend on who
//! computed what.
//!
//! Protocol notes (mirroring `now-sim`'s engine, see its module docs):
//! episodes are sequenced by a per-group *epoch*; duplicate interrupts
//! from concurrent initiators of the same epoch deduplicate; a processor
//! whose queue is empty after an episode stays as a *responder* (profiles
//! `remaining = 0`, flagged inactive so the balancer assigns it nothing —
//! the paper's `dlb.more_work = false` utilization loss) until its group's
//! work is exhausted; the centralized master additionally services other
//! groups' profiles at its own iteration boundaries (the LCDLB context
//! switching and delay factor).

use crate::buf::PackBuf;
use crate::ctx::{Ctx, Message, TaskId};
use crate::load::LoadInjector;
use dlb_core::balance::{balance_group, BalanceOutcome, BalanceVerdict, IndexedOutcome};
use dlb_core::profile::PerfProfile;
use dlb_core::strategy::{Control, StrategyConfig};
use dlb_core::workqueue::{ranges_len, WorkQueue};
use now_load::LoadSpec;
use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

const TAG_INTERRUPT: u32 = 10;
const TAG_PROFILE: u32 = 11;
const TAG_OUTCOME: u32 = 12;
const TAG_WORK: u32 = 13;

/// A parallel loop whose iterations carry a payload vector (an array row
/// or column) and produce a checksum contribution.
pub trait RowKernel: Send + Sync {
    /// Total loop iterations.
    fn iterations(&self) -> u64;
    /// The initial payload of iteration `iter` (materialized by its first
    /// owner at scatter time).
    fn initial_item(&self, iter: u64) -> Vec<f64>;
    /// Execute iteration `iter` on its payload; returns the iteration's
    /// checksum contribution. This is real work — the load balancer's
    /// measurements come from its actual duration.
    fn execute(&self, iter: u64, item: &[f64]) -> f64;
}

/// Result of a threaded DLB run.
#[derive(Debug, Clone, PartialEq)]
pub struct ThreadRunReport {
    /// Order-independent checksum over all iterations; must equal the
    /// sequential kernel's.
    pub checksum: f64,
    /// Iterations executed per task.
    pub per_proc_iters: Vec<u64>,
    /// Iterations that moved between tasks.
    pub iters_moved: u64,
    /// Synchronization episodes completed (summed over groups).
    pub syncs: u64,
    /// Wall-clock duration of the parallel section.
    pub elapsed: std::time::Duration,
}

/// Execute `kernel` on `p` tasks under `cfg`, with per-task external load
/// `loads` (injected in-program as in the paper) speeded up by
/// `time_scale`.
///
/// # Panics
/// Panics on inconsistent parameters or if the protocol loses work
/// (internal assertion).
pub fn run_loop(
    kernel: Arc<dyn RowKernel>,
    cfg: StrategyConfig,
    p: usize,
    loads: Vec<LoadSpec>,
    time_scale: f64,
) -> ThreadRunReport {
    assert_eq!(loads.len(), p, "one load function per task");
    cfg.validate();
    let start = Instant::now();
    let outcomes = crate::ctx::Pvm::run(p, move |ctx| {
        let tid = ctx.mytid();
        let injector = LoadInjector::with_time_scale(loads[tid].build(), time_scale);
        Worker::new(ctx, Arc::clone(&kernel), cfg, injector).run()
    });
    let elapsed = start.elapsed();
    let checksum = outcomes.iter().map(|o| o.checksum).sum();
    let per_proc_iters: Vec<u64> = outcomes.iter().map(|o| o.iters).collect();
    let iters_moved = outcomes.iter().map(|o| o.received).sum();
    // Each group's episode count is the epoch its members agreed on.
    let mut group_epochs: BTreeMap<usize, u64> = BTreeMap::new();
    for o in &outcomes {
        let e = group_epochs.entry(o.group).or_insert(o.epoch);
        *e = (*e).max(o.epoch);
    }
    ThreadRunReport {
        checksum,
        per_proc_iters,
        iters_moved,
        syncs: group_epochs.values().sum(),
        elapsed,
    }
}

/// Per-task outcome returned from the worker closure.
struct WorkerOutcome {
    checksum: f64,
    iters: u64,
    received: u64,
    epoch: u64,
    group: usize,
}

struct Worker {
    ctx: Ctx,
    kernel: Arc<dyn RowKernel>,
    cfg: StrategyConfig,
    injector: LoadInjector,
    tid: TaskId,
    group: usize,
    members: Vec<TaskId>,
    master: TaskId,
    // loop state
    queue: WorkQueue,
    items: HashMap<u64, Vec<f64>>,
    checksum: f64,
    iters: u64,
    received: u64,
    epoch: u64,
    window_start: Instant,
    window_iters: u64,
    profiled_epoch: Option<u64>,
    // master-only: profile sets per (group, epoch)
    pending: BTreeMap<(usize, u64), BTreeMap<TaskId, PerfProfile>>,
    groups: Vec<Vec<TaskId>>,
    groups_done: usize,
}

impl Worker {
    fn new(
        ctx: Ctx,
        kernel: Arc<dyn RowKernel>,
        cfg: StrategyConfig,
        injector: LoadInjector,
    ) -> Self {
        let p = ctx.ntasks();
        let tid = ctx.mytid();
        let groups = cfg.groups(p);
        let group = groups
            .iter()
            .position(|g| g.contains(&tid))
            .expect("task in a group");
        let members = groups[group].clone();
        // The compiler's initial equal-block distribution + local scatter.
        let initial = dlb_core::Distribution::equal_block(kernel.iterations(), p);
        let mut start = 0u64;
        for i in 0..tid {
            start += initial.count(i);
        }
        let my_range = start..start + initial.count(tid);
        let items: HashMap<u64, Vec<f64>> = my_range
            .clone()
            .map(|i| (i, kernel.initial_item(i)))
            .collect();
        Self {
            kernel,
            cfg,
            injector,
            tid,
            group,
            members,
            master: 0,
            queue: WorkQueue::from_range(my_range),
            items,
            checksum: 0.0,
            iters: 0,
            received: 0,
            epoch: 0,
            window_start: Instant::now(),
            window_iters: 0,
            profiled_epoch: None,
            pending: BTreeMap::new(),
            groups,
            groups_done: 0,
            ctx,
        }
    }

    fn is_master(&self) -> bool {
        self.cfg.strategy.control() == Control::Centralized && self.tid == self.master
    }

    fn run(mut self) -> WorkerOutcome {
        loop {
            if let Some(iter) = self.queue.pop_front_iter() {
                self.execute_iteration(iter);
                // DLB_slave_sync: poll for an interrupt at the iteration
                // boundary; the master also services other groups.
                if self.is_master() {
                    self.master_service();
                }
                if let Some(m) = self.ctx.try_recv(None, Some(TAG_INTERRUPT)) {
                    if self.interrupt_is_current(&m) && self.sync_episode(false) {
                        break;
                    }
                }
            } else {
                // Out of work: initiate a synchronization for our group.
                if self.sync_episode(true) {
                    break;
                }
                if self.queue.is_empty() {
                    // The episode gave us nothing: leave the computation
                    // (`dlb.more_work = false`) and only respond to later
                    // interrupts until the group finishes.
                    if self.respond_loop() {
                        break;
                    }
                }
            }
        }
        WorkerOutcome {
            checksum: self.checksum,
            iters: self.iters,
            received: self.received,
            epoch: self.epoch,
            group: self.group,
        }
    }

    fn execute_iteration(&mut self, iter: u64) {
        let item = self.items.remove(&iter).unwrap_or_else(|| {
            panic!(
                "task {} executing iteration {iter} without its payload",
                self.tid
            )
        });
        let kernel = Arc::clone(&self.kernel);
        let out = self.injector.taxed(|| kernel.execute(iter, &item));
        self.checksum += out;
        self.iters += 1;
        self.window_iters += 1;
    }

    fn interrupt_is_current(&self, m: &Message) -> bool {
        let e = m.unpack().u64();
        // Stale duplicates (a concurrent initiator of an epoch we already
        // completed) are dropped; future epochs are impossible — they
        // would require our profile.
        e == self.epoch
    }

    /// Run one synchronization episode. Returns `true` when the group is
    /// finished and this task should exit.
    fn sync_episode(&mut self, initiator: bool) -> bool {
        if initiator {
            let mut b = PackBuf::new();
            b.pack_u64(self.epoch);
            let peers: Vec<TaskId> = self
                .members
                .iter()
                .copied()
                .filter(|&m| m != self.tid)
                .collect();
            self.ctx.mcast(&peers, TAG_INTERRUPT, b);
        }
        self.send_profile();
        let outcome = IndexedOutcome::from(self.obtain_outcome());
        let finished = self.apply_outcome(&outcome);
        self.epoch += 1;
        self.window_start = Instant::now();
        self.window_iters = 0;
        if finished {
            // Zombie loop: keep answering interrupts (and, on the master,
            // keep serving other groups) until everything is done.
            return self.linger();
        }
        false
    }

    fn make_profile(&self) -> PerfProfile {
        PerfProfile {
            proc: self.tid,
            iters_done: self.window_iters,
            elapsed: self.window_start.elapsed().as_secs_f64().max(1e-9),
            remaining: self.queue.remaining(),
        }
    }

    fn pack_profile(&self, p: &PerfProfile) -> PackBuf {
        let mut b = PackBuf::new();
        b.pack_u64(self.epoch)
            .pack_usize(self.group)
            .pack_usize(p.proc)
            .pack_u64(p.iters_done)
            .pack_f64(p.elapsed)
            .pack_u64(p.remaining);
        b
    }

    fn unpack_profile(m: &Message) -> (u64, usize, PerfProfile) {
        let mut u = m.unpack();
        let epoch = u.u64();
        let group = u.usize();
        let profile = PerfProfile {
            proc: u.usize(),
            iters_done: u.u64(),
            elapsed: u.f64(),
            remaining: u.u64(),
        };
        (epoch, group, profile)
    }

    fn send_profile(&mut self) {
        debug_assert_ne!(self.profiled_epoch, Some(self.epoch), "double profile");
        self.profiled_epoch = Some(self.epoch);
        let profile = self.make_profile();
        match self.cfg.strategy.control() {
            Control::Centralized => {
                if self.is_master() {
                    self.record_profile(self.group, self.epoch, profile);
                } else {
                    let b = self.pack_profile(&profile);
                    self.ctx.send(self.master, TAG_PROFILE, b);
                }
            }
            Control::Distributed => {
                self.record_profile(self.group, self.epoch, profile);
                let b = self.pack_profile(&profile);
                let peers: Vec<TaskId> = self
                    .members
                    .iter()
                    .copied()
                    .filter(|&m| m != self.tid)
                    .collect();
                self.ctx.mcast(&peers, TAG_PROFILE, b);
            }
        }
    }

    fn record_profile(&mut self, group: usize, epoch: u64, profile: PerfProfile) {
        self.pending
            .entry((group, epoch))
            .or_default()
            .insert(profile.proc, profile);
    }

    fn group_complete(&self, group: usize, epoch: u64) -> bool {
        self.pending
            .get(&(group, epoch))
            .is_some_and(|set| set.len() == self.groups[group].len())
    }

    fn compute_outcome(&mut self, group: usize, epoch: u64) -> BalanceOutcome {
        let set = self
            .pending
            .remove(&(group, epoch))
            .expect("complete profile set");
        let profiles: Vec<PerfProfile> = set.into_values().collect();
        // Movement-cost estimate for the include_move_cost ablation: a
        // thread-local copy is cheap, so charge a nominal per-iteration
        // cost only.
        balance_group(&profiles, &self.cfg, |moved| moved as f64 * 1e-7)
    }

    /// Master: drain foreign profiles and serve any completed group.
    fn master_service(&mut self) {
        while let Some(m) = self.ctx.try_recv(None, Some(TAG_PROFILE)) {
            let (epoch, group, profile) = Self::unpack_profile(&m);
            self.record_profile(group, epoch, profile);
        }
        let ready: Vec<(usize, u64)> = self
            .pending
            .keys()
            .copied()
            .filter(|&(g, e)| self.group_complete(g, e) && !(g == self.group && e == self.epoch))
            .collect();
        for (g, e) in ready {
            let outcome = self.compute_outcome(g, e);
            self.broadcast_outcome(g, &outcome);
        }
    }

    fn broadcast_outcome(&mut self, group: usize, outcome: &BalanceOutcome) {
        if outcome.verdict == BalanceVerdict::Finished {
            self.groups_done += 1;
        }
        let b = Self::pack_outcome(outcome);
        let peers: Vec<TaskId> = self.groups[group]
            .iter()
            .copied()
            .filter(|&m| m != self.tid)
            .collect();
        self.ctx.mcast(&peers, TAG_OUTCOME, b);
    }

    fn pack_outcome(outcome: &BalanceOutcome) -> PackBuf {
        let mut b = PackBuf::new();
        b.pack_u64(match outcome.verdict {
            BalanceVerdict::Finished => 0,
            BalanceVerdict::BelowThreshold => 1,
            BalanceVerdict::Unprofitable => 2,
            BalanceVerdict::Move => 3,
        });
        b.pack_u64(outcome.transfers.len() as u64);
        for t in &outcome.transfers {
            b.pack_usize(t.from).pack_usize(t.to).pack_u64(t.iters);
        }
        b
    }

    fn unpack_outcome(m: &Message) -> BalanceOutcome {
        let mut u = m.unpack();
        let verdict = match u.u64() {
            0 => BalanceVerdict::Finished,
            1 => BalanceVerdict::BelowThreshold,
            2 => BalanceVerdict::Unprofitable,
            3 => BalanceVerdict::Move,
            v => panic!("corrupt outcome verdict {v}"),
        };
        let n = u.usize();
        let transfers = (0..n)
            .map(|_| dlb_core::Transfer {
                from: u.usize(),
                to: u.usize(),
                iters: u.u64(),
            })
            .collect();
        BalanceOutcome {
            verdict,
            new_counts: Vec::new(),
            transfers,
            moved: 0,
            predicted_old: 0.0,
            predicted_new: 0.0,
        }
    }

    fn obtain_outcome(&mut self) -> BalanceOutcome {
        match self.cfg.strategy.control() {
            Control::Centralized => {
                if self.is_master() {
                    // Keep collecting (and serving other groups) until our
                    // own episode is decidable.
                    while !self.group_complete(self.group, self.epoch) {
                        let m = self.ctx.recv(None, Some(TAG_PROFILE));
                        let (epoch, group, profile) = Self::unpack_profile(&m);
                        self.record_profile(group, epoch, profile);
                        self.master_service();
                    }
                    let outcome = self.compute_outcome(self.group, self.epoch);
                    self.broadcast_outcome(self.group, &outcome);
                    outcome
                } else {
                    let m = self.ctx.recv(Some(self.master), Some(TAG_OUTCOME));
                    Self::unpack_outcome(&m)
                }
            }
            Control::Distributed => {
                while !self.group_complete(self.group, self.epoch) {
                    let m = self.ctx.recv(None, Some(TAG_PROFILE));
                    let (epoch, group, profile) = Self::unpack_profile(&m);
                    debug_assert_eq!(group, self.group, "profile from a foreign group");
                    self.record_profile(group, epoch, profile);
                }
                // Every replica computes the identical outcome.
                self.compute_outcome(self.group, self.epoch)
            }
        }
    }

    /// Apply an outcome: donate, receive, or just resume. Returns `true`
    /// when the whole group is finished.
    fn apply_outcome(&mut self, outcome: &IndexedOutcome) -> bool {
        if outcome.outcome.verdict == BalanceVerdict::Finished {
            return true;
        }
        // Donate.
        for t in outcome.index.donations(self.tid) {
            let ranges = self.queue.take_back(t.iters);
            assert_eq!(
                ranges_len(&ranges),
                t.iters,
                "task {} cannot cover its planned donation",
                self.tid
            );
            let mut b = PackBuf::new();
            b.pack_u64(ranges.len() as u64);
            for r in &ranges {
                b.pack_u64(r.start).pack_u64(r.end);
            }
            for r in &ranges {
                for i in r.clone() {
                    let item = self
                        .items
                        .remove(&i)
                        .expect("donated iteration must have its payload");
                    b.pack_f64_slice(&item);
                }
            }
            self.ctx.send(t.to, TAG_WORK, b);
        }
        // Receive.
        let mut expect = outcome.index.owed(self.tid);
        while expect > 0 {
            let m = self.ctx.recv(None, Some(TAG_WORK));
            let mut u = m.unpack();
            let nranges = u.usize();
            let ranges: Vec<Range<u64>> = (0..nranges)
                .map(|_| {
                    let s = u.u64();
                    let e = u.u64();
                    s..e
                })
                .collect();
            for r in &ranges {
                for i in r.clone() {
                    let item = u.f64_vec();
                    self.items.insert(i, item);
                }
                self.queue.push_back(r.clone());
            }
            let got = ranges_len(&ranges);
            self.received += got;
            expect = expect.saturating_sub(got);
        }
        false
    }

    /// Post-finish loop: the master keeps serving the remaining groups'
    /// profiles until every group is done; other tasks exit immediately
    /// (nothing further is addressed to them). Returns `true` (exit).
    fn linger(&mut self) -> bool {
        if self.is_master() {
            loop {
                self.master_service();
                if self.groups_done >= self.groups.len() {
                    break;
                }
                let m = self.ctx.recv(None, Some(TAG_PROFILE));
                let (epoch, group, profile) = Self::unpack_profile(&m);
                self.record_profile(group, epoch, profile);
            }
        }
        true
    }

    /// Responder loop for a task that left the computation while its group
    /// still works: answer interrupts with `remaining = 0` profiles (the
    /// balancer then routes essentially nothing to us), record broadcast
    /// profiles, and — on the master — keep serving the other groups.
    /// Returns `true` when the group finished and this task should exit,
    /// `false` if a redistribution handed us work again.
    fn respond_loop(&mut self) -> bool {
        loop {
            let m = self.ctx.recv(None, None);
            match m.tag {
                TAG_INTERRUPT if self.interrupt_is_current(&m) => {
                    if self.sync_episode(false) {
                        return true;
                    }
                    if !self.queue.is_empty() {
                        // Rounding handed us a sliver of work: rejoin
                        // the compute loop.
                        return false;
                    }
                }
                TAG_PROFILE => {
                    let (epoch, group, profile) = Self::unpack_profile(&m);
                    self.record_profile(group, epoch, profile);
                    if self.is_master() {
                        self.master_service();
                    }
                }
                // No outcome or work can be addressed to a task that is
                // not mid-episode; drop defensively.
                _ => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::strategy::Strategy;

    /// A kernel multiplying each payload by 2 with a spin to make the
    /// work measurable.
    struct SpinKernel {
        iters: u64,
        spin: u64,
    }

    impl RowKernel for SpinKernel {
        fn iterations(&self) -> u64 {
            self.iters
        }
        fn initial_item(&self, iter: u64) -> Vec<f64> {
            vec![iter as f64, 1.0, 2.0]
        }
        fn execute(&self, iter: u64, item: &[f64]) -> f64 {
            let mut acc = 0.0f64;
            for k in 0..self.spin {
                acc += (k as f64 * 1e-9).sin().abs();
            }
            item.iter().sum::<f64>() + iter as f64 + acc * 1e-12
        }
    }

    fn sequential_checksum(kernel: &SpinKernel) -> f64 {
        (0..kernel.iterations())
            .map(|i| kernel.execute(i, &kernel.initial_item(i)))
            .sum()
    }

    fn zero_loads(p: usize) -> Vec<LoadSpec> {
        vec![LoadSpec::Zero; p]
    }

    #[test]
    fn all_strategies_preserve_checksum_unloaded() {
        let kernel = SpinKernel {
            iters: 64,
            spin: 500,
        };
        let want = sequential_checksum(&kernel);
        for s in Strategy::ALL {
            let report = run_loop(
                Arc::new(SpinKernel {
                    iters: 64,
                    spin: 500,
                }),
                StrategyConfig::paper(s, 2),
                4,
                zero_loads(4),
                1.0,
            );
            assert!(
                (report.checksum - want).abs() < 1e-9,
                "{s}: checksum mismatch"
            );
            assert_eq!(report.per_proc_iters.iter().sum::<u64>(), 64, "{s}");
        }
    }

    #[test]
    fn skewed_load_moves_work_and_preserves_checksum() {
        let kernel = SpinKernel {
            iters: 48,
            spin: 20_000,
        };
        let want = sequential_checksum(&kernel);
        let mut loads = zero_loads(4);
        loads[3] = LoadSpec::Constant { level: 5 };
        for s in [Strategy::Gcdlb, Strategy::Gddlb] {
            let report = run_loop(
                Arc::new(SpinKernel {
                    iters: 48,
                    spin: 20_000,
                }),
                StrategyConfig::paper(s, 2),
                4,
                loads.clone(),
                1.0,
            );
            assert!(
                (report.checksum - want).abs() < 1e-9,
                "{s}: checksum mismatch"
            );
            assert!(report.iters_moved > 0, "{s}: expected work movement");
            assert!(
                report.per_proc_iters[3] < 12,
                "{s}: loaded task should do less: {:?}",
                report.per_proc_iters
            );
        }
    }

    #[test]
    fn local_strategies_keep_work_within_groups() {
        let kernel = SpinKernel {
            iters: 40,
            spin: 10_000,
        };
        let want = sequential_checksum(&kernel);
        let mut loads = zero_loads(4);
        loads[1] = LoadSpec::Constant { level: 5 };
        let report = run_loop(
            Arc::new(SpinKernel {
                iters: 40,
                spin: 10_000,
            }),
            StrategyConfig::paper(Strategy::Lddlb, 2),
            4,
            loads,
            1.0,
        );
        assert!((report.checksum - want).abs() < 1e-9);
        // Groups are {0,1} and {2,3}: each group keeps its half.
        assert_eq!(report.per_proc_iters[0] + report.per_proc_iters[1], 20);
        assert_eq!(report.per_proc_iters[2] + report.per_proc_iters[3], 20);
    }

    #[test]
    fn single_task_runs_serially() {
        let kernel = SpinKernel {
            iters: 10,
            spin: 100,
        };
        let want = sequential_checksum(&kernel);
        let report = run_loop(
            Arc::new(SpinKernel {
                iters: 10,
                spin: 100,
            }),
            StrategyConfig::paper(Strategy::Gcdlb, 1),
            1,
            zero_loads(1),
            1.0,
        );
        assert!((report.checksum - want).abs() < 1e-12);
        assert_eq!(report.per_proc_iters, vec![10]);
    }

    #[test]
    fn more_tasks_than_iterations() {
        let kernel = SpinKernel {
            iters: 3,
            spin: 100,
        };
        let want = sequential_checksum(&kernel);
        let report = run_loop(
            Arc::new(SpinKernel {
                iters: 3,
                spin: 100,
            }),
            StrategyConfig::paper(Strategy::Gddlb, 4),
            8,
            zero_loads(8),
            1.0,
        );
        assert!((report.checksum - want).abs() < 1e-12);
        assert_eq!(report.per_proc_iters.iter().sum::<u64>(), 3);
    }

    #[test]
    fn lcdlb_master_serves_foreign_groups() {
        let kernel = SpinKernel {
            iters: 60,
            spin: 5_000,
        };
        let want = sequential_checksum(&kernel);
        let mut loads = zero_loads(6);
        loads[4] = LoadSpec::Constant { level: 4 };
        let report = run_loop(
            Arc::new(SpinKernel {
                iters: 60,
                spin: 5_000,
            }),
            StrategyConfig::paper(Strategy::Lcdlb, 2),
            6,
            loads,
            1.0,
        );
        assert!((report.checksum - want).abs() < 1e-9);
        assert_eq!(report.per_proc_iters.iter().sum::<u64>(), 60);
    }
}
