//! The load balancer's decision procedure: new distribution, minimum-work
//! threshold, and profitability analysis (Sections 3.3–3.4, eq. 3).

use crate::distribution::Distribution;
use crate::moveplan::{plan_transfers, Transfer, TransferIndex};
use crate::profile::PerfProfile;
use crate::strategy::StrategyConfig;
use serde::{Deserialize, Serialize};

/// Why the balancer did or did not move work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BalanceVerdict {
    /// No work remains in this group; the loop (or the group) is done.
    Finished,
    /// The planned movement was below the minimum-work threshold — "the
    /// system is almost balanced, or only a small portion of the work
    /// still remains".
    BelowThreshold,
    /// The profitability analysis predicted less than the required
    /// improvement (10 % in the paper); the move is cancelled.
    Unprofitable,
    /// Work moves.
    Move,
}

/// The balancer's full decision for one group at one synchronization.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BalanceOutcome {
    pub verdict: BalanceVerdict,
    /// New per-member iteration counts `(proc, α)`, in member order.
    /// Meaningful for every verdict except `Finished` (it echoes `β` when
    /// no move happens).
    pub new_counts: Vec<(usize, u64)>,
    /// Planned transfers in *global* processor ids (empty unless `Move`).
    pub transfers: Vec<Transfer>,
    /// Iterations moved (`δ`, zero unless `Move`).
    pub moved: u64,
    /// Predicted finish time of the group under the old distribution.
    pub predicted_old: f64,
    /// Predicted finish time under the new distribution (excluding or
    /// including movement cost per the config).
    pub predicted_new: f64,
}

/// A [`BalanceOutcome`] together with its [`TransferIndex`], built once
/// when the outcome is decided (or received) and shared by every
/// participant that acts on it.
#[derive(Debug, Clone, PartialEq)]
pub struct IndexedOutcome {
    pub outcome: BalanceOutcome,
    pub index: TransferIndex,
}

impl From<BalanceOutcome> for IndexedOutcome {
    fn from(outcome: BalanceOutcome) -> Self {
        let index = TransferIndex::new(&outcome.transfers);
        Self { outcome, index }
    }
}

/// Run the balancer for one group.
///
/// * `profiles` — one per group member (any order; `proc` identifies it).
/// * `cfg` — strategy configuration (margin, threshold, ablation flags).
/// * `move_cost` — estimates the seconds the data movement would take for
///   a given number of moved iterations; only consulted when
///   `cfg.include_move_cost` (ablation A1.2 — the paper's default
///   *excludes* it, Section 3.4).
///
/// # Panics
/// Panics if `profiles` is empty.
pub fn balance_group(
    profiles: &[PerfProfile],
    cfg: &StrategyConfig,
    move_cost: impl Fn(u64) -> f64,
) -> BalanceOutcome {
    assert!(!profiles.is_empty(), "balancer needs at least one profile");
    let members: Vec<usize> = profiles.iter().map(|p| p.proc).collect();
    let old_counts: Vec<u64> = profiles.iter().map(|p| p.remaining).collect();
    let total: u64 = old_counts.iter().sum();
    let echo = |verdict| BalanceOutcome {
        verdict,
        new_counts: members
            .iter()
            .copied()
            .zip(old_counts.iter().copied())
            .collect(),
        transfers: Vec::new(),
        moved: 0,
        predicted_old: 0.0,
        predicted_new: 0.0,
    };
    if total == 0 {
        return echo(BalanceVerdict::Finished);
    }

    let rates: Vec<f64> = profiles.iter().map(PerfProfile::rate).collect();
    let old = Distribution::from_counts(old_counts.clone());
    let new = Distribution::proportional(total, &rates);
    let moved = old.work_moved(&new);

    // Minimum-work threshold (Section 3.3).
    let threshold = (cfg.min_move_fraction * total as f64).ceil() as u64;
    if moved == 0 || moved < threshold {
        let mut out = echo(BalanceVerdict::BelowThreshold);
        out.predicted_old = predicted_finish(&old, &rates);
        out.predicted_new = out.predicted_old;
        return out;
    }

    // Profitability analysis (Section 3.4): predicted execution time of the
    // new assignment must improve on the old by at least the margin. The
    // paper excludes the movement cost by default.
    let predicted_old = predicted_finish(&old, &rates);
    let mut predicted_new = predicted_finish(&new, &rates);
    if cfg.include_move_cost {
        predicted_new += move_cost(moved).max(0.0);
    }
    if predicted_new > (1.0 - cfg.profitability_margin) * predicted_old {
        let mut out = echo(BalanceVerdict::Unprofitable);
        out.predicted_old = predicted_old;
        out.predicted_new = predicted_new;
        return out;
    }

    // Map the group-local plan to global processor ids.
    let local_plan = plan_transfers(&old, &new);
    let transfers: Vec<Transfer> = local_plan
        .into_iter()
        .map(|t| Transfer {
            from: members[t.from],
            to: members[t.to],
            iters: t.iters,
        })
        .collect();
    BalanceOutcome {
        verdict: BalanceVerdict::Move,
        new_counts: members
            .iter()
            .copied()
            .zip(new.counts().iter().copied())
            .collect(),
        transfers,
        moved,
        predicted_old,
        predicted_new,
    }
}

/// Predicted group finish time for a distribution at the measured rates:
/// the slowest member dominates.
fn predicted_finish(dist: &Distribution, rates: &[f64]) -> f64 {
    dist.counts()
        .iter()
        .zip(rates)
        .map(|(&c, &r)| c as f64 / r)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::strategy::Strategy;

    fn prof(proc: usize, done: u64, elapsed: f64, remaining: u64) -> PerfProfile {
        PerfProfile {
            proc,
            iters_done: done,
            elapsed,
            remaining,
        }
    }

    fn cfg() -> StrategyConfig {
        StrategyConfig::paper(Strategy::Gcdlb, 4)
    }

    #[test]
    fn finished_group_detected() {
        let out = balance_group(&[prof(0, 10, 1.0, 0), prof(1, 10, 1.0, 0)], &cfg(), |_| 0.0);
        assert_eq!(out.verdict, BalanceVerdict::Finished);
    }

    #[test]
    fn balanced_group_below_threshold() {
        // Equal rates, equal remaining: nothing to move.
        let out = balance_group(
            &[prof(0, 100, 1.0, 50), prof(1, 100, 1.0, 50)],
            &cfg(),
            |_| 0.0,
        );
        assert_eq!(out.verdict, BalanceVerdict::BelowThreshold);
        assert_eq!(out.moved, 0);
    }

    #[test]
    fn skewed_rates_cause_move() {
        // Processor 0 is 4x faster but both hold the same remaining work.
        let out = balance_group(
            &[prof(0, 400, 1.0, 200), prof(1, 100, 1.0, 200)],
            &cfg(),
            |_| 0.0,
        );
        assert_eq!(out.verdict, BalanceVerdict::Move);
        assert_eq!(out.transfers.len(), 1);
        let t = out.transfers[0];
        assert_eq!((t.from, t.to), (1, 0));
        // New distribution ~ rates 4:1 over 400 total -> 320/80.
        assert_eq!(out.new_counts, vec![(0, 320), (1, 80)]);
        assert_eq!(out.moved, 120);
        assert!(out.predicted_new < out.predicted_old);
    }

    #[test]
    fn move_improves_predicted_finish_by_margin() {
        let out = balance_group(
            &[prof(0, 400, 1.0, 200), prof(1, 100, 1.0, 200)],
            &cfg(),
            |_| 0.0,
        );
        assert!(out.predicted_new <= 0.9 * out.predicted_old);
    }

    #[test]
    fn tiny_imbalance_below_threshold() {
        let mut c = cfg();
        c.min_move_fraction = 0.10;
        // 2% imbalance with a 10% threshold.
        let out = balance_group(
            &[prof(0, 102, 1.0, 102), prof(1, 100, 1.0, 100)],
            &c,
            |_| 0.0,
        );
        assert_eq!(out.verdict, BalanceVerdict::BelowThreshold);
    }

    #[test]
    fn marginal_gain_is_unprofitable() {
        // Rates 115 vs 100: enough skew to clear the minimum-work
        // threshold, but the predicted improvement (~7%) is below the 10%
        // margin.
        let out = balance_group(
            &[prof(0, 115, 1.0, 100), prof(1, 100, 1.0, 100)],
            &cfg(),
            |_| 0.0,
        );
        assert_eq!(out.verdict, BalanceVerdict::Unprofitable);
        assert!(out.transfers.is_empty());
    }

    #[test]
    fn move_cost_inclusion_can_cancel_a_move() {
        let profiles = [prof(0, 400, 1.0, 200), prof(1, 100, 1.0, 200)];
        let mut c = cfg();
        c.include_move_cost = true;
        // Without cost the move is profitable...
        let cheap = balance_group(&profiles, &c, |_| 0.0);
        assert_eq!(cheap.verdict, BalanceVerdict::Move);
        // ...a huge movement-cost estimate nullifies it (the Section 3.4
        // failure mode that motivated excluding the cost).
        let expensive = balance_group(&profiles, &c, |_| 1e6);
        assert_eq!(expensive.verdict, BalanceVerdict::Unprofitable);
    }

    #[test]
    fn stalled_processor_gets_no_work() {
        let out = balance_group(
            &[prof(0, 0, 1.0, 150), prof(1, 300, 1.0, 150)],
            &cfg(),
            |_| 0.0,
        );
        assert_eq!(out.verdict, BalanceVerdict::Move);
        let zero = out.new_counts.iter().find(|&&(p, _)| p == 0).unwrap().1;
        assert_eq!(zero, 0, "stalled processor must be drained");
    }

    #[test]
    fn conservation_across_decision() {
        let profiles = [
            prof(3, 50, 1.0, 80),
            prof(7, 200, 1.0, 40),
            prof(9, 125, 1.0, 60),
        ];
        let out = balance_group(&profiles, &cfg(), |_| 0.0);
        let before: u64 = profiles.iter().map(|p| p.remaining).sum();
        let after: u64 = out.new_counts.iter().map(|&(_, c)| c).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn transfers_use_global_ids() {
        let out = balance_group(
            &[prof(8, 400, 1.0, 200), prof(12, 100, 1.0, 200)],
            &cfg(),
            |_| 0.0,
        );
        assert_eq!(out.verdict, BalanceVerdict::Move);
        assert!(out.transfers.iter().all(|t| t.from == 12 && t.to == 8));
    }
}
