//! Property coverage for [`TransferIndex`]: for every member of a random
//! redistribution, and for processors outside it, the index answers
//! exactly what a naive scan of the plan answers — the same transfers in
//! the same order, and the same owed total.

use dlb_core::{plan_transfers, Distribution, Transfer, TransferIndex};
use proptest::prelude::*;

fn naive_donations(plan: &[Transfer], p: usize) -> Vec<Transfer> {
    plan.iter().filter(|t| t.from == p).copied().collect()
}

fn naive_receipts(plan: &[Transfer], p: usize) -> Vec<Transfer> {
    plan.iter().filter(|t| t.to == p).copied().collect()
}

fn naive_owed(plan: &[Transfer], p: usize) -> u64 {
    plan.iter().filter(|t| t.to == p).map(|t| t.iters).sum()
}

proptest! {
    #[test]
    fn index_matches_naive_filter(
        old in prop::collection::vec(0u64..500, 1..48),
        weights in prop::collection::vec(1u64..100, 48..49),
        // Members map to sparse global ids `base + stride·i`, as a
        // local group's members do inside a larger cluster.
        base in 0usize..4096,
        stride in 1usize..9,
    ) {
        let k = old.len();
        let old = Distribution::from_counts(old);
        let rates: Vec<f64> = weights[..k].iter().map(|&w| w as f64).collect();
        let new = Distribution::proportional(old.total(), &rates);
        let global = |i: usize| base + stride * i;
        let plan: Vec<Transfer> = plan_transfers(&old, &new)
            .into_iter()
            .map(|t| Transfer { from: global(t.from), to: global(t.to), iters: t.iters })
            .collect();
        let idx = TransferIndex::new(&plan);

        let mut probes: Vec<usize> = (0..k).map(global).collect();
        // Non-members: below, between (when the stride leaves gaps) and
        // above the member ids.
        probes.extend([base.wrapping_sub(1), global(k), global(k) + 1000]);
        if stride > 1 {
            probes.push(base + 1);
        }
        for p in probes {
            prop_assert_eq!(idx.donations(p), &naive_donations(&plan, p)[..]);
            prop_assert_eq!(idx.receipts(p), &naive_receipts(&plan, p)[..]);
            prop_assert_eq!(idx.owed(p), naive_owed(&plan, p));
        }
    }

    #[test]
    fn index_of_any_order_matches_naive_filter(
        // Arbitrary plans (any order, repeated pairs) — e.g. one rebuilt
        // from the wire — not only what the greedy planner emits.
        raw in prop::collection::vec((0usize..12, 0usize..12, 1u64..50), 0..40),
    ) {
        let plan: Vec<Transfer> = raw
            .into_iter()
            .map(|(from, to, iters)| Transfer { from, to, iters })
            .collect();
        let idx = TransferIndex::new(&plan);
        for p in 0..14 {
            prop_assert_eq!(idx.donations(p), &naive_donations(&plan, p)[..]);
            prop_assert_eq!(idx.receipts(p), &naive_receipts(&plan, p)[..]);
            prop_assert_eq!(idx.owed(p), naive_owed(&plan, p));
        }
    }
}
