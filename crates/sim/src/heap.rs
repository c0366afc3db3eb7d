//! The event loop's priority queue.
//!
//! A binary min-heap, like `std::collections::BinaryHeap<Reverse<T>>`,
//! plus one thing std does not offer: [`MinHeap::visit_prefix`] walks
//! only the elements that order before a bound. The episode fast-forward
//! uses it to find the first event that would interfere with a replay,
//! and to check the events inside a replayed window, without touching
//! the (up to P) events beyond. `BinaryHeap::iter` cannot do that: std
//! documents its order as arbitrary, so no walk over it may be pruned.
//!
//! Every element carries a unique key in the engine (a push sequence
//! number breaks every tie), so pops come out in one total order whatever
//! the heap's internal layout — swapping std's heap for this one changes
//! no event order.

/// A binary min-heap: [`MinHeap::pop`] returns the least element.
#[derive(Debug)]
pub(crate) struct MinHeap<T> {
    data: Vec<T>,
}

impl<T> Default for MinHeap<T> {
    fn default() -> Self {
        Self { data: Vec::new() }
    }
}

impl<T: Ord> MinHeap<T> {
    pub(crate) fn clear(&mut self) {
        self.data.clear();
    }

    pub(crate) fn push(&mut self, item: T) {
        self.data.push(item);
        self.sift_up(self.data.len() - 1);
    }

    pub(crate) fn pop(&mut self) -> Option<T> {
        let last = self.data.len().checked_sub(1)?;
        self.data.swap(0, last);
        let top = self.data.pop();
        self.sift_down(0);
        top
    }

    /// Visit every element `e` with `within(e)`, in heap (not sorted)
    /// order, until `visit` returns `false`.
    ///
    /// `within` must hold for every element ordering before one it holds
    /// for (e.g. "time ≤ t" when time is the leading key). A heap parent
    /// never orders after its children, so a subtree whose root fails
    /// `within` holds no match and is skipped: the walk touches the
    /// matches and at most two children of each. `within` may tighten
    /// as the walk goes (a search for the least element with some
    /// property lowers its bound at each find): a subtree skipped under
    /// a looser bound fails every tighter one too.
    pub(crate) fn visit_prefix(
        &self,
        within: impl Fn(&T) -> bool,
        mut visit: impl FnMut(&T) -> bool,
    ) {
        self.walk(0, &within, &mut visit);
    }

    /// Returns `false` once `visit` asked to stop.
    fn walk(
        &self,
        i: usize,
        within: &impl Fn(&T) -> bool,
        visit: &mut impl FnMut(&T) -> bool,
    ) -> bool {
        match self.data.get(i) {
            Some(e) if within(e) => {
                visit(e)
                    && self.walk(2 * i + 1, within, visit)
                    && self.walk(2 * i + 2, within, visit)
            }
            _ => true,
        }
    }

    fn sift_up(&mut self, mut pos: usize) {
        while pos > 0 {
            let parent = (pos - 1) / 2;
            if self.data[pos] >= self.data[parent] {
                break;
            }
            self.data.swap(pos, parent);
            pos = parent;
        }
    }

    /// Sink the element at `pos` to a leaf along the lesser children, then
    /// let it rise back (std's `sift_down_to_bottom`): one comparison per
    /// level on the way down, since a popped last leaf usually belongs
    /// near the bottom again.
    fn sift_down(&mut self, mut pos: usize) {
        let end = self.data.len();
        let mut child = 2 * pos + 1;
        while child + 1 < end {
            child += usize::from(self.data[child] > self.data[child + 1]);
            self.data.swap(pos, child);
            pos = child;
            child = 2 * pos + 1;
        }
        if child + 1 == end {
            self.data.swap(pos, child);
            pos = child;
        }
        self.sift_up(pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// xorshift keys, no external RNG.
    fn keys(n: usize, mut x: u64) -> Vec<u64> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x % 1000
            })
            .collect()
    }

    #[test]
    fn pops_in_ascending_order_interleaved_with_pushes() {
        let mut h = MinHeap::default();
        let mut reference = std::collections::BinaryHeap::new();
        for (i, k) in keys(2000, 0x9e37_79b9_7f4a_7c15).into_iter().enumerate() {
            // Unique keys, as the engine's sequence numbers make them.
            let item = (k, i);
            h.push(item);
            reference.push(std::cmp::Reverse(item));
            if i % 3 == 0 {
                assert_eq!(h.pop(), reference.pop().map(|r| r.0));
            }
        }
        while let Some(std::cmp::Reverse(want)) = reference.pop() {
            assert_eq!(h.pop(), Some(want));
        }
        assert_eq!(h.pop(), None);
    }

    #[test]
    fn visit_prefix_sees_exactly_the_window() {
        let mut h = MinHeap::default();
        for (i, k) in keys(500, 0x2545_f491_4f6c_dd1d).into_iter().enumerate() {
            h.push((k, i));
        }
        for bound in [0, 1, 37, 500, 999, 1000] {
            let mut seen = Vec::new();
            h.visit_prefix(
                |e| e.0 <= bound,
                |e| {
                    seen.push(*e);
                    true
                },
            );
            seen.sort_unstable();
            let mut want: Vec<(u64, usize)> =
                h.data.iter().copied().filter(|e| e.0 <= bound).collect();
            want.sort_unstable();
            assert_eq!(seen, want, "bound {bound}");
        }
    }

    #[test]
    fn visit_prefix_prunes_and_stops() {
        let mut h = MinHeap::default();
        for i in 0..1000u64 {
            h.push(i);
        }
        // Only elements ≤ 9 and their children may be inspected.
        let probes = std::cell::Cell::new(0);
        h.visit_prefix(
            |&e| {
                probes.set(probes.get() + 1);
                e <= 9
            },
            |_| true,
        );
        assert!(probes.get() <= 10 + 2 * 10, "probed {}", probes.get());
        // `visit` returning false ends the walk at once.
        let mut visits = 0;
        h.visit_prefix(
            |_| true,
            |_| {
                visits += 1;
                visits < 3
            },
        );
        assert_eq!(visits, 3);
    }
}
