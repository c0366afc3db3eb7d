//! Order statistics, and latency samples summarized per time window.

use std::time::Instant;

/// The `q`-quantile of sorted samples (nearest rank).
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    quantile(samples, 0.5)
}

/// A tail percentile: its label and quantile.
pub type Tail = (&'static str, f64);

/// One closed window.
struct Window {
    /// Completions per second over the window's span of time.
    rate: f64,
    p50: f64,
    tail: f64,
}

/// Latency samples summarized per window of whole rounds. Windows tile
/// the timed phase: each runs from the previous one's close to the end
/// of a round, and closes at the first round end by which it has lasted
/// [`WINDOW`] and holds [`WINDOW_SAMPLES`] samples, so a slow workload
/// gets longer windows and every window serves the same mix of requests.
/// A round of large-p is nine cells whose costs range over two orders
/// of magnitude; a window cut mid-round shifts which cell its median
/// and tail fall on. Only the open window's samples are kept, so memory
/// does not grow with throughput; each closed window keeps its quantiles
/// and completion rate, and the run reports medians over windows, which
/// a few slow seconds on a shared host do not move.
pub struct Windows {
    tail: Tail,
    opened: Instant,
    samples: Vec<f64>,
    last_done: Instant,
    closed: Vec<Window>,
    total: u64,
}

pub const WINDOW: std::time::Duration = std::time::Duration::from_secs(1);
/// Ten samples beyond a p90 tail.
pub const WINDOW_SAMPLES: usize = 100;

/// What a run reports from its windows.
pub struct Summary {
    pub samples: u64,
    pub windows: usize,
    pub rate: Option<f64>,
    pub p50: f64,
    pub tail_label: &'static str,
    pub tail: f64,
}

impl Windows {
    /// Windows starting at `start`, reporting the `tail` percentile.
    pub fn new(start: Instant, tail: Tail) -> Self {
        Self {
            tail,
            opened: start,
            samples: Vec::with_capacity(WINDOW_SAMPLES),
            last_done: start,
            closed: Vec::new(),
            total: 0,
        }
    }

    pub fn add(&mut self, done: Instant, latency_us: f64) {
        self.last_done = done;
        self.samples.push(latency_us);
        self.total += 1;
    }

    /// A round ended with the last sample added: close the window if it
    /// is long enough.
    pub fn round_end(&mut self) {
        if self.samples.len() >= WINDOW_SAMPLES && self.last_done - self.opened >= WINDOW {
            self.close();
        }
    }

    fn close(&mut self) {
        let span = (self.last_done - self.opened).as_secs_f64();
        if self.samples.is_empty() || span <= 0.0 {
            return;
        }
        self.samples.sort_by(f64::total_cmp);
        self.closed.push(Window {
            rate: self.samples.len() as f64 / span,
            p50: quantile(&self.samples, 0.5),
            tail: quantile(&self.samples, self.tail.1),
        });
        self.samples.clear();
        self.opened = self.last_done;
    }

    /// Medians over windows. The samples after the last round end that
    /// closed a window are a cut round, left out unless no window closed.
    pub fn finish(mut self) -> Summary {
        if self.closed.is_empty() {
            self.close();
        }
        let col = |f: &dyn Fn(&Window) -> f64| {
            let mut v: Vec<f64> = self.closed.iter().map(f).collect();
            (!v.is_empty()).then(|| median(&mut v))
        };
        Summary {
            samples: self.total,
            windows: self.closed.len(),
            rate: col(&|w| w.rate),
            p50: col(&|w| w.p50).unwrap_or(0.0),
            tail_label: self.tail.0,
            tail: col(&|w| w.tail).unwrap_or(0.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn windows_report_medians() {
        let t0 = Instant::now();
        let mut w = Windows::new(t0, ("p90", 0.9));
        // Three one-second rounds of 200 samples; the middle one is slow.
        for k in 0..3u64 {
            for i in 0..200u64 {
                let at = t0 + Duration::from_micros(k * 1_000_000 + (i + 1) * 5_000);
                let slow = if k == 1 { 10.0 } else { 1.0 };
                w.add(at, slow * (i + 1) as f64);
            }
            w.round_end();
        }
        let s = w.finish();
        assert_eq!((s.samples, s.windows), (600, 3));
        assert_eq!(s.p50, 100.0);
        assert_eq!(s.tail_label, "p90");
        assert_eq!(s.tail, 180.0);
        let rate = s.rate.unwrap();
        assert!((rate - 200.0).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn slow_workloads_get_longer_windows() {
        let t0 = Instant::now();
        let mut w = Windows::new(t0, ("p90", 0.9));
        // 50 completions a second for 8 s in rounds of 10: windows of
        // 100 samples.
        for i in 1..=400u64 {
            w.add(t0 + Duration::from_millis(i * 20), 1.0);
            if i % 10 == 0 {
                w.round_end();
            }
        }
        assert_eq!(w.finish().windows, 4);
    }

    #[test]
    fn windows_hold_whole_rounds() {
        let t0 = Instant::now();
        let mut w = Windows::new(t0, ("p90", 0.9));
        // Rounds of three requests costing 1, 2 and 3: a window closes
        // only at a round end, so each holds the same mix.
        let mut at = t0;
        for round in 0..200u64 {
            for cost in 1..=3u64 {
                at += Duration::from_millis(10);
                w.add(at, cost as f64);
            }
            if round < 199 {
                w.round_end();
            }
        }
        // A cut round of slow requests after the last round end.
        w.add(at + Duration::from_millis(10), 1e6);
        let s = w.finish();
        assert_eq!(s.samples, 601);
        assert_eq!(s.windows, 5, "windows of 34 rounds, 102 samples");
        assert_eq!((s.p50, s.tail), (2.0, 3.0));
    }
}
