//! Golden per-request report digests for round 0 of the default seeds.
//!
//! Each file under `golden/` holds one line per seed:
//! `<seed> <digest> <digest> ...`, one 8-hex-digit digest per request in
//! submit order. `perfbench --write-golden` regenerates them by executing
//! every spec directly, without the server.

use std::fmt::Write as _;

use crate::check::digest;
use crate::gen::{self, Workload};
use crate::trace::Tracer;

/// Seeds `0..GOLDEN_SEEDS` have golden digests.
pub const GOLDEN_SEEDS: u64 = 16;

fn text(w: Workload) -> &'static str {
    match w.grid() {
        Workload::PaperGrid => include_str!("../golden/paper-grid.txt"),
        Workload::LargeP => include_str!("../golden/large-p.txt"),
        Workload::Chaos => include_str!("../golden/chaos.txt"),
        Workload::MemoReplay => unreachable!("memo-replay replays the paper grid"),
    }
}

fn file_name(w: Workload) -> String {
    format!("{}.txt", w.grid().name())
}

/// The golden digests of round 0 of `seed`, if recorded.
pub fn round0(w: Workload, seed: u64) -> Option<Vec<u32>> {
    let line = text(w).lines().find(|l| {
        l.split_once(' ')
            .is_some_and(|(s, _)| s.parse::<u64>() == Ok(seed))
    })?;
    line.split(' ')
        .skip(1)
        .map(|d| u32::from_str_radix(d, 16).ok())
        .collect()
}

/// Execute round 0 of seeds `0..GOLDEN_SEEDS` directly and write the
/// workload's golden file into the package's `golden/` directory.
pub fn write(w: Workload) -> std::io::Result<std::path::PathBuf> {
    let mut out = String::new();
    for seed in 0..GOLDEN_SEEDS {
        let round = gen::round(w, seed, 0, &mut Tracer::off());
        let _ = write!(out, "{seed}");
        for job in &round.jobs {
            let bytes =
                serde_json::to_string(&job.spec.execute()).expect("reports always serialize");
            let _ = write!(out, " {:08x}", digest(&bytes));
        }
        out.push('\n');
    }
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(file_name(w));
    std::fs::write(&path, out)?;
    Ok(path)
}
