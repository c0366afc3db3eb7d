//! The two invocations: the untraced run measures the end-to-end
//! metrics; the traced run times each layer's public functions from
//! outside and derives the per-layer metrics.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use now_serve::{fnv1a64, MemoConfig, MemoKey, MemoStore, Served};
use now_sim::{EngineCounters, RunReport};

use crate::check::{self, Checker, Counts};
use crate::gen::{self, Job, Round, Workload};
use crate::golden;
use crate::host;
use crate::load::{self, Loop, Pass, Setup, SETUP_MAX_REPS, SETUP_MIN_REPS, SETUP_MIN_TIME};
use crate::stats::{self, Windows};
use crate::trace::Tracer;

/// A finished run: what the result line reports.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Problems that are not one request's fault (count mismatches).
    pub errors: Vec<String>,
    pub failures: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Summary lines printed before the result.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }
}

/// One digest over a round's per-request digests.
fn round_digest(digests: &[u32]) -> u64 {
    let bytes: Vec<u8> = digests.iter().flat_map(|d| d.to_le_bytes()).collect();
    fnv1a64(&bytes)
}

fn count_notes(notes: &mut Vec<String>, w: Workload, seed: u64, counts: &Counts, digests: &[u32]) {
    let golden = if golden::round0(w, seed).is_some() {
        "checked against golden"
    } else {
        "no golden for this seed"
    };
    notes.push(format!(
        "digest: round0={:016x} ({} requests, {golden})",
        round_digest(digests),
        digests.len()
    ));
    notes.push(format!("counts: {}", counts.line()));
}

/// Set up repeatedly (see [`SETUP_MIN_REPS`]); returns the last set-up,
/// its populate pass and the median set-up time.
fn set_up(
    lp: &mut Loop<'_>,
    w: Workload,
    seed: u64,
    threads: usize,
    total: &mut Pass,
) -> (Setup, Pass, f64) {
    let mut times = Vec::new();
    let mut last: Option<(Setup, Pass)> = None;
    let mut spent = 0.0;
    while times.len() < SETUP_MIN_REPS
        || (spent < SETUP_MIN_TIME.as_secs_f64() && times.len() < SETUP_MAX_REPS)
    {
        // The previous set-up's server joins its workers outside the
        // timed interval.
        drop(last.take());
        let mut populate = Pass::default();
        let t = Instant::now();
        let s = load::setup(lp, w, seed, threads, &mut populate);
        times.push(t.elapsed().as_secs_f64());
        spent += times[times.len() - 1];
        total.absorb(&populate);
        last = Some((s, populate));
    }
    let (s, populate) = last.expect("at least one set-up");
    (s, populate, stats::median(&mut times))
}

/// The untraced run: set-up, then closed-loop load for `seconds`.
pub fn untraced(w: Workload, seed: u64, seconds: u64, out: &Path, progress: &AtomicU64) -> Outcome {
    let threads = load::CALLERS;
    let mut lp = Loop::new(threads, progress, Tracer::off());
    let dir = out.join(format!("memo-{}", std::process::id()));
    let mut total = Pass::default();
    let (setup, populate, setup_s) = set_up(&mut lp, w, seed, threads, &mut total);
    if w == Workload::MemoReplay {
        load::write_disk_memo(&setup, &dir);
    }

    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    let mut pass = Pass {
        windows: Some(Windows::new(start, w.tail())),
        ..Pass::default()
    };
    // A window may close only where a round, or a replay pass, ends.
    let round_end = |pass: &mut Pass| pass.windows.as_mut().map(Windows::round_end);
    let (counts, digests) = if w == Workload::MemoReplay {
        while load::replay_pass(&mut lp, &setup, &dir, threads, Some(deadline), &mut pass) {
            round_end(&mut pass);
            if Instant::now() >= deadline {
                break;
            }
        }
        (populate.counts, populate.digests)
    } else {
        let Setup {
            mut round0,
            mut server,
            ..
        } = setup;
        let mut r = 0;
        while load::grid_round(
            &mut lp,
            w,
            seed,
            r,
            &round0,
            &server,
            Some(deadline),
            &mut pass,
        ) {
            round_end(&mut pass);
            if Instant::now() >= deadline {
                break;
            }
            r += 1;
            drop(server);
            round0 = gen::round(w, seed, r, &mut Tracer::off());
            server = load::memory_server(threads);
        }
        (pass.counts, std::mem::take(&mut pass.digests))
    };
    let wall = start.elapsed().as_secs_f64();
    let _ = std::fs::remove_dir_all(&dir);
    total.absorb(&pass);

    let mut notes = Vec::new();
    let lat = pass
        .windows
        .take()
        .expect("timed pass has windows")
        .finish();
    notes.push(format!(
        "latency: {} samples in {} windows, medians over windows; tail is {}; {threads} caller(s), {threads} worker(s)",
        lat.samples, lat.windows, lat.tail_label
    ));
    count_notes(&mut notes, w, seed, &counts, &digests);
    let attempted = total.attempted.max(1);
    let metrics = vec![
        (
            "runs_per_s".into(),
            lat.rate.unwrap_or(pass.attempted as f64 / wall),
            "1/s",
        ),
        ("run_p50_us".into(), lat.p50, "us"),
        ("run_tail_us".into(), lat.tail, "us"),
        ("setup_s".into(), setup_s, "s"),
        ("max_rss_mb".into(), host::max_rss_mb(), "MiB"),
        (
            "success_rate".into(),
            1.0 - total.failed as f64 / attempted as f64,
            "ratio",
        ),
    ];
    notes.push(format!(
        "error_rate: {} failed / {} attempted",
        total.failed, total.attempted
    ));
    Outcome {
        attempted: total.attempted,
        failed: total.failed,
        errors: Vec::new(),
        failures: total.failures,
        metrics,
        notes,
    }
}

/// Span names under one direct request, and what each costs the
/// server path.
#[derive(Default, Clone, Copy)]
struct Costs {
    /// Everything a simulated request does on the server path.
    sim: u64,
    /// A disk-tier replay: key, disk read and validation, parse, check.
    disk: u64,
    /// A memory-tier replay.
    memory: u64,
    /// What a worker does for a miss.
    worker: u64,
}

fn costs_under(tr: &Tracer, root: usize) -> Costs {
    let mut by: BTreeMap<&str, u64> = BTreeMap::new();
    for s in &tr.spans()[root + 1..] {
        if s.parent == Some(root) {
            *by.entry(s.name).or_default() += s.dur();
        }
    }
    let g = |n: &str| by.get(n).copied().unwrap_or(0);
    let key = g("serve.spec.canonical") + g("serve.spec.hash");
    let answer = g("serve.report.deserialize") + g("check");
    let worker = g("sim.execute") + g("serve.report.serialize");
    Costs {
        sim: key + worker + g("serve.memo.put_memory") + answer + g("model.choose_strategy"),
        disk: key + g("serve.memo.get_disk") + answer,
        memory: key + g("serve.memo.get_memory") + answer,
        worker,
    }
}

/// One request of the direct pass: each layer's public function called
/// in order, one span per call.
#[allow(clippy::too_many_arguments)]
fn direct_request(
    tr: &mut Tracer,
    req: u64,
    i: usize,
    job: &Job,
    round: &Round,
    mem: &MemoStore,
    disk: &MemoStore,
    checker: &mut Checker,
) -> Result<(RunReport, EngineCounters, Arc<String>, usize), String> {
    tr.span("apps.workload_build", req, |_| {
        drop(std::hint::black_box(job.spec.workload.build()))
    });
    let canon = tr.span("serve.spec.canonical", req, |_| job.spec.canonical_bytes());
    let key = tr.span("serve.spec.hash", req, |_| {
        MemoKey(fnv1a64(canon.as_bytes()))
    });
    let exec_span = tr.spans().len();
    let (report, counters) = tr.span("sim.execute", req, |_| job.spec.execute_counted());
    tr.set_args(
        exec_span,
        format!(
            "{{\"events\":{},\"compute_events\":{},\"protocol_events\":{},\"heartbeat_events\":{},\"ff_hits\":{},\"ff_fallbacks\":{},\"iters\":{},\"syncs\":{},\"control_messages\":{},\"transfer_messages\":{}}}",
            counters.events,
            counters.compute_events,
            counters.protocol_events,
            counters.heartbeat_events,
            counters.episodes_fast_forwarded,
            counters.episodes_fallback,
            report.total_iters,
            report.stats.syncs,
            report.stats.control_messages,
            report.stats.transfer_messages
        ),
    );
    let bytes = Arc::new(tr.span("serve.report.serialize", req, |_| {
        serde_json::to_string(&report).expect("reports always serialize")
    }));
    tr.span("serve.memo.put_memory", req, |_| {
        mem.put_memory(key, Arc::clone(&bytes))
    });
    tr.span("serve.memo.put_disk", req, |_| disk.put_disk(key, &bytes));
    let from_memory = tr.span("serve.memo.get_memory", req, |_| mem.get(key));
    let from_disk = tr.span("serve.memo.get_disk", req, |_| disk.get(key));
    let parsed = tr.span("serve.report.deserialize", req, |_| check::parse(&bytes))?;
    let verdict = match job.decide {
        Some(m) => tr.span("model.choose_strategy", req, |_| {
            check::decide(&round.models[m], job)
        }),
        None => Ok(()),
    };
    tr.span("check", req, |_| {
        checker.check(i, job, &bytes, &parsed, Served::Simulated, None)
    })?;
    verdict?;
    if from_memory.map(|(b, _)| b) != Some(Arc::clone(&bytes)) {
        return Err("memory tier returned other bytes".into());
    }
    if from_disk.map(|(b, _)| b) != Some(Arc::clone(&bytes)) {
        return Err("disk tier returned other bytes".into());
    }
    Ok((report, counters, bytes, canon.len()))
}

/// Per-layer aggregates of the direct pass.
#[derive(Default)]
struct Direct {
    rounds: u64,
    wall_ns: u64,
    /// `costs[round][request]`.
    costs: Vec<Vec<Costs>>,
    counts0: Counts,
    digests0: Vec<u32>,
    canonical_bytes0: u64,
    report_bytes0: u64,
    /// `(runs, ns)` of `sim.execute` per `<kind>.p<P>` cell.
    exec: BTreeMap<String, (u64, u64)>,
    exec_ns: u64,
    events: u64,
    gd_exec_ns: u64,
    gd_control: u64,
}

fn direct_pass(
    tr: &mut Tracer,
    w: Workload,
    seed: u64,
    budget: Duration,
    dir: &Path,
    progress: &AtomicU64,
    pass: &mut Pass,
) -> Direct {
    let mut d = Direct::default();
    let start = Instant::now();
    let mut req = 0u64;
    while d.rounds == 0 || start.elapsed() < budget {
        let r = d.rounds;
        let round = tr.span("gen.round", 0, |tr| gen::round(w, seed, r, tr));
        let mem = MemoStore::new(MemoConfig::memory_only());
        let disk = MemoStore::new(MemoConfig {
            memory: false,
            disk_dir: Some(dir.to_path_buf()),
        });
        let mut checker = Checker::new(if r == 0 {
            golden::round0(w, seed)
        } else {
            None
        });
        let mut costs = Vec::with_capacity(round.jobs.len());
        for (i, job) in round.jobs.iter().enumerate() {
            req += 1;
            let root = tr.spans().len();
            let res = tr.span("request", req, |tr| {
                direct_request(tr, req, i, job, &round, &mem, &disk, &mut checker)
            });
            costs.push(costs_under(tr, root));
            progress.fetch_add(1, Ordering::Relaxed);
            pass.attempted += 1;
            let exec_ns = tr.spans()[root + 1..]
                .iter()
                .find(|s| s.parent == Some(root) && s.name == "sim.execute")
                .map_or(0, |s| s.dur());
            match res {
                Ok((report, counters, bytes, canon_len)) => {
                    let e = d.exec.entry(job.cell.clone()).or_default();
                    e.0 += 1;
                    e.1 += exec_ns;
                    d.exec_ns += exec_ns;
                    d.events += counters.events;
                    if job.cell.starts_with("gd.") {
                        d.gd_exec_ns += exec_ns;
                        d.gd_control += report.stats.control_messages;
                    }
                    if r == 0 {
                        d.counts0.add(&report, &counters);
                        d.digests0.push(check::digest(&bytes));
                        d.canonical_bytes0 += canon_len as u64;
                        d.report_bytes0 += bytes.len() as u64;
                    }
                }
                Err(e) => {
                    pass.fail(format!("direct round {r} request {i} ({}): {e}", job.cell));
                    if r == 0 {
                        d.digests0.push(0);
                    }
                }
            }
        }
        d.costs.push(costs);
        tr.span("cleanup", 0, |_| {
            drop((mem, disk));
            let _ = std::fs::remove_dir_all(dir);
        });
        d.rounds += 1;
    }
    d.wall_ns = start.elapsed().as_nanos() as u64;
    d
}

/// Serve the same rounds the direct pass ran (memo-replay: that many
/// replay passes over the memo at `dir`). Returns the wall time.
fn server_pass(
    lp: &mut Loop<'_>,
    w: Workload,
    seed: u64,
    rounds: u64,
    setup: &Setup,
    dir: &Path,
    pass: &mut Pass,
) -> f64 {
    let threads = lp.depth;
    let start = Instant::now();
    if w == Workload::MemoReplay {
        for _ in 0..rounds {
            load::replay_pass(lp, setup, dir, threads, None, pass);
        }
    } else {
        for r in 0..rounds {
            let round = gen::round(w, seed, r, &mut Tracer::off());
            let server = load::memory_server(threads);
            load::grid_round(lp, w, seed, r, &round, &server, None, pass);
        }
    }
    start.elapsed().as_secs_f64()
}

/// Per-layer metrics that only chaos moves: no other workload has a
/// fault plan, heartbeats or an adaptive run, so elsewhere they read 0.
/// They are printed on chaos alone, and `BENCHMARK.json` declares them
/// once it declares chaos.
const CHAOS_ONLY: [&str; 13] = [
    "sim.execute_us.adaptive.p4",
    "sim.execute_us.adaptive.p16",
    "sim.events.heartbeat",
    "sim.ff.fallback.fault",
    "sim.ff.fallback.delay",
    "sim.ff.fallback.switch",
    "sim.adaptive.decisions",
    "sim.adaptive.switches",
    "fault.retries",
    "fault.detections",
    "fault.heartbeat_sweeps",
    "fault.rejoins",
    "fault.stale_dropped",
];

/// The per-layer metric names `w` prints, in output order, with units.
/// Cells not run by a workload read 0.
fn per_layer_names(w: Workload) -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = [
        ("serve.spec.canonical_us", "us"),
        ("serve.spec.canonical_bytes", "bytes"),
        ("serve.spec.hash_us", "us"),
        ("serve.report.serialize_us", "us"),
        ("serve.report.deserialize_us", "us"),
        ("serve.report.bytes", "bytes"),
        ("serve.memo.get_memory_us", "us"),
        ("serve.memo.get_disk_us", "us"),
        ("serve.memo.put_disk_us", "us"),
        ("serve.memo.hit_ratio", "ratio"),
        ("serve.server.residual_us", "us"),
        ("serve.server.pool_speedup", "x"),
    ]
    .into_iter()
    .map(|(n, u)| (n.to_string(), u))
    .collect();
    for cell in exec_cells() {
        v.push((format!("sim.execute_us.{cell}"), "us"));
    }
    v.push(("sim.us_per_event".into(), "us"));
    v.push(("sim.ff.hit_ratio".into(), "ratio"));
    v.push(("net.us_per_control_message".into(), "us"));
    for (n, u) in [
        ("model.choose_strategy_us", "us"),
        ("apps.workload_build_us", "us"),
        ("core.cost_index_build_us", "us"),
        ("load.cluster_build_us", "us"),
    ] {
        v.push((n.into(), u));
    }
    for (n, _) in Counts::default().metrics() {
        v.push((
            n.into(),
            if n == "net.bytes_moved" {
                "bytes"
            } else {
                "count"
            },
        ));
    }
    for (n, u) in [
        ("trace.overhead_pct", "%"),
        ("trace.accounted_ratio", "ratio"),
        ("trace.unattributed_share", "ratio"),
    ] {
        v.push((n.into(), u));
    }
    if w != Workload::Chaos {
        v.retain(|(n, _)| !CHAOS_ONLY.contains(&n.as_str()));
    }
    v
}

/// Every `<kind>.p<P>` cell some workload runs.
fn exec_cells() -> Vec<String> {
    let mut cells = Vec::new();
    for p in [4, 16] {
        for k in ["nodlb", "gc", "gd", "lc", "ld", "adaptive"] {
            cells.push(format!("{k}.p{p}"));
        }
    }
    for k in ["nodlb", "gc", "gd", "lc", "ld"] {
        cells.push(format!("{k}.p1024"));
    }
    for k in ["nodlb", "gc", "lc", "ld"] {
        cells.push(format!("{k}.p4096"));
    }
    cells
}

/// Longest direct pass: enough rounds for steady per-call means while
/// the trace stays a few tens of MB.
const DIRECT_MAX_S: f64 = 4.0;

/// The traced run: a direct pass over the layers' public functions,
/// then the same work through the server untraced and traced.
pub fn traced(
    w: Workload,
    seed: u64,
    seconds: u64,
    out: &Path,
    progress: &AtomicU64,
    host_json: &str,
) -> Outcome {
    let threads = host::nproc();
    let grid = w.grid();
    let pid = std::process::id();
    let mut total = Pass::default();
    let mut errors = Vec::new();

    // 1. Direct pass: one thread, each layer called per spec.
    let mut tr = Tracer::on();
    let budget = Duration::from_secs_f64((seconds as f64 * 0.4).min(DIRECT_MAX_S));
    let direct_dir = out.join(format!("direct-memo-{pid}"));
    let d = direct_pass(
        &mut tr,
        grid,
        seed,
        budget,
        &direct_dir,
        progress,
        &mut total,
    );
    // memo-replay replays round 0 only.
    let rounds = d.rounds;

    // 2. The same work through the server, untraced.
    let memo_dir = out.join(format!("memo-{pid}"));
    let mut lp = Loop::new(threads, progress, Tracer::off());
    let mut populate = Pass::default();
    let t = Instant::now();
    let setup = load::setup(&mut lp, w, seed, threads, &mut populate);
    let populate_s = t.elapsed().as_secs_f64();
    total.absorb(&populate);
    if w == Workload::MemoReplay {
        load::write_disk_memo(&setup, &memo_dir);
    }
    let mut untraced = Pass::default();
    let wall2 = server_pass(&mut lp, w, seed, rounds, &setup, &memo_dir, &mut untraced);
    total.absorb(&untraced);

    // 3. And traced: one span per request.
    let spans_before = tr.spans().len();
    let mut lp = Loop::new(threads, progress, tr);
    let mut traced = Pass::default();
    let wall3 = server_pass(&mut lp, w, seed, rounds, &setup, &memo_dir, &mut traced);
    total.absorb(&traced);
    let tr = lp.tracer;
    drop(setup);
    let _ = std::fs::remove_dir_all(&memo_dir);

    // Exact counts repeat between the direct calls and the server path.
    let server_counts = if w == Workload::MemoReplay {
        &populate
    } else {
        &untraced
    };
    if server_counts.counts != d.counts0 {
        errors.push(format!(
            "round-0 counts differ: direct {} / server {}",
            d.counts0.line(),
            server_counts.counts.line()
        ));
    }
    if w != Workload::MemoReplay && traced.counts != untraced.counts {
        errors.push("round-0 counts differ between the traced and untraced server passes".into());
    }
    if server_counts.digests != d.digests0 {
        errors.push("round-0 report bytes differ between direct calls and the server".into());
    }

    // Residual: server-path latency minus the direct layer calls for
    // the same spec, matched in submit order.
    let expected: Vec<u64> = if w == Workload::MemoReplay {
        let disk = d.costs[0].iter().map(|c| c.disk);
        let memory = d.costs[0].iter().map(|c| c.memory);
        let one: Vec<u64> = disk.chain(memory).collect();
        (0..rounds).flat_map(|_| one.iter().copied()).collect()
    } else {
        d.costs.iter().flatten().map(|c| c.sim).collect()
    };
    let mut residual: Vec<f64> = tr.spans()[spans_before..]
        .iter()
        .filter(|s| s.name == "serve.request")
        .zip(&expected)
        .map(|(s, &cost)| (s.dur() as f64 - cost as f64) / 1e3)
        .collect();
    let residual_us = stats::median(&mut residual);
    // Serial direct execution over the pooled pass of the same specs:
    // memo-replay's pool simulates round 0 in its set-up.
    let (serial, pooled_s) = if w == Workload::MemoReplay {
        (&d.costs[..1], populate_s)
    } else {
        (&d.costs[..], wall2)
    };
    let serial_ns: u64 = serial.iter().flatten().map(|c| c.worker).sum();

    // Self time per layer over the direct pass.
    let by = tr.self_by_name();
    let direct_spans = &tr.spans()[..spans_before];
    let self_ns = tr.self_times();
    let top: u64 = direct_spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.dur())
        .sum();
    let (req_self, req_dur) = direct_spans
        .iter()
        .zip(&self_ns)
        .filter(|(s, _)| s.name == "request")
        .fold((0u64, 0u64), |(a, b), (s, t)| (a + t, b + s.dur()));
    let mean_us = |name: &str| {
        by.get(name)
            .map_or(0.0, |&(n, ns)| ns as f64 / 1e3 / n.max(1) as f64)
    };
    let runs0 = d.counts0.runs.max(1) as f64;
    let memo = traced.memo;
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    for (name, span) in [
        ("serve.spec.canonical_us", "serve.spec.canonical"),
        ("serve.spec.hash_us", "serve.spec.hash"),
        ("serve.report.serialize_us", "serve.report.serialize"),
        ("serve.report.deserialize_us", "serve.report.deserialize"),
        ("serve.memo.get_memory_us", "serve.memo.get_memory"),
        ("serve.memo.get_disk_us", "serve.memo.get_disk"),
        ("serve.memo.put_disk_us", "serve.memo.put_disk"),
        ("model.choose_strategy_us", "model.choose_strategy"),
        ("apps.workload_build_us", "apps.workload_build"),
        ("core.cost_index_build_us", "core.cost_index_build"),
        ("load.cluster_build_us", "load.cluster_build"),
    ] {
        m.insert(name.into(), mean_us(span));
    }
    m.insert(
        "serve.spec.canonical_bytes".into(),
        d.canonical_bytes0 as f64 / runs0,
    );
    m.insert("serve.report.bytes".into(), d.report_bytes0 as f64 / runs0);
    m.insert(
        "serve.memo.hit_ratio".into(),
        memo.hits() as f64 / memo.requests().max(1) as f64,
    );
    m.insert("serve.server.residual_us".into(), residual_us);
    m.insert(
        "serve.server.pool_speedup".into(),
        serial_ns as f64 / 1e9 / pooled_s.max(1e-9),
    );
    for cell in exec_cells() {
        let v = d
            .exec
            .get(&cell)
            .map_or(0.0, |&(n, ns)| ns as f64 / 1e3 / n as f64);
        m.insert(format!("sim.execute_us.{cell}"), v);
    }
    m.insert(
        "sim.us_per_event".into(),
        d.exec_ns as f64 / 1e3 / d.events.max(1) as f64,
    );
    let c = &d.counts0;
    m.insert(
        "sim.ff.hit_ratio".into(),
        c.ff_hits as f64 / (c.ff_hits + c.ff_fallbacks).max(1) as f64,
    );
    m.insert(
        "net.us_per_control_message".into(),
        d.gd_exec_ns as f64 / 1e3 / d.gd_control.max(1) as f64,
    );
    for (n, v) in c.metrics() {
        m.insert(n.into(), v as f64);
    }
    m.insert(
        "trace.overhead_pct".into(),
        (wall3 - wall2) / wall2.max(1e-9) * 100.0,
    );
    m.insert(
        "trace.accounted_ratio".into(),
        top as f64 / d.wall_ns.max(1) as f64,
    );
    m.insert(
        "trace.unattributed_share".into(),
        req_self as f64 / req_dur.max(1) as f64,
    );

    let metrics = per_layer_names(w)
        .into_iter()
        .map(|(n, u)| {
            let v = m.get(&n).copied().unwrap_or(0.0);
            (n, v, u)
        })
        .collect();

    let mut notes = Vec::new();
    count_notes(&mut notes, w, seed, &d.counts0, &d.digests0);
    notes.push(format!(
        "direct pass: {rounds} round(s), {:.3} s; server pass {wall2:.3} s untraced, {wall3:.3} s traced; {threads} workers",
        d.wall_ns as f64 / 1e9
    ));
    notes.push(format!(
        "bases: serve.memo.hit_ratio of {} lookups; sim.ff.hit_ratio of {} attempts; pool_speedup with {threads} workers; {} spans",
        memo.requests(),
        c.ff_hits + c.ff_fallbacks,
        tr.spans().len()
    ));
    let stem = format!("{}-seed{seed}", w.name());
    let jsonl = out.join(format!("{stem}.spans.jsonl"));
    let chrome = out.join(format!("{stem}.chrome.json"));
    match tr.write(&jsonl, &chrome, host_json) {
        Ok(()) => notes.push(format!(
            "trace: {} and {}",
            jsonl.display(),
            chrome.display()
        )),
        Err(e) => errors.push(format!("writing the trace failed: {e}")),
    }
    Outcome {
        attempted: total.attempted,
        failed: total.failed,
        errors,
        failures: total.failures,
        metrics,
        notes,
    }
}
