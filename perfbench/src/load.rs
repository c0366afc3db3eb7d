//! Closed-loop load generation through the run server.
//!
//! One process, one `ServeClient` per server, `depth` requests
//! outstanding: each of `depth` virtual callers submits, waits for its
//! checked reply, and submits again. Latency runs from submit to the
//! checked report.

use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use now_serve::{MemoConfig, MemoStore, RunServer, ServeConfig, Served, StatsSnapshot};

use crate::check::{self, Checker, Counts, Replay};
use crate::gen::{self, Job, ModelCell, Round, Workload};
use crate::golden;
use crate::stats::Windows;
use crate::trace::Tracer;

/// Callers and server workers of the untraced run. One, not the
/// machine's parallelism: on a two-vCPU host whose second vCPU adds
/// little capacity, paper-grid's `runs_per_s` spread 0.42 over ten 30-s
/// runs with two callers on two workers, and 0.14–0.15 with one on one.
/// The pool's parallel gain is the traced run's
/// `serve.server.pool_speedup`.
pub const CALLERS: usize = 1;

/// Failure messages printed per run; the rest are only counted.
const MAX_REPORTED: usize = 10;

/// Set-ups per run: at least `SETUP_MIN_REPS`, and more until they
/// have taken `SETUP_MIN_TIME` (capped at `SETUP_MAX_REPS`), so that a
/// sub-millisecond set-up is still a steady median.
pub const SETUP_MIN_REPS: usize = 5;
pub const SETUP_MAX_REPS: usize = 1000;
pub const SETUP_MIN_TIME: std::time::Duration = std::time::Duration::from_secs(1);

/// Results of serving requests, accumulated over passes.
#[derive(Default)]
pub struct Pass {
    /// Latencies by completion window (the timed phase only).
    pub windows: Option<Windows>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Work counts of the responses that ran a simulation.
    pub counts: Counts,
    /// Per-request digests, in submit order.
    pub digests: Vec<u32>,
    /// Served bytes, in submit order (kept when asked for).
    pub bytes: Vec<Arc<String>>,
    pub memo: StatsSnapshot,
}

impl Pass {
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_REPORTED {
            self.failures.push(what);
        }
    }

    /// Add another pass's request and failure counts.
    pub fn absorb(&mut self, other: &Pass) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in &other.failures {
            if self.failures.len() < MAX_REPORTED {
                self.failures.push(f.clone());
            }
        }
    }

    /// Add a finished server's memo counters.
    pub fn add_stats(&mut self, s: StatsSnapshot) {
        self.memo.memory_hits += s.memory_hits;
        self.memo.disk_hits += s.disk_hits;
        self.memo.misses += s.misses;
        self.memo.coalesced += s.coalesced;
        self.memo.simulations += s.simulations;
    }
}

/// What one closed-loop pass over a list of jobs records.
pub struct Serve<'a> {
    pub jobs: &'a [Job],
    /// Model cells for jobs that ask for a decision (`None` skips them).
    pub models: Option<&'a [ModelCell]>,
    /// Expected replayed answers, by job index.
    pub replay: Option<&'a [Replay]>,
    pub golden: Option<Vec<u32>>,
    /// Stop submitting at this instant (outstanding requests drain).
    pub deadline: Option<Instant>,
    /// Record counts, digests and bytes (round 0).
    pub record: bool,
    pub label: &'a str,
}

/// Shared knobs of every pass in a run.
pub struct Loop<'a> {
    pub depth: usize,
    /// Bumped on every answered request; the liveness watchdog reads it.
    pub progress: &'a AtomicU64,
    pub tracer: Tracer,
    next_req: u64,
}

impl<'a> Loop<'a> {
    pub fn new(depth: usize, progress: &'a AtomicU64, tracer: Tracer) -> Self {
        Self {
            depth,
            progress,
            tracer,
            next_req: 0,
        }
    }

    /// Serve `s.jobs` through `server`, closed-loop. Returns whether
    /// every job was submitted (false when the deadline cut the pass).
    pub fn serve(&mut self, server: &RunServer, s: Serve<'_>, pass: &mut Pass) -> bool {
        let mut client = server.client();
        let mut checker = Checker::new(s.golden);
        // (job index, request id, submit instant, model verdict)
        let mut inflight: VecDeque<(usize, u64, Instant, Result<(), String>)> = VecDeque::new();
        let mut next = 0;
        loop {
            while inflight.len() < self.depth
                && next < s.jobs.len()
                && s.deadline.is_none_or(|d| Instant::now() < d)
            {
                let job = &s.jobs[next];
                self.next_req += 1;
                let t0 = Instant::now();
                client.submit(&job.spec);
                // The figure binaries compute each replica's decision
                // while the server works on its runs.
                let verdict = match (s.models, job.decide) {
                    (Some(m), Some(i)) => check::decide(&m[i], job),
                    _ => Ok(()),
                };
                inflight.push_back((next, self.next_req, t0, verdict));
                next += 1;
            }
            let Some((i, req, t0, verdict)) = inflight.pop_front() else {
                break;
            };
            let resp = client.recv_response();
            let job = &s.jobs[i];
            let outcome = check::parse(&resp.bytes).and_then(|report| {
                let replay = s.replay.map(|r| &r[i]);
                checker.check(i, job, &resp.bytes, &report, resp.source, replay)?;
                verdict?;
                if s.record {
                    if let Some(c) = &resp.counters {
                        pass.counts.add(&report, c);
                    }
                }
                Ok(())
            });
            let t1 = Instant::now();
            self.tracer.record("serve.request", req, t0, t1);
            self.progress.fetch_add(1, Ordering::Relaxed);
            pass.attempted += 1;
            if let Some(w) = &mut pass.windows {
                w.add(t1, (t1 - t0).as_secs_f64() * 1e6);
            }
            if let Err(e) = outcome {
                pass.fail(format!("{} request {i} ({}): {e}", s.label, job.cell));
            }
            if s.record {
                pass.digests.push(check::digest(&resp.bytes));
                pass.bytes.push(Arc::clone(&resp.bytes));
            }
        }
        next == s.jobs.len()
    }
}

/// A server with `threads` workers and a memory-only memo.
pub fn memory_server(threads: usize) -> RunServer {
    RunServer::new(ServeConfig::new(threads, MemoConfig::memory_only()))
}

/// A server with `threads` workers over a disk memo at `dir`.
pub fn disk_server(threads: usize, dir: &Path) -> RunServer {
    RunServer::new(ServeConfig::new(threads, MemoConfig::disk(dir)))
}

/// State set-up leaves for the timed phase.
pub struct Setup {
    pub round0: Round,
    pub server: RunServer,
    /// memo-replay: the expected answers of the disk pass and the
    /// memory pass.
    pub replay: Option<(Vec<Replay>, Vec<Replay>)>,
}

/// One set-up: generate round 0 and start the server; for memo-replay,
/// also simulate the grid into the server's memory tier, served (and
/// checked) into `pass`. The disk memo is written afterwards by
/// [`write_disk_memo`], outside the timed set-up.
pub fn setup(lp: &mut Loop<'_>, w: Workload, seed: u64, threads: usize, pass: &mut Pass) -> Setup {
    let round0 = gen::round(w, seed, 0, &mut Tracer::off());
    let server = memory_server(threads);
    if w != Workload::MemoReplay {
        return Setup {
            round0,
            server,
            replay: None,
        };
    }
    lp.serve(
        &server,
        Serve {
            jobs: &round0.jobs,
            models: None,
            replay: None,
            golden: golden::round0(Workload::PaperGrid, seed),
            deadline: None,
            record: true,
            label: "populate",
        },
        pass,
    );
    pass.add_stats(server.stats());
    let expect = |source| {
        pass.bytes
            .iter()
            .map(|b| Replay {
                bytes: Arc::clone(b),
                source,
            })
            .collect::<Vec<_>>()
    };
    let replay = Some((expect(Served::Disk), expect(Served::Memory)));
    Setup {
        round0,
        server,
        replay,
    }
}

/// Write memo-replay's populated grid into a fresh disk memo at `dir`,
/// entry by entry as a disk-memo server stores a miss. Not part of
/// `setup_s`: each entry is fsync'd, and on a shared virtual disk the
/// time of 500 of them grew from 0.1 s to 0.5 s over a minute of
/// sustained writes and did not recover within another minute idle, so
/// it would measure the disk's history rather than the program. The
/// write's cost is the traced run's `serve.memo.put_disk_us`.
pub fn write_disk_memo(setup: &Setup, dir: &Path) {
    let (_, memory) = setup.replay.as_ref().expect("memo-replay set-up");
    let _ = std::fs::remove_dir_all(dir);
    let disk = MemoStore::new(MemoConfig {
        memory: false,
        disk_dir: Some(dir.to_path_buf()),
    });
    for (job, answer) in setup.round0.jobs.iter().zip(memory) {
        disk.put_disk(job.spec.memo_key(), &answer.bytes);
    }
}

/// Serve one memo-replay pass: a fresh server on the memo directory
/// `dir` answers the grid from disk, then again from memory.
pub fn replay_pass(
    lp: &mut Loop<'_>,
    setup: &Setup,
    dir: &Path,
    threads: usize,
    deadline: Option<Instant>,
    pass: &mut Pass,
) -> bool {
    let (disk, memory) = setup.replay.as_ref().expect("memo-replay set-up");
    let server = disk_server(threads, dir);
    let mut whole = true;
    for (expect, label) in [(disk, "replay-disk"), (memory, "replay-memory")] {
        whole &= lp.serve(
            &server,
            Serve {
                jobs: &setup.round0.jobs,
                models: None,
                replay: Some(expect),
                golden: None,
                deadline,
                record: false,
                label,
            },
            pass,
        );
    }
    pass.add_stats(server.stats());
    whole
}

/// Serve round `r` (round 0 is the set-up's) on a fresh memory-only
/// server, recording counts and digests for round 0.
#[allow(clippy::too_many_arguments)]
pub fn grid_round(
    lp: &mut Loop<'_>,
    w: Workload,
    seed: u64,
    r: u64,
    round: &Round,
    server: &RunServer,
    deadline: Option<Instant>,
    pass: &mut Pass,
) -> bool {
    let label = format!("round {r}");
    let whole = lp.serve(
        server,
        Serve {
            jobs: &round.jobs,
            models: Some(&round.models),
            replay: None,
            golden: if r == 0 {
                golden::round0(w, seed)
            } else {
                None
            },
            deadline: if r == 0 { None } else { deadline },
            record: r == 0,
            label: &label,
        },
        pass,
    );
    pass.add_stats(server.stats());
    whole
}
