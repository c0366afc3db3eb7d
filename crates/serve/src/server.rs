//! The run-server: a pool of worker threads behind the two-tier memo,
//! with single-flight deduplication.
//!
//! Clients open a [`ServeClient`] and [`submit`](ServeClient::submit)
//! [`RunSpec`]s; responses come back **in request order per client**,
//! each carrying the serialized `RunReport` bytes and where they came
//! from ([`Served`]). The fast path — a memory-tier hit — never crosses
//! a channel: `submit` resolves it inline and queues the bytes on the
//! client, which is what makes warm-hit latency microseconds rather
//! than a thread round-trip.
//!
//! ## Single-flight protocol
//!
//! Concurrent misses on one key must simulate **exactly once**. The
//! invariant is kept by a single mutex over the in-flight table:
//!
//! 1. `submit` misses the memo, locks `inflight`, and re-checks the
//!    memory tier *under the lock* (a worker may have published between
//!    the unlocked probe and the lock).
//! 2. Still absent: if the key is already in flight, push this client's
//!    reply sender onto the waiter list (a *coalesced* request — no
//!    job is queued). Otherwise insert an empty waiter list and queue
//!    one job (the *leader*).
//! 3. The worker simulates and serializes outside any lock, writes the
//!    disk tier, then — holding the `inflight` lock — publishes to the
//!    memory tier and removes the waiter list. Publishing and waiter
//!    removal under one critical section means every request either
//!    finds the bytes in the memo or finds the in-flight entry and
//!    joins it; there is no window to start a second simulation.
//! 4. Replies go to the leader and all waiters after the lock drops.
//!
//! A memo-disabled server (benchmarks timing the engine itself) skips
//! all of this: every submission queues a job with a direct reply
//! channel, so duplicates intentionally simulate again.

use std::collections::HashMap;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::memo::{MemoConfig, MemoStore, Tier};
use crate::spec::{MemoKey, RunSpec};
use now_sim::{EngineCounters, RunReport};

/// Where a response's bytes came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Served {
    /// Memory-tier memo hit; the engine was not invoked.
    Memory,
    /// Disk-tier memo hit (now promoted to memory); engine not invoked.
    Disk,
    /// This request led the single flight and ran the simulation.
    Simulated,
    /// Another in-flight request for the same key ran the simulation;
    /// this one waited and shares its bytes.
    Coalesced,
}

/// One answer from the server.
#[derive(Debug, Clone)]
pub struct ServeResponse {
    /// Serialized `RunReport` (exactly the bytes in the memo tiers).
    pub bytes: Arc<String>,
    /// Engine heap-event counters — only present when this very
    /// response ran the simulation (`source == Served::Simulated`).
    pub counters: Option<EngineCounters>,
    pub source: Served,
}

impl ServeResponse {
    /// Deserialize the report (hot paths keep the bytes instead).
    pub fn report(&self) -> RunReport {
        serde_json::from_str(&self.bytes).expect("served bytes always parse")
    }
}

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads. Defaults to `DLB_SERVE_THREADS`, else the
    /// machine's available parallelism.
    pub threads: usize,
    pub memo: MemoConfig,
}

impl ServeConfig {
    pub fn from_env() -> Self {
        let threads = std::env::var("DLB_SERVE_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&n| n > 0)
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            });
        Self {
            threads,
            memo: MemoConfig::from_env(),
        }
    }

    /// `threads` workers over the given memo tiers.
    pub fn new(threads: usize, memo: MemoConfig) -> Self {
        assert!(threads > 0, "server needs at least one worker");
        Self { threads, memo }
    }
}

/// Aggregate request statistics (monotonic; read with [`ServeStats::snapshot`]).
#[derive(Debug, Default)]
pub struct ServeStats {
    pub memory_hits: AtomicU64,
    pub disk_hits: AtomicU64,
    pub misses: AtomicU64,
    pub coalesced: AtomicU64,
    /// Simulations actually executed — the single-flight proof counter:
    /// equals the number of *unique* missed keys, however many clients
    /// asked for them concurrently.
    pub simulations: AtomicU64,
}

/// A point-in-time copy of [`ServeStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    pub memory_hits: u64,
    pub disk_hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    pub simulations: u64,
}

impl StatsSnapshot {
    pub fn hits(&self) -> u64 {
        self.memory_hits + self.disk_hits
    }
    pub fn requests(&self) -> u64 {
        self.hits() + self.misses + self.coalesced
    }
}

impl ServeStats {
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            memory_hits: self.memory_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            simulations: self.simulations.load(Ordering::Relaxed),
        }
    }
}

/// A unit of work for the pool: simulate `spec` and either resolve a
/// single flight (`key`) or answer one direct channel (memo disabled).
struct Job {
    spec: RunSpec,
    key: MemoKey,
    /// Memo-disabled path: reply straight to the submitting client.
    direct: Option<Sender<ServeResponse>>,
}

struct Shared {
    memo: MemoStore,
    /// Keys currently being simulated → reply channels of coalesced
    /// waiters (the leader's channel is the first entry).
    inflight: Mutex<HashMap<u64, Vec<Sender<ServeResponse>>>>,
    stats: ServeStats,
}

impl Shared {
    fn execute(&self, job: Job) {
        // Simulate and serialize outside every lock — this is the slow
        // part, and other keys must keep flowing while it runs.
        let (report, counters) = job.spec.execute_counted();
        let mut bytes = serde_json::to_string(&report).expect("reports always serialize");
        // The writer grows its buffer by doubling; publish exactly the
        // bytes, since the memo keeps them for the server's lifetime.
        bytes.shrink_to_fit();
        let bytes = Arc::new(bytes);
        self.stats.simulations.fetch_add(1, Ordering::Relaxed);

        if let Some(direct) = job.direct {
            let _ = direct.send(ServeResponse {
                bytes,
                counters: Some(counters),
                source: Served::Simulated,
            });
            return;
        }

        // Disk write before publication: once a request can see the
        // memory entry, the persistent tier already has it.
        self.memo.put_disk(job.key, &bytes);

        // Publish to memory and claim the waiter list in ONE critical
        // section (see module docs, step 3).
        let waiters = {
            let mut inflight = self.inflight.lock().unwrap();
            self.memo.put_memory(job.key, Arc::clone(&bytes));
            inflight.remove(&job.key.0).unwrap_or_default()
        };
        let mut first = true;
        for tx in waiters {
            let _ = tx.send(ServeResponse {
                bytes: Arc::clone(&bytes),
                counters: if first { Some(counters) } else { None },
                source: if first {
                    Served::Simulated
                } else {
                    Served::Coalesced
                },
            });
            first = false;
        }
    }
}

/// The run-server. Create one with [`RunServer::new`] (or use the
/// process-wide [`crate::global`]); open per-thread clients with
/// [`RunServer::client`]. Dropping the server closes the queue and
/// joins the workers.
pub struct RunServer {
    shared: Arc<Shared>,
    tx: Mutex<Option<Sender<Job>>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl RunServer {
    pub fn new(cfg: ServeConfig) -> Self {
        assert!(cfg.threads > 0, "server needs at least one worker");
        let shared = Arc::new(Shared {
            memo: MemoStore::new(cfg.memo),
            inflight: Mutex::new(HashMap::new()),
            stats: ServeStats::default(),
        });
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..cfg.threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("now-serve-{i}"))
                    .spawn(move || loop {
                        // Hold the receiver lock only for the dequeue;
                        // execution runs unlocked so workers overlap.
                        let job = match rx.lock().unwrap().recv() {
                            Ok(job) => job,
                            Err(_) => return,
                        };
                        shared.execute(job);
                    })
                    .expect("spawn worker")
            })
            .collect();
        Self {
            shared,
            tx: Mutex::new(Some(tx)),
            workers,
            threads: cfg.threads,
        }
    }

    /// A server with the env-selected thread count and memo tiers.
    pub fn from_env() -> Self {
        Self::new(ServeConfig::from_env())
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Aggregate request statistics.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.stats.snapshot()
    }

    /// Entries resident in the memory memo tier.
    pub fn memo_len(&self) -> usize {
        self.shared.memo.memory_len()
    }

    /// Open a client. Clients are cheap; use one per submitting thread
    /// (responses arrive in that client's request order).
    pub fn client(&self) -> ServeClient {
        let tx = self
            .tx
            .lock()
            .unwrap()
            .as_ref()
            .expect("server already shut down")
            .clone();
        ServeClient {
            shared: Arc::clone(&self.shared),
            tx,
            pending: VecDeque::new(),
            last_key: None,
        }
    }

    /// Convenience: submit one spec and wait for its report.
    pub fn call(&self, spec: &RunSpec) -> RunReport {
        let mut c = self.client();
        c.submit(spec);
        c.recv()
    }
}

impl Drop for RunServer {
    fn drop(&mut self) {
        // Close the queue so idle workers see a disconnect...
        *self.tx.lock().unwrap() = None;
        // ...and wait for in-progress jobs to finish.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

enum PendingSlot {
    /// Resolved at submit time (memo hit).
    Ready(ServeResponse),
    /// Waiting on a worker.
    Wait(Receiver<ServeResponse>),
}

/// A client handle: submit specs, receive responses in the same order.
pub struct ServeClient {
    shared: Arc<Shared>,
    tx: Sender<Job>,
    pending: VecDeque<PendingSlot>,
    /// One-entry memo-key cache. Deriving the key means canonicalizing
    /// and serializing the whole spec — by far the dominant cost of a
    /// warm hit — and a client that re-submits the spec it just sent
    /// (polling, timing loops, probe-then-run patterns) shouldn't pay
    /// it twice. Sound because `RunSpec`'s derived `PartialEq` covers
    /// every field the canonical form reads.
    last_key: Option<(RunSpec, MemoKey)>,
}

impl ServeClient {
    /// Submit a spec. Returns immediately; the response is queued for
    /// [`recv_response`](ServeClient::recv_response) in submit order.
    pub fn submit(&mut self, spec: &RunSpec) {
        let key = match &self.last_key {
            Some((cached, key)) if cached == spec => *key,
            _ => {
                let key = spec.memo_key();
                self.last_key = Some((spec.clone(), key));
                key
            }
        };
        let stats = &self.shared.stats;

        if !self.shared.memo.config().enabled() {
            // Benchmark path: no dedup, every submission simulates.
            stats.misses.fetch_add(1, Ordering::Relaxed);
            let (rtx, rrx) = channel();
            self.send_job(Job {
                spec: spec.clone(),
                key,
                direct: Some(rtx),
            });
            self.pending.push_back(PendingSlot::Wait(rrx));
            return;
        }

        // Fast path: memo probe without the in-flight lock.
        if let Some((bytes, tier)) = self.shared.memo.get(key) {
            let source = match tier {
                Tier::Memory => {
                    stats.memory_hits.fetch_add(1, Ordering::Relaxed);
                    Served::Memory
                }
                Tier::Disk => {
                    stats.disk_hits.fetch_add(1, Ordering::Relaxed);
                    Served::Disk
                }
            };
            self.pending.push_back(PendingSlot::Ready(ServeResponse {
                bytes,
                counters: None,
                source,
            }));
            return;
        }

        let (rtx, rrx) = channel();
        let lead = {
            let mut inflight = self.shared.inflight.lock().unwrap();
            // Re-check under the lock: a worker may have published
            // since the probe above (its publication also holds this
            // lock, so the two cannot interleave).
            if let Some(bytes) = self.shared.memo.peek_memory(key) {
                stats.memory_hits.fetch_add(1, Ordering::Relaxed);
                self.pending.push_back(PendingSlot::Ready(ServeResponse {
                    bytes,
                    counters: None,
                    source: Served::Memory,
                }));
                return;
            }
            match inflight.entry(key.0) {
                std::collections::hash_map::Entry::Occupied(mut e) => {
                    stats.coalesced.fetch_add(1, Ordering::Relaxed);
                    e.get_mut().push(rtx);
                    false
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    stats.misses.fetch_add(1, Ordering::Relaxed);
                    e.insert(vec![rtx]);
                    true
                }
            }
        };
        if lead {
            self.send_job(Job {
                spec: spec.clone(),
                key,
                direct: None,
            });
        }
        self.pending.push_back(PendingSlot::Wait(rrx));
    }

    fn send_job(&self, job: Job) {
        self.tx.send(job).expect("server workers alive");
    }

    /// Outstanding responses not yet received.
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Next response, in submit order. Blocks until ready.
    ///
    /// # Panics
    /// Panics if nothing is pending.
    pub fn recv_response(&mut self) -> ServeResponse {
        match self.pending.pop_front().expect("no pending request") {
            PendingSlot::Ready(r) => r,
            PendingSlot::Wait(rx) => rx.recv().expect("worker never drops a flight"),
        }
    }

    /// Next response's report, in submit order.
    pub fn recv(&mut self) -> RunReport {
        self.recv_response().report()
    }

    /// Submit one spec and wait for its report (keeps order with any
    /// already-pending submissions).
    pub fn call(&mut self, spec: &RunSpec) -> RunReport {
        self.submit(spec);
        // Drain everything queued before this call, then answer it.
        while self.pending.len() > 1 {
            let front = self.recv_response();
            drop(front);
        }
        self.recv()
    }
}
