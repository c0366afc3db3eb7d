//! The discrete-event engine: paper protocol over simulated workstations.
//!
//! Each processor executes its work queue with events at iteration
//! boundaries — the generated code checks for interrupts once per outer
//! iteration. By default the engine runs in **batched event-horizon mode**
//! ([`EngineMode::Batched`]): one `BlockDone` event covers a processor's
//! whole contiguous run of queued iterations, with every per-iteration
//! boundary time precomputed by replaying the exact per-iteration
//! arithmetic (so times are bit-identical to stepping one event per
//! iteration, which remains available as [`EngineMode::PerIter`] /
//! `DLB_ENGINE_MODE=per-iter`). Interrupts, crashes and stalls that land
//! mid-block preempt *lazily*: the engine settles the completed prefix at
//! the stored boundary and reschedules the remainder. The DLB protocol
//! runs exactly as in Section 3:
//!
//! * a processor that drains its queue *initiates* a synchronization for
//!   its group: it interrupts the other active members and submits its own
//!   profile;
//! * an interrupted processor finishes its current iteration, then sends
//!   its profile (to the master if centralized, to every group member if
//!   distributed) and blocks awaiting the outcome (Fig. 1);
//! * the balancer — the master, or every member in parallel — computes the
//!   new distribution after `calc_cost` seconds. The single LCDLB balancer
//!   serves groups FIFO, which *is* the paper's delay factor;
//! * centralized balancers send the outcome to the members; donors ship
//!   iterations (and `bytes_per_iter` of array data each) straight to
//!   receivers, who resume once they have collected what the new
//!   distribution owes them;
//! * a processor whose queue is empty after an episode leaves the
//!   computation (`dlb.more_work = false`), exactly the utilization loss
//!   the paper attributes to cancelled redistributions.

use crate::cluster::ClusterSpec;
use crate::heap::MinHeap;
use crate::report::{ProcSummary, RunReport};
use dlb_core::balance::{balance_group, BalanceOutcome, BalanceVerdict, IndexedOutcome};
use dlb_core::membership::Membership;
use dlb_core::profile::PerfProfile;
use dlb_core::recovery::split_ranges;
use dlb_core::strategy::{Control, StrategyConfig};
use dlb_core::work::LoopWorkload;
use dlb_core::workqueue::{ranges_len, WorkQueue};
use dlb_core::{Distribution, DlbStats, GroupTree};

use now_fault::{DetectionRecord, FailurePolicy, FaultPlan, FaultReport, RejoinRecord};
use now_load::{ClockCursor, WorkClock};
use now_net::MediumSim;
use serde::{Deserialize, Serialize};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;

mod adaptive;
mod ff;

/// Per-iteration work message header bytes (range descriptors etc.).
const WORK_HEADER_BYTES: usize = 16;
/// Interrupt message payload bytes.
const INTERRUPT_BYTES: usize = 8;
/// Instruction (outcome broadcast) payload bytes.
const INSTRUCTION_BYTES: usize = 24;
/// Rejoin handshake (§S14 request/grant) payload bytes.
const JOIN_BYTES: usize = 16;

#[derive(Debug, Clone)]
enum Payload {
    Interrupt {
        group: usize,
        /// Membership epoch at send time. Only consulted under adaptive
        /// re-customization (§S17): after a strategy switch the group
        /// structure itself changed, so an old-regime interrupt's group
        /// index is meaningless and the interrupt is dropped. Static
        /// runs ignore the field entirely (and [`INTERRUPT_BYTES`] is a
        /// constant, so carrying it never changes timing).
        epoch: u64,
    },
    Profile {
        group: usize,
        profile: PerfProfile,
        /// Id of the episode the profile was measured for. A watchdog
        /// retransmission duplicate that outlives its episode must not be
        /// recorded into the next one: the snapshot is stale (the sender
        /// has computed or shipped since), and a balancer planning from
        /// it can schedule transfers the donor no longer covers.
        episode: u64,
    },
    Instruction {
        group: usize,
        /// Shared, not cloned: the same computed outcome is broadcast to
        /// every participant, so the payload carries a cheap `Arc` handle
        /// instead of a deep copy of the transfer plan (or its index).
        outcome: Arc<IndexedOutcome>,
        /// Membership epoch at send time. A receiver discards any
        /// instruction stamped with an older epoch than its own view —
        /// the split-brain guard of DESIGN.md §S14: after a membership
        /// change (death or rejoin) every in-flight instruction from the
        /// stale view is dead on arrival, and the watchdog re-sends from
        /// the current view.
        epoch: u64,
        /// Id of the episode the outcome was computed for. A watchdog
        /// retransmission can race its original: the first copy acts and
        /// the episode closes, a *new* episode opens under the same
        /// membership view, and the duplicate then lands with an episode
        /// running and a current epoch — but its transfer plan belongs to
        /// the closed episode, so acting on it would ship work the donor
        /// queues no longer cover. The id mismatch drops it.
        episode: u64,
    },
    Work {
        group: usize,
        ranges: Vec<Range<u64>>,
    },
    /// §S14 rejoin handshake: a recovered processor announces itself to
    /// the current master. Control-plane: exempt from loss and link
    /// cuts (like the heartbeat oracle), but still costed and contended
    /// on the medium.
    JoinRequest { proc: usize },
    /// §S14 rejoin handshake: the master's admission, carrying the
    /// epoch-stamped membership view the newcomer joins under.
    JoinGrant { epoch: u64 },
}

/// How the engine steps compute work. See the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EngineMode {
    /// One `BlockDone` event per contiguous run of queued iterations;
    /// boundary times precomputed, preemption settled lazily. The default.
    Batched,
    /// One `IterDone` event per iteration — the reference path the batched
    /// mode is checked against byte-for-byte.
    PerIter,
    /// Batched compute **plus** episode fast-forward: a sync episode whose
    /// window contains no fault, no foreign event, and no work arrival is
    /// replayed analytically — every message through the exact
    /// [`now_net::EpisodeSchedule`] arithmetic, in event order — and
    /// settled in one step, emitting a single `EpisodeDone` event instead
    /// of O(P)..O(P²) per-message events. Anything interfering aborts the
    /// replay and that one episode falls back to the per-message path, so
    /// reports stay byte-identical to [`EngineMode::Batched`]. Heartbeat
    /// sweeps are coalesced to detection boundaries (see `ff.rs`).
    Episode,
}

impl EngineMode {
    /// `DLB_ENGINE_MODE=per-iter` selects the reference path,
    /// `DLB_ENGINE_MODE=episode` the fast-forward engine; anything else
    /// (including unset) selects batched execution.
    pub fn from_env() -> Self {
        match std::env::var("DLB_ENGINE_MODE") {
            Ok(v) if v == "per-iter" => EngineMode::PerIter,
            Ok(v) if v == "episode" => EngineMode::Episode,
            _ => EngineMode::Batched,
        }
    }
}

/// Counters the bench harness reads alongside the report.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineCounters {
    /// Total events pushed onto the heap over the run.
    pub events: u64,
    /// Compute stepping events (`IterDone`/`BlockDone`/`SettleCheck`).
    pub compute_events: u64,
    /// Heartbeat liveness sweeps.
    pub heartbeat_events: u64,
    /// Everything else: protocol messages, balancer calculations,
    /// watchdogs, crashes, periodic ticks, episode markers.
    pub protocol_events: u64,
    /// Sync episodes settled by the fast-forward path (Episode mode).
    pub episodes_fast_forwarded: u64,
    /// Fast-forward attempts that aborted back to per-message replay.
    pub episodes_fallback: u64,
    /// Fallbacks caused by a foreign event in the episode window (a
    /// non-participant delivery, a pending calc, stale protocol state,
    /// or a replay deadlock).
    pub ff_fallback_foreign: u64,
    /// Fallbacks caused by the fault plan: an undetected crash, or a
    /// replayed message the plan drops or cuts.
    pub ff_fallback_fault: u64,
    /// Fallbacks caused by delay inflation stretching the episode past
    /// its watchdog timeout.
    pub ff_fallback_delay: u64,
    /// Fallbacks forced after an adaptive strategy switch (§S17): the
    /// first episode of each re-seeded group replays per-message.
    pub ff_fallback_switch: u64,
}

/// Why a fast-forward attempt fell back to the per-message path —
/// feeds the per-reason [`EngineCounters`] fields.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum FallbackReason {
    /// Foreign event, stale protocol state, or replay deadlock.
    #[default]
    Foreign,
    /// Fault plan interference (undetected crash, drop, link cut).
    Fault,
    /// Delay inflation pushed the close past the watchdog timeout.
    Delay,
}

/// A scheduled contiguous run of iterations (batched mode only).
#[derive(Debug)]
struct BlockRun {
    /// First iteration index of the run.
    first: u64,
    /// Iterations already settled: counters updated, queue popped.
    done: u64,
    /// `boundaries[i]` = finish time of iteration `first + i`, computed by
    /// replaying the exact per-iteration chain (clock walk + stalls) at
    /// schedule time, so any settle point is bit-identical to the
    /// per-iteration engine's `IterDone` time.
    boundaries: Vec<f64>,
    /// Heap sequence number of the pending `BlockDone` for this run — the
    /// episode fast-forward seeds its replay with the real event's
    /// ordering key so exact-time ties resolve as the event loop would.
    seq: u64,
    /// When the block was scheduled — the tie anchor for its first
    /// iteration's boundary (see [`block_done_tie`]).
    started: f64,
}

#[derive(Debug)]
enum EvKind {
    IterDone {
        proc: usize,
        iter: u64,
    },
    /// Batched mode: the whole scheduled run of `proc` completes. Stale
    /// once the block epoch moves on (preemption, crash).
    BlockDone {
        proc: usize,
        epoch: u64,
    },
    /// Batched mode: `proc` was interrupted mid-block; react at this — its
    /// next — iteration boundary, like the per-iteration engine does.
    SettleCheck {
        proc: usize,
        epoch: u64,
    },
    Deliver {
        to: usize,
        payload: Payload,
    },
    CalcCentral {
        group: usize,
    },
    CalcLocal {
        group: usize,
        proc: usize,
    },
    /// Ablation A1.3: a periodic synchronization tick (Dome/Siegell-style
    /// periodic exchanges instead of receiver-initiated interrupts).
    PeriodicTick,
    /// Fault injection: processor `proc` dies (until a planned recovery,
    /// if any).
    Crash {
        proc: usize,
    },
    /// Fault injection: processor `proc` comes back up and starts the
    /// §S14 rejoin handshake.
    Recover {
        proc: usize,
    },
    /// §S14: a rejoining processor re-announces itself — its previous
    /// `JoinRequest` may have landed on a master that was already dead.
    JoinRetry {
        proc: usize,
    },
    /// Failure handling: liveness sweep over all groups.
    Heartbeat,
    /// Failure handling: episode watchdog — if episode `id` of `group` is
    /// still open when this fires, something went silent.
    Watchdog {
        group: usize,
        id: u64,
    },
    /// Episode mode: marker popped at a fast-forwarded episode's close.
    /// Deliberately a no-op — the episode's effects were committed when it
    /// was pushed — but it keeps the settled window visible on the heap
    /// (one event per episode instead of O(P²)).
    EpisodeDone {
        #[allow(dead_code)]
        group: usize,
    },
}

#[derive(Debug)]
struct Ev {
    time: f64,
    /// Same-time tie-break: the simulation moment the event was (or, for
    /// batched compute events, *would have been*) pushed. Within one
    /// engine mode `(time, tie, seq)` orders exactly like `(time, seq)`
    /// — `seq` grows monotonically with the push moment — but across
    /// modes it is what keeps coincident events aligned: the batched
    /// engine pushes a block's completion at schedule time and a settle
    /// check at interrupt-arrival time, while the per-iteration engine
    /// pushes the corresponding `IterDone` when that iteration *starts*
    /// (its previous boundary). Batched compute events therefore carry an
    /// explicit tie equal to that previous boundary, so two processors
    /// hitting profile boundaries at the same instant fire in the same
    /// order in every mode (the network medium is FCFS, so a swapped
    /// same-instant send order would diverge the whole run).
    tie: f64,
    /// Second-level tie-break: the owning processor for compute events
    /// (`IterDone`/`BlockDone`/`SettleCheck`), `u32::MAX` for everything
    /// else. `(time, tie)` alone is not collision-free: a mass resume
    /// (episode act or abort) restarts many processors at the same
    /// instant, and on a homogeneous cluster their next boundaries
    /// coincide in *both* components. `seq` would then decide — but
    /// `seq` is mode-local (the per-iteration engine pushes its
    /// `IterDone`s at the resume, the batched engine pushes `BlockDone`
    /// at schedule time and `SettleCheck`s at interrupt arrival), so the
    /// processors would profile in different orders and the FCFS medium
    /// would diverge the whole run. Ordering colliding compute events by
    /// processor id is mode-independent.
    pkey: u32,
    seq: u64,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.tie == other.tie
            && self.pkey == other.pkey
            && self.seq == other.seq
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.tie.total_cmp(&other.tie))
            .then(self.pkey.cmp(&other.pkey))
            .then(self.seq.cmp(&other.seq))
    }
}

/// The tie key of a block's pending `BlockDone` (see [`Ev::tie`]): the
/// per-iteration engine pushes the final iteration's completion at that
/// iteration's start — the penultimate boundary, or the moment the block
/// was scheduled when it holds a single iteration.
fn block_done_tie(boundaries: &[f64], started: f64) -> f64 {
    match boundaries.len() {
        0 | 1 => started,
        n => boundaries[n - 2],
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Executing an iteration.
    Computing,
    /// Profile sent, blocked until the balancer's outcome arrives.
    WaitOutcome,
    /// Outcome received; waiting for `expect` more iterations of work.
    WaitWork { expect: u64 },
    /// Queue drained while the group's episode is still closing; will
    /// initiate the next episode once it closes.
    IdlePending,
    /// Left the computation (`dlb.more_work = false`).
    Inactive,
    /// Recovered from a detected death; announced itself and awaits the
    /// master's `JoinGrant`. Excluded from episode participant selection
    /// (`active` stays false) until admitted at an episode boundary.
    Rejoining,
}

#[derive(Debug)]
struct Episode {
    /// Identity for watchdog staleness checks (monotonic per engine).
    id: u64,
    /// Member that started the episode (re-sends interrupts on retry).
    initiator: usize,
    /// Shared participant list: cloned once per protocol step in the old
    /// code, now a cheap `Arc` handle (`Arc::make_mut` on the rare
    /// membership-shrink path).
    participants: Arc<Vec<usize>>,
    /// Profiles gathered at the central balancer.
    central_profiles: BTreeMap<usize, PerfProfile>,
    /// Per-member profile collections (distributed schemes).
    local_profiles: BTreeMap<usize, BTreeMap<usize, PerfProfile>>,
    /// Members that have sent their profile.
    profiled: BTreeSet<usize>,
    /// What each member handed to the transport — the sender's copy,
    /// available for retransmission if the original is lost.
    sent_profiles: BTreeMap<usize, PerfProfile>,
    /// Members that have acted on the outcome.
    acted: BTreeSet<usize>,
    /// Members still owed work shipments.
    waiting_work: BTreeSet<usize>,
    /// Whether stats/sync-time were recorded for this episode.
    recorded: bool,
    /// The computed outcome (identical at every replicated balancer),
    /// kept for instruction retransmission and donor-death accounting.
    outcome: Option<Arc<IndexedOutcome>>,
    /// Guard against double-scheduling the central calculation when a
    /// retransmitted profile duplicates one that did arrive.
    calc_central_scheduled: bool,
    /// Same guard, per replicated balancer (distributed schemes).
    calc_scheduled: BTreeSet<usize>,
    /// Watchdog retransmission rounds consumed.
    attempts: u32,
}

impl Episode {
    fn new(id: u64, initiator: usize, participants: Vec<usize>) -> Self {
        Self {
            id,
            initiator,
            participants: Arc::new(participants),
            central_profiles: BTreeMap::new(),
            local_profiles: BTreeMap::new(),
            profiled: BTreeSet::new(),
            sent_profiles: BTreeMap::new(),
            acted: BTreeSet::new(),
            waiting_work: BTreeSet::new(),
            recorded: false,
            outcome: None,
            calc_central_scheduled: false,
            calc_scheduled: BTreeSet::new(),
            attempts: 0,
        }
    }
}

#[derive(Debug)]
struct GroupCtl {
    members: Vec<usize>,
    episode: Option<Episode>,
    pending_initiators: BTreeSet<usize>,
    /// Recovered members whose `JoinRequest` arrived while an episode
    /// was open; admitted when it closes ("the next episode boundary",
    /// §S14).
    pending_joins: BTreeSet<usize>,
}

/// One processor's cached load span: slowdown `slow` holds over wall
/// times `[from, until)`.
#[derive(Debug, Clone, Copy)]
struct SlowSpan {
    slow: f64,
    from: f64,
    until: f64,
}

/// The simulation engine. Construct with [`Engine::new`], run with
/// [`Engine::run`].
pub struct Engine<'w> {
    // --- static configuration ---
    /// Shared, immutable cluster description. `Arc` so a sweep hands the
    /// same allocation to every run instead of deep-cloning speeds/loads
    /// five times per `StrategySweep`.
    cluster: Arc<ClusterSpec>,
    workload: &'w dyn LoopWorkload,
    cfg: Option<StrategyConfig>,
    bytes_per_iter: u64,
    /// Current central-balancer host. Starts at `cluster.master`; mutable
    /// (promotion on master death) without touching the shared spec.
    master: usize,
    /// Hierarchical balancer domains (DESIGN.md §S16): present only when
    /// the strategy stacks domain levels over the leaf groups
    /// (`group_depth > 1`). `None` reproduces the paper's flat layout
    /// byte-for-byte.
    hier: Option<GroupTree>,
    /// Leaf group → balancer role (level-1 domain). All zeros in the
    /// flat layout.
    role_of_group: Vec<usize>,
    /// Role → current balancer host (re-elected on death via the §S16
    /// escalation chain). One entry — the global master — when flat.
    role_master: Vec<usize>,

    // --- substrate ---
    clocks: Vec<WorkClock>,
    /// Cached external-load span per processor for [`Engine::cpu_factor`]:
    /// every message send queries both endpoints' slowdowns, and the level
    /// is constant within a persistence span, so a re-query inside the
    /// cached `[from, until)` window would return the same value (the
    /// `ClockCursor` reuse argument). `Cell` because the cache is warmed
    /// from `&self` query paths.
    slow_spans: Vec<Cell<SlowSpan>>,
    medium: MediumSim,
    events: MinHeap<Ev>,
    seq: u64,
    /// Time of the event currently being processed — the default `tie`
    /// stamp for every push (see [`Ev::tie`]). `0.0` before the loop runs.
    ev_now: f64,
    counters: EngineCounters,

    // --- execution mode ---
    mode: EngineMode,
    /// Batched mode: the scheduled run per processor (`None` while not
    /// computing, and always `None` in per-iteration mode).
    blocks: Vec<Option<BlockRun>>,
    /// Bumped whenever a processor's block is invalidated; stamps
    /// `BlockDone`/`SettleCheck` events so stale ones are dropped.
    block_epoch: Vec<u64>,
    /// Recycled boundary vectors: a retired block's buffer is reused by
    /// the next `schedule_block` instead of reallocated (episodes retire
    /// and reschedule every participant's block).
    boundary_pool: Vec<Vec<f64>>,
    /// Pooled scratch state for the episode fast-forward (Episode mode).
    ff: ff::FfScratch,

    // --- coalesced heartbeats (Episode mode) ---
    /// Liveness ticks fired so far (`faults.heartbeat_sweeps` mirror).
    hb_ticks_counted: u64,
    /// Index (1-based) and time of the scheduled coalesced tick. Tick
    /// times accumulate by iterated addition exactly like the per-tick
    /// chain, so a coalesced tick lands on the bit-identical instant.
    hb_target: Option<(u64, f64)>,

    // --- per-processor state ---
    queues: Vec<WorkQueue>,
    state: Vec<ProcState>,
    active: Vec<bool>,
    /// `active.iter().filter(|a| **a).count()`, maintained incrementally
    /// by [`Engine::set_active`] so the periodic tick never rescans all P
    /// flags.
    active_count: usize,
    interrupted: Vec<bool>,
    window_start: Vec<f64>,
    window_iters: Vec<u64>,
    iters_done: Vec<u64>,
    /// `iters_done.iter().sum()`, maintained incrementally — the rejoin
    /// retry chain consults it every heartbeat interval.
    total_iters_done: u64,
    work_done: Vec<f64>,
    finished_at: Vec<f64>,

    // --- groups & balancer ---
    groups: Vec<GroupCtl>,
    proc_group: Vec<usize>,
    /// Per-role balancer FIFO horizon (the paper's LCDLB delay factor):
    /// `role_busy[r]` is when role `r`'s balancer frees up. One entry —
    /// the old scalar `master_busy_until` — in the flat layout.
    role_busy: Vec<f64>,
    /// Work that arrived before the receiver finished its own (replicated)
    /// balancer calculation — possible in the distributed schemes, where a
    /// fast donor can decide and ship before a slow receiver decides.
    early_work: Vec<Vec<(usize, Vec<Range<u64>>)>>,

    // --- accounting ---
    stats: DlbStats,
    sync_times: Vec<f64>,

    /// Ablation A1.3: when set, synchronizations are additionally
    /// triggered every `dt` seconds (periodic-exchange schemes) instead of
    /// only by the receiver-initiated interrupts.
    periodic_interval: Option<f64>,

    // --- fault injection & failure handling ---
    /// What to inject. An empty plan schedules no fault events and takes
    /// no fault branches: the run is bit-identical to a pre-fault engine.
    plan: FaultPlan,
    policy: FailurePolicy,
    /// `!plan.is_empty()`, cached: every fault branch keys off this.
    fault_active: bool,
    faults: FaultReport,
    membership: Membership,
    /// Dead processors whose death the protocol has already handled.
    detected: Vec<bool>,
    /// Dead-but-undetected processors — exactly `{m : dead[m] &&
    /// !detected[m]}`, maintained at crash/detection time so liveness
    /// sweeps walk this (usually tiny) set instead of all of `0..P`.
    undetected: BTreeSet<usize>,
    /// Membership view version: bumped on every death handling and every
    /// rejoin admission. Instructions are stamped with it at send time;
    /// receivers discard older-epoch instructions (§S14 split-brain
    /// guard). Fault-free runs never bump it, so the guard never bites.
    membership_epoch: u64,
    /// Per crash instance in `plan.crashes`: has the protocol finished
    /// with it (death detected, or recovery made detection moot)? The
    /// heartbeat chain keeps running while any instance is unhandled —
    /// the recovery-aware generalization of "any crash undetected".
    crash_handled: Vec<bool>,
    /// Count of `false` entries in `crash_handled`, so the heartbeat
    /// re-push check is O(1) instead of a scan over the plan.
    unhandled_crashes: usize,
    /// The crash instance (index into `plan.crashes`) a currently-dead
    /// processor is down with. Validated interleaving makes it unique.
    cur_crash: Vec<Option<usize>>,
    /// When each processor last recovered (for the rejoin record).
    recovered_at: Vec<f64>,
    /// Confiscated work with no live heir at all (every processor dead,
    /// which validation guarantees is transient): parked here instead of
    /// panicking, drained into the first processor that recovers.
    limbo: Vec<Range<u64>>,
    /// Baselines for `faults.rejoins`: `(record index, iters_done at
    /// admission)`; finalized into `iters_after_rejoin` at run end.
    rejoin_baselines: Vec<(usize, u64)>,
    /// Iteration currently executing on each processor, so a crash can
    /// return it to the queue instead of losing it.
    in_flight: Vec<Option<u64>>,
    /// Work shipments the transport failed to deliver (lost message or
    /// dead receiver): `(to, group, ranges)`. The sender's copy — the
    /// watchdog retransmits these, and death recovery confiscates the
    /// ones addressed to a dead node. Iterations never leak.
    lost_work: Vec<(usize, usize, Vec<Range<u64>>)>,
    /// Message counter feeding the seeded loss model.
    msg_seq: u64,
    /// Episode id source for watchdog staleness checks.
    episode_seq: u64,

    // --- runtime re-customization (§S17) ---
    /// The adaptive re-decision loop; `None` (static strategy) takes no
    /// adaptive branches, so a static run is bit-identical to a
    /// pre-adaptive engine.
    adaptive: Option<adaptive::AdaptiveState>,
}

impl<'w> Engine<'w> {
    /// Set up a run. `cfg = None` gives the no-DLB baseline (static equal
    /// blocks, run to completion).
    ///
    /// # Panics
    /// Panics on inconsistent cluster/config parameters.
    pub fn new(
        cluster: impl Into<Arc<ClusterSpec>>,
        workload: &'w dyn LoopWorkload,
        cfg: Option<StrategyConfig>,
    ) -> Self {
        let cluster: Arc<ClusterSpec> = cluster.into();
        cluster.validate();
        if let Some(c) = &cfg {
            c.validate();
        }
        let p = cluster.processors();
        let total = workload.iterations();
        let initial = Distribution::equal_block(total, p);
        let queues: Vec<WorkQueue> = {
            let mut start = 0u64;
            initial
                .counts()
                .iter()
                .map(|&c| {
                    let q = WorkQueue::from_range(start..start + c);
                    start += c;
                    q
                })
                .collect()
        };
        let group_lists: Vec<Vec<usize>> = match &cfg {
            Some(c) => c.groups(p),
            None => vec![(0..p).collect()],
        };
        let mut proc_group = vec![0usize; p];
        for (g, members) in group_lists.iter().enumerate() {
            for &m in members {
                proc_group[m] = g;
            }
        }
        // §S16: the hierarchical layout assigns each leaf group to a
        // level-1 domain whose balancer role is initially hosted by the
        // domain's lowest-numbered processor. The flat layout keeps one
        // role, hosted by the global master — bit-identical to the
        // pre-hierarchy scalar state.
        let hier = cfg.as_ref().and_then(|c| c.hierarchy(group_lists.len()));
        let (role_of_group, role_master) = match &hier {
            Some(tree) => (
                (0..group_lists.len()).map(|g| tree.role_of(g)).collect(),
                (0..tree.roles())
                    .map(|r| {
                        tree.leaf_range(1, r)
                            .flat_map(|g| group_lists[g].iter().copied())
                            .min()
                            .expect("level-1 domains cover at least one processor")
                    })
                    .collect(),
            ),
            None => (vec![0usize; group_lists.len()], vec![cluster.master]),
        };
        let groups = group_lists
            .into_iter()
            .map(|members| GroupCtl {
                members,
                episode: None,
                pending_initiators: BTreeSet::new(),
                pending_joins: BTreeSet::new(),
            })
            .collect();
        let medium = MediumSim::new(cluster.net, p);
        let clocks = cluster.clocks();
        Self {
            bytes_per_iter: workload.bytes_per_iter(),
            master: cluster.master,
            hier,
            role_of_group,
            role_busy: vec![0.0; role_master.len()],
            role_master,
            cluster,
            workload,
            cfg,
            clocks,
            slow_spans: (0..p)
                .map(|_| {
                    Cell::new(SlowSpan {
                        slow: 1.0,
                        from: 0.0,
                        until: f64::NEG_INFINITY,
                    })
                })
                .collect(),
            medium,
            events: MinHeap::default(),
            seq: 0,
            ev_now: 0.0,
            counters: EngineCounters::default(),
            mode: EngineMode::from_env(),
            blocks: (0..p).map(|_| None).collect(),
            block_epoch: vec![0; p],
            boundary_pool: Vec::new(),
            ff: ff::FfScratch::default(),
            hb_ticks_counted: 0,
            hb_target: None,
            queues,
            state: vec![ProcState::Computing; p],
            active: vec![true; p],
            active_count: p,
            interrupted: vec![false; p],
            window_start: vec![0.0; p],
            window_iters: vec![0; p],
            iters_done: vec![0; p],
            total_iters_done: 0,
            work_done: vec![0.0; p],
            finished_at: vec![0.0; p],
            groups,
            proc_group,
            early_work: vec![Vec::new(); p],
            stats: DlbStats::default(),
            sync_times: Vec::new(),
            periodic_interval: None,
            plan: FaultPlan::none(),
            policy: FailurePolicy::default(),
            fault_active: false,
            faults: FaultReport::default(),
            membership: Membership::new(p),
            detected: vec![false; p],
            undetected: BTreeSet::new(),
            membership_epoch: 0,
            crash_handled: Vec::new(),
            unhandled_crashes: 0,
            cur_crash: vec![None; p],
            recovered_at: vec![0.0; p],
            limbo: Vec::new(),
            rejoin_baselines: Vec::new(),
            in_flight: vec![None; p],
            lost_work: Vec::new(),
            msg_seq: 0,
            episode_seq: 0,
            adaptive: None,
        }
    }

    /// Inject faults per `plan`, handled per `policy`. An empty plan is
    /// guaranteed overhead-free: the run is identical to one without the
    /// fault subsystem.
    ///
    /// # Panics
    /// Panics if the plan is invalid for this cluster or the policy
    /// tunables are out of range.
    pub fn with_faults(mut self, plan: FaultPlan, policy: FailurePolicy) -> Self {
        if let Err(e) = plan.validate(self.cluster.processors()) {
            panic!("invalid fault plan: {e}");
        }
        if let Err(e) = policy.validate() {
            panic!("invalid failure policy: {e}");
        }
        self.fault_active = !plan.is_empty();
        self.crash_handled = vec![false; plan.crashes.len()];
        self.unhandled_crashes = plan.crashes.len();
        self.plan = plan;
        self.policy = policy;
        self
    }

    /// Select the stepping mode explicitly, overriding the
    /// `DLB_ENGINE_MODE` environment default. Both modes produce
    /// byte-identical reports; per-iteration is the reference path.
    pub fn with_mode(mut self, mode: EngineMode) -> Self {
        self.mode = mode;
        self
    }

    /// Enable ablation A1.3: additionally trigger a synchronization every
    /// `dt` seconds (a periodic-exchange scheme à la Dome/Siegell).
    ///
    /// # Panics
    /// Panics unless `dt` is positive and finite, or if DLB is disabled.
    pub fn with_periodic_sync(mut self, dt: f64) -> Self {
        assert!(
            dt > 0.0 && dt.is_finite(),
            "periodic interval must be positive"
        );
        assert!(self.cfg.is_some(), "periodic sync requires a DLB strategy");
        self.periodic_interval = Some(dt);
        self
    }

    /// Execute to completion and report.
    pub fn run(self) -> RunReport {
        self.run_counted().0
    }

    /// Execute to completion; also return engine counters (heap event
    /// totals) for the bench harness.
    pub fn run_counted(mut self) -> (RunReport, EngineCounters) {
        let p = self.cluster.processors();
        for proc in 0..p {
            if self.queues[proc].is_empty() {
                // More processors than iterations: this one never computes.
                self.state[proc] = ProcState::Inactive;
                self.set_active(proc, false);
            } else {
                self.schedule_compute(proc, 0.0);
            }
        }
        if let Some(dt) = self.periodic_interval {
            self.push_event(dt, EvKind::PeriodicTick);
        }
        if self.fault_active {
            for i in 0..self.plan.crashes.len() {
                let c = self.plan.crashes[i];
                self.push_event(c.at, EvKind::Crash { proc: c.proc });
            }
            for i in 0..self.plan.recoveries.len() {
                let r = self.plan.recoveries[i];
                self.push_event(r.at, EvKind::Recover { proc: r.proc });
            }
            if !self.plan.crashes.is_empty() {
                if self.mode == EngineMode::Episode {
                    self.aim_heartbeat();
                } else {
                    self.push_event(self.policy.heartbeat_interval, EvKind::Heartbeat);
                }
            }
        }
        while let Some(ev) = self.events.pop() {
            let now = ev.time;
            self.ev_now = now;
            match ev.kind {
                EvKind::IterDone { proc, iter } => self.on_iter_done(proc, iter, now),
                EvKind::BlockDone { proc, epoch } => self.on_block_done(proc, epoch, now),
                EvKind::SettleCheck { proc, epoch } => self.on_settle_check(proc, epoch, now),
                EvKind::Deliver { to, payload } => self.on_deliver(to, payload, now),
                EvKind::CalcCentral { group } => self.on_calc_central(group, now),
                EvKind::CalcLocal { group, proc } => self.on_calc_local(group, proc, now),
                EvKind::PeriodicTick => self.on_periodic_tick(now),
                EvKind::Crash { proc } => self.on_crash(proc, now),
                EvKind::Recover { proc } => self.on_recover(proc, now),
                EvKind::JoinRetry { proc } => self.on_join_retry(proc, now),
                EvKind::Heartbeat => {
                    if self.mode == EngineMode::Episode {
                        self.on_heartbeat_coalesced(now);
                    } else {
                        self.on_heartbeat(now);
                    }
                }
                EvKind::Watchdog { group, id } => self.on_watchdog(group, id, now),
                EvKind::EpisodeDone { .. } => {}
            }
        }
        // Hard invariant: the event queue drained, so every processor must
        // have finished — any residue means the protocol deadlocked. The
        // naive sum also cross-checks the incremental counter.
        let done: u64 = self.iters_done.iter().sum();
        debug_assert_eq!(done, self.total_iters_done, "iteration counter drifted");
        assert_eq!(
            done,
            self.workload.iterations(),
            "protocol stalled: {} of {} iterations executed (states: {:?})",
            done,
            self.workload.iterations(),
            self.state
        );
        // Finalize rejoin records: post-admission iteration counts are
        // only known once the run ends.
        for &(idx, base) in &self.rejoin_baselines {
            let rec = &mut self.faults.rejoins[idx];
            rec.iters_after_rejoin = self.iters_done[rec.proc] - base;
        }
        let total_time = self.finished_at.iter().copied().fold(0.0, f64::max);
        let adaptive = self
            .adaptive
            .take()
            .map(adaptive::AdaptiveState::into_report);
        let report = RunReport {
            strategy: self.cfg.as_ref().map(|c| c.strategy),
            total_time,
            stats: self.stats,
            per_proc: (0..p)
                .map(|i| ProcSummary {
                    iters_done: self.iters_done[i],
                    finished_at: self.finished_at[i],
                    work_done: self.work_done[i],
                })
                .collect(),
            sync_times: self.sync_times,
            total_iters: self.total_iters_done,
            faults: if self.fault_active {
                Some(self.faults)
            } else {
                None
            },
            adaptive,
        };
        let mut counters = self.counters;
        counters.events = self.seq;
        (report, counters)
    }

    // ------------------------------------------------------------------
    // event scheduling helpers

    fn push_event(&mut self, time: f64, kind: EvKind) {
        let tie = self.ev_now;
        self.push_event_tied(time, tie, kind);
    }

    /// Push with an explicit tie stamp (see [`Ev::tie`]) — used by the
    /// batched engine's compute events, whose per-iteration twins would
    /// have been pushed at a different (earlier or later) moment.
    fn push_event_tied(&mut self, time: f64, tie: f64, kind: EvKind) {
        let pkey = match kind {
            EvKind::IterDone { proc, .. }
            | EvKind::BlockDone { proc, .. }
            | EvKind::SettleCheck { proc, .. } => {
                self.counters.compute_events += 1;
                proc as u32
            }
            EvKind::Heartbeat => {
                self.counters.heartbeat_events += 1;
                u32::MAX
            }
            _ => {
                self.counters.protocol_events += 1;
                u32::MAX
            }
        };
        self.seq += 1;
        self.events.push(Ev {
            time,
            tie,
            pkey,
            seq: self.seq,
            kind,
        });
    }

    /// CPU-cost multiplier for protocol processing on `node` at `now`:
    /// the external load shares the CPU (`ℓ+1`), and if the node's compute
    /// slave is running concurrently (e.g. the LCDLB master serving other
    /// groups while it still computes) the balancer/PVM daemon shares with
    /// it too — the paper's "context switching between the load balancer
    /// and the computation slave" (Section 6.2).
    fn cpu_factor(&self, node: usize, now: f64) -> f64 {
        self.cpu_factor_in(node, self.state[node], now)
    }

    /// [`Engine::cpu_factor`] for `node` in processor state `state` — the
    /// one formula, shared with the episode fast-forward, which passes
    /// its *shadow* states instead of `self.state`.
    #[inline]
    fn cpu_factor_in(&self, node: usize, state: ProcState, now: f64) -> f64 {
        let ext = self.ext_slowdown(node, now);
        let share = if state == ProcState::Computing {
            2.0
        } else {
            1.0
        };
        (ext * share).max(1.0)
    }

    /// The external-load component of [`Engine::cpu_factor`], span-cached.
    #[inline]
    fn ext_slowdown(&self, node: usize, now: f64) -> f64 {
        let mut span = self.slow_spans[node].get();
        if !(now >= span.from && now < span.until) {
            let load = self.clocks[node].load();
            span = SlowSpan {
                slow: load.slowdown_at(now),
                from: now,
                until: load.next_change_after(now),
            };
            self.slow_spans[node].set(span);
        }
        span.slow
    }

    /// Single mutation point for the `active` flags, keeping the O(1)
    /// active-processor count in lock-step (the periodic tick used to
    /// recount all P flags on every interval).
    fn set_active(&mut self, m: usize, v: bool) {
        if self.active[m] != v {
            self.active[m] = v;
            if v {
                self.active_count += 1;
            } else {
                self.active_count -= 1;
            }
        }
    }

    /// The processor hosting group `g`'s central balancer: the global
    /// master in the paper's flat layout, the group's level-1 domain
    /// master under a §S16 hierarchy.
    fn balancer_host(&self, g: usize) -> usize {
        match self.hier {
            Some(_) => self.role_master[self.role_of_group[g]],
            None => self.master,
        }
    }

    /// The processor that admits `proc`'s rejoin. Admission is a
    /// membership decision, so it routes to the same role that balances
    /// the rejoiner's group — the global master when flat, `proc`'s
    /// domain master under a hierarchy.
    fn admission_host(&self, proc: usize) -> usize {
        self.balancer_host(self.proc_group[proc])
    }

    fn send(&mut self, from: usize, to: usize, bytes: usize, payload: Payload, now: f64) {
        self.send_opts(from, to, bytes, payload, now, false);
    }

    /// `exempt` marks the message as control-plane regardless of its
    /// payload kind: the rejoin re-expansion ships work outside any
    /// episode, so no watchdog covers it — it rides the reliable
    /// handshake channel instead (still costed, contended, delayable).
    fn send_opts(
        &mut self,
        from: usize,
        to: usize,
        bytes: usize,
        payload: Payload,
        now: f64,
        exempt: bool,
    ) {
        let factors = now_net::medium::EndpointFactors {
            send: self.cpu_factor(from, now),
            recv: self.cpu_factor(to, now),
        };
        let tx = self.medium.send_with_factors(from, to, bytes, now, factors);
        match &payload {
            Payload::Work { ranges, .. } => {
                self.stats.transfer_messages += 1;
                self.stats.bytes_moved += ranges_len(ranges) * self.bytes_per_iter;
            }
            _ => self.stats.control_messages += 1,
        }
        self.finished_at[from] = self.finished_at[from].max(now);
        self.msg_seq += 1;
        // Rejoin handshake messages are control-plane: exempt from loss
        // and link cuts (like the heartbeat liveness oracle) so a
        // recovering processor cannot be wedged out forever, but still
        // costed, contended and delayable like any other message.
        let control_plane = exempt
            || matches!(
                payload,
                Payload::JoinRequest { .. } | Payload::JoinGrant { .. }
            );
        if self.fault_active && !control_plane {
            if self.plan.link_cut(from, to, now) {
                // Partitioned link: targeted loss. The sender's copy of
                // any work survives in the lost-work log, so the
                // watchdog/abort machinery recovers per-link exactly as
                // it does for probabilistic loss.
                self.faults.messages_cut += 1;
                if let Payload::Work { group, ranges } = payload {
                    self.lost_work.push((to, group, ranges));
                }
                return;
            }
            if self.plan.drops_message(self.msg_seq) {
                self.faults.messages_dropped += 1;
                if let Payload::Work { group, ranges } = payload {
                    // The donor keeps its transfer log until the episode
                    // closes; the watchdog retransmits from this copy.
                    self.lost_work.push((to, group, ranges));
                }
                return;
            }
        }
        let mut delivered = tx.delivered;
        if self.fault_active {
            let f = self.plan.delay_factor_at(now);
            if f > 1.0 {
                delivered = now_net::stretch_delivery(now, tx.delivered, f);
                self.faults.messages_delayed += 1;
            }
        }
        self.push_event(delivered, EvKind::Deliver { to, payload });
    }

    /// Start `proc` computing at `now`: one event per iteration in
    /// per-iteration mode, one event per contiguous run in batched mode.
    fn schedule_compute(&mut self, proc: usize, now: f64) {
        match self.mode {
            EngineMode::PerIter => self.schedule_next_iter(proc, now),
            EngineMode::Batched | EngineMode::Episode => self.schedule_block(proc, now),
        }
    }

    fn schedule_next_iter(&mut self, proc: usize, now: f64) {
        let iter = self.queues[proc]
            .pop_front_iter()
            .expect("schedule_next_iter requires a non-empty queue");
        let cost = self.workload.iter_cost(iter);
        let mut done_at = self.clocks[proc].finish_time(now, cost);
        if self.fault_active {
            done_at = self.apply_stalls(proc, now, done_at);
        }
        self.in_flight[proc] = Some(iter);
        self.state[proc] = ProcState::Computing;
        self.push_event(done_at, EvKind::IterDone { proc, iter });
    }

    /// Push an iteration's completion past any stall interval it overlaps:
    /// a stalled processor makes no compute progress, so each overlapped
    /// stall displaces the finish time by its full (clipped) span. Spans
    /// are scanned in start order; a displacement can expose later spans.
    fn apply_stalls(&self, proc: usize, start: f64, finish: f64) -> f64 {
        let mut t = finish;
        for s in self.plan.stalls_for(proc) {
            if s.until <= start {
                continue;
            }
            if s.from >= t {
                break;
            }
            t += s.until - s.from.max(start);
        }
        t
    }

    // ------------------------------------------------------------------
    // batched event-horizon execution

    /// Schedule `proc`'s whole front run of queued iterations as one
    /// `BlockDone` event. Boundary times replay the per-iteration chain —
    /// `finish_time` from each iteration's start, then stall displacement —
    /// through a [`ClockCursor`] that caches the current load span, so the
    /// times are bit-identical to per-iteration stepping at a fraction of
    /// the cost. The queue is *not* popped here; settling pops exactly the
    /// completed prefix, so crashes and preemption see the same queue
    /// contents the per-iteration engine would.
    /// Compute the boundary chain for `proc` executing `run` from `now`
    /// into `boundaries` (cleared first). This is the single
    /// implementation of the per-iteration replay — `schedule_block` and
    /// the episode fast-forward both call it, so a fast-forwarded block
    /// cannot drift from the event-loop path.
    fn block_boundaries(&self, proc: usize, now: f64, run: &Range<u64>, boundaries: &mut Vec<f64>) {
        boundaries.clear();
        boundaries.reserve((run.end - run.start) as usize);
        let wl = self.workload;
        // Uniform loops pay the virtual cost lookup once per block.
        let uniform_cost = wl.is_uniform().then(|| wl.iter_cost(run.start));
        let mut cursor = ClockCursor::new(&self.clocks[proc]);
        match uniform_cost {
            // Stall displacement breaks the pure chain, so the batch fast
            // path only applies to fault-free uniform runs.
            Some(cost) if !self.fault_active => {
                cursor.finish_times_uniform(now, cost, run.end - run.start, boundaries);
            }
            _ => {
                let mut t = now;
                for i in run.clone() {
                    let cost = uniform_cost.unwrap_or_else(|| wl.iter_cost(i));
                    let mut f = cursor.finish_time(t, cost);
                    if self.fault_active {
                        f = self.apply_stalls(proc, t, f);
                    }
                    boundaries.push(f);
                    t = f;
                }
            }
        }
    }

    /// A recycled boundary buffer, or a fresh one.
    fn take_boundary_buf(&mut self) -> Vec<f64> {
        self.boundary_pool.pop().unwrap_or_default()
    }

    fn schedule_block(&mut self, proc: usize, now: f64) {
        let run = self.queues[proc]
            .front_run()
            .expect("schedule_block requires a non-empty queue");
        let mut boundaries = self.take_boundary_buf();
        self.block_boundaries(proc, now, &run, &mut boundaries);
        let done_at = *boundaries.last().expect("front run is never empty");
        self.state[proc] = ProcState::Computing;
        let epoch = self.block_epoch[proc];
        let tie = block_done_tie(&boundaries, now);
        self.push_event_tied(done_at, tie, EvKind::BlockDone { proc, epoch });
        self.blocks[proc] = Some(BlockRun {
            first: run.start,
            done: 0,
            boundaries,
            seq: self.seq,
            started: now,
        });
    }

    /// Settle the first `upto` iterations of `proc`'s block: accumulate
    /// counters per iteration in the original order (so `work_done` sums
    /// bit-identically to per-iteration stepping), pop the queue, and move
    /// `finished_at` to the last settled boundary. Idempotent for already
    /// settled prefixes.
    fn settle_block_to(&mut self, proc: usize, upto: u64) {
        let (first, done, finished) = {
            let b = self.blocks[proc].as_ref().expect("settle without a block");
            debug_assert!(upto as usize <= b.boundaries.len());
            if upto <= b.done {
                return;
            }
            (b.first, b.done, b.boundaries[upto as usize - 1])
        };
        let wl = self.workload;
        if let Some(cost) = wl.is_uniform().then(|| wl.iter_cost(first)) {
            for _ in done..upto {
                self.work_done[proc] += cost;
            }
        } else {
            for i in done..upto {
                self.work_done[proc] += wl.iter_cost(first + i);
            }
        }
        let k = upto - done;
        self.window_iters[proc] += k;
        self.iters_done[proc] += k;
        self.total_iters_done += k;
        let taken = self.queues[proc].take_front(k);
        debug_assert_eq!(ranges_len(&taken), k, "queue must cover the settled prefix");
        self.finished_at[proc] = finished;
        self.blocks[proc]
            .as_mut()
            .expect("block checked above")
            .done = upto;
    }

    /// Retire `proc`'s block (recycling its boundary buffer) and stamp
    /// any still-queued events for it stale.
    fn invalidate_block(&mut self, proc: usize) {
        if let Some(b) = self.blocks[proc].take() {
            self.boundary_pool.push(b.boundaries);
        }
        self.block_epoch[proc] += 1;
    }

    /// Mark `proc` interrupted. The per-iteration engine reacts at the
    /// next `IterDone`; in batched mode that boundary has no event, so
    /// synthesize a `SettleCheck` at the first stored boundary past `now`
    /// (if none remains, the pending `BlockDone` at `now` reacts itself).
    fn flag_interrupt(&mut self, proc: usize, now: f64) {
        if self.interrupted[proc] {
            return;
        }
        self.interrupted[proc] = true;
        if self.mode == EngineMode::PerIter {
            return;
        }
        if let Some(b) = self.blocks[proc].as_ref() {
            let i = b.boundaries.partition_point(|&x| x <= now);
            if i < b.boundaries.len() {
                let at = b.boundaries[i];
                // The per-iteration twin of this settle point was pushed
                // when the iteration ending at `at` started.
                let tie = if i == 0 {
                    b.started
                } else {
                    b.boundaries[i - 1]
                };
                let epoch = self.block_epoch[proc];
                self.push_event_tied(at, tie, EvKind::SettleCheck { proc, epoch });
            }
        }
    }

    /// The whole block completed: settle everything, then run the same
    /// boundary logic `on_iter_done` runs after a final iteration.
    fn on_block_done(&mut self, proc: usize, epoch: u64, now: f64) {
        if epoch != self.block_epoch[proc] || self.membership.is_dead(proc) {
            return; // preempted or crashed since scheduling
        }
        let len = self.blocks[proc]
            .as_ref()
            .expect("live epoch implies a block")
            .boundaries
            .len() as u64;
        self.settle_block_to(proc, len);
        self.invalidate_block(proc);

        if self.interrupted[proc] {
            self.interrupted[proc] = false;
            let g = self.proc_group[proc];
            let in_episode = self.groups[g]
                .episode
                .as_ref()
                .is_some_and(|e| !e.profiled.contains(&proc));
            if in_episode {
                self.send_profile(proc, now);
                return;
            }
        }
        if self.queues[proc].is_empty() {
            self.on_out_of_work(proc, now);
        } else {
            self.schedule_compute(proc, now);
        }
    }

    /// An interrupt landed mid-block: at this iteration boundary, settle
    /// the completed prefix and react exactly as `on_iter_done` would —
    /// profile if the episode still wants us, otherwise clear the stale
    /// flag and let the block run on.
    fn on_settle_check(&mut self, proc: usize, epoch: u64, now: f64) {
        if epoch != self.block_epoch[proc]
            || self.membership.is_dead(proc)
            || !self.interrupted[proc]
            || self.state[proc] != ProcState::Computing
        {
            return; // block replaced, flag already served, or episode gone
        }
        let upto = {
            let b = self.blocks[proc]
                .as_ref()
                .expect("live epoch implies a block");
            b.boundaries.partition_point(|&x| x <= now) as u64
        };
        self.settle_block_to(proc, upto);
        self.interrupted[proc] = false;
        let g = self.proc_group[proc];
        let in_episode = self.groups[g]
            .episode
            .as_ref()
            .is_some_and(|e| !e.profiled.contains(&proc));
        if in_episode {
            self.invalidate_block(proc);
            self.send_profile(proc, now);
        }
        // Stale flag: keep computing — the BlockDone is still scheduled.
    }

    // ------------------------------------------------------------------
    // compute events

    fn on_iter_done(&mut self, proc: usize, iter: u64, now: f64) {
        if self.membership.is_dead(proc) || self.in_flight[proc] != Some(iter) {
            // The completion was scheduled before a crash; it never
            // happens. The iteration itself was returned to the queue at
            // crash time and will be recovered. The in-flight check also
            // voids events that outlive a crash→recover cycle: the proc
            // is alive again, but this completion belongs to work that
            // was confiscated and redistributed.
            return;
        }
        self.in_flight[proc] = None;
        self.window_iters[proc] += 1;
        self.iters_done[proc] += 1;
        self.total_iters_done += 1;
        self.work_done[proc] += self.workload.iter_cost(iter);
        self.finished_at[proc] = now;

        // React to a pending interrupt at the iteration boundary.
        if self.interrupted[proc] {
            self.interrupted[proc] = false;
            let g = self.proc_group[proc];
            let in_episode = self.groups[g]
                .episode
                .as_ref()
                .is_some_and(|e| !e.profiled.contains(&proc));
            if in_episode {
                self.send_profile(proc, now);
                return;
            }
        }
        if self.queues[proc].is_empty() {
            self.on_out_of_work(proc, now);
        } else {
            self.schedule_compute(proc, now);
        }
    }

    fn on_out_of_work(&mut self, proc: usize, now: f64) {
        if self.cfg.is_none() {
            self.deactivate(proc, now);
            return;
        }
        let g = self.proc_group[proc];
        if let Some(episode) = self.groups[g].episode.as_ref() {
            let participant = episode.participants.contains(&proc);
            if participant && !episode.profiled.contains(&proc) {
                // Ran dry before the interrupt arrived: profile proactively.
                self.send_profile(proc, now);
            } else {
                // Already served by this episode (resumed, then drained
                // while the episode is still closing), or never part of it
                // (woken mid-episode by reassigned or rejoin work — a
                // profile from a non-participant would corrupt the
                // episode's completion accounting): queue up to start the
                // next one.
                self.state[proc] = ProcState::IdlePending;
                self.groups[g].pending_initiators.insert(proc);
            }
            return;
        }
        let peers: Vec<usize> = self.groups[g]
            .members
            .iter()
            .copied()
            .filter(|&m| m != proc && self.active[m])
            .collect();
        if peers.is_empty() {
            self.deactivate(proc, now);
            return;
        }
        self.start_episode(g, proc, peers, now);
    }

    fn deactivate(&mut self, proc: usize, now: f64) {
        self.state[proc] = ProcState::Inactive;
        self.set_active(proc, false);
        self.finished_at[proc] = self.finished_at[proc].max(now);
    }

    // ------------------------------------------------------------------
    // the protocol

    /// Ablation A1.3: on each tick, any group without an episode in flight
    /// synchronizes as if its lowest active member had been the first
    /// finisher (everyone profiles at its next iteration boundary).
    fn on_periodic_tick(&mut self, now: f64) {
        for g in 0..self.groups.len() {
            if self.groups[g].episode.is_some() {
                continue;
            }
            let actives: Vec<usize> = self.groups[g]
                .members
                .iter()
                .copied()
                .filter(|&m| self.active[m] && self.state[m] == ProcState::Computing)
                .collect();
            if actives.len() < 2 {
                continue;
            }
            let initiator = actives[0];
            let mut participants = actives.clone();
            participants.sort_unstable();
            self.episode_seq += 1;
            self.groups[g].episode = Some(Episode::new(self.episode_seq, initiator, participants));
            self.stats.syncs += 1;
            self.arm_watchdog(g, now);
            for &m in &actives[1..] {
                self.send(
                    initiator,
                    m,
                    INTERRUPT_BYTES,
                    Payload::Interrupt {
                        group: g,
                        epoch: self.membership_epoch,
                    },
                    now,
                );
            }
            // The initiator itself reacts at its next iteration boundary.
            self.flag_interrupt(initiator, now);
        }
        if self.active_count >= 2 {
            let dt = self
                .periodic_interval
                .expect("tick only fires when configured");
            self.push_event(now + dt, EvKind::PeriodicTick);
        }
    }

    fn start_episode(&mut self, g: usize, initiator: usize, peers: Vec<usize>, now: f64) {
        if self.mode == EngineMode::Episode && self.try_fast_forward(g, initiator, &peers, now) {
            return;
        }
        let mut participants = peers.clone();
        participants.push(initiator);
        participants.sort_unstable();
        self.episode_seq += 1;
        self.groups[g].episode = Some(Episode::new(self.episode_seq, initiator, participants));
        self.stats.syncs += 1;
        self.arm_watchdog(g, now);
        // Interrupt the other active members…
        for &m in &peers {
            self.send(
                initiator,
                m,
                INTERRUPT_BYTES,
                Payload::Interrupt {
                    group: g,
                    epoch: self.membership_epoch,
                },
                now,
            );
        }
        // …and contribute our own profile.
        self.send_profile(initiator, now);
    }

    /// Schedule the episode watchdog (failure handling only — a run
    /// without faults schedules no watchdog events).
    fn arm_watchdog(&mut self, g: usize, now: f64) {
        if !self.fault_active {
            return;
        }
        let id = self.groups[g]
            .episode
            .as_ref()
            .expect("watchdog needs an episode")
            .id;
        self.push_event(
            now + self.policy.sync_timeout,
            EvKind::Watchdog { group: g, id },
        );
    }

    fn make_profile(&self, proc: usize, now: f64) -> PerfProfile {
        PerfProfile {
            proc,
            iters_done: self.window_iters[proc],
            elapsed: now - self.window_start[proc],
            remaining: self.queues[proc].remaining(),
        }
    }

    fn send_profile(&mut self, proc: usize, now: f64) {
        let g = self.proc_group[proc];
        let profile = self.make_profile(proc, now);
        self.state[proc] = ProcState::WaitOutcome;
        let control = self
            .cfg
            .as_ref()
            .expect("profiles only exist under DLB")
            .strategy
            .control();
        let episode = self.groups[g]
            .episode
            .as_mut()
            .expect("profile outside an episode");
        episode.profiled.insert(proc);
        episode.sent_profiles.insert(proc, profile);
        let episode_id = episode.id;
        match control {
            Control::Centralized => {
                let master = self.balancer_host(g);
                if proc == master {
                    self.record_central_profile(g, profile, now);
                } else {
                    self.send(
                        proc,
                        master,
                        PerfProfile::WIRE_BYTES,
                        Payload::Profile {
                            group: g,
                            profile,
                            episode: episode_id,
                        },
                        now,
                    );
                }
            }
            Control::Distributed => {
                let participants = Arc::clone(&episode.participants);
                // Record locally first…
                self.record_local_profile(proc, g, profile, now);
                // …then broadcast to the other participants.
                for &to in participants.iter() {
                    if to != proc {
                        self.send(
                            proc,
                            to,
                            PerfProfile::WIRE_BYTES,
                            Payload::Profile {
                                group: g,
                                profile,
                                episode: episode_id,
                            },
                            now,
                        );
                    }
                }
            }
        }
    }

    fn record_central_profile(&mut self, g: usize, profile: PerfProfile, now: f64) {
        let episode = self.groups[g]
            .episode
            .as_mut()
            .expect("no episode for profile");
        episode.central_profiles.insert(profile.proc, profile);
        self.try_calc_central(g, now);
    }

    /// Schedule the central balancer calculation once every participant's
    /// profile is in. Idempotent: duplicates (retransmissions) and
    /// membership shrink re-checks cannot double-schedule.
    fn try_calc_central(&mut self, g: usize, now: f64) {
        let cfg = *self.cfg.as_ref().expect("centralized profile under DLB");
        let Some(episode) = self.groups[g].episode.as_mut() else {
            return;
        };
        if episode.calc_central_scheduled
            || episode.participants.is_empty()
            || episode.central_profiles.len() < episode.participants.len()
        {
            return;
        }
        episode.calc_central_scheduled = true;
        // The balancer serves its groups FIFO: the wait in this queue is
        // the paper's LCDLB delay factor — global with one flat role,
        // per-domain under a §S16 hierarchy. The calculation runs on the
        // (possibly loaded, possibly still computing) host CPU.
        let role = self.role_of_group[g];
        let host = self.balancer_host(g);
        let start = now.max(self.role_busy[role]);
        let done = start + cfg.calc_cost * self.cpu_factor(host, now);
        self.role_busy[role] = done;
        self.push_event(done, EvKind::CalcCentral { group: g });
    }

    fn record_local_profile(&mut self, at: usize, g: usize, profile: PerfProfile, now: f64) {
        let episode = self.groups[g]
            .episode
            .as_mut()
            .expect("no episode for profile");
        episode
            .local_profiles
            .entry(at)
            .or_default()
            .insert(profile.proc, profile);
        self.try_calc_local(g, at, now);
    }

    /// Schedule member `at`'s replicated calculation once its profile set
    /// is complete. Idempotent, like [`Engine::try_calc_central`].
    fn try_calc_local(&mut self, g: usize, at: usize, now: f64) {
        let cfg = *self.cfg.as_ref().expect("distributed profile under DLB");
        let Some(episode) = self.groups[g].episode.as_mut() else {
            return;
        };
        let have = episode.local_profiles.get(&at).map_or(0, BTreeMap::len);
        if episode.calc_scheduled.contains(&at)
            || episode.participants.is_empty()
            || have < episode.participants.len()
        {
            return;
        }
        episode.calc_scheduled.insert(at);
        // Replicated calculation on each (loaded) member CPU.
        let done = now + cfg.calc_cost * self.cpu_factor(at, now);
        self.push_event(done, EvKind::CalcLocal { group: g, proc: at });
    }

    /// Run the balancer and index its plan once for every actor.
    fn decide(&mut self, profiles: &[PerfProfile]) -> IndexedOutcome {
        let cfg = self.cfg.as_ref().expect("decision under DLB");
        let net = self.cluster.net;
        let bpi = self.bytes_per_iter;
        balance_group(profiles, cfg, |moved| {
            net.latency() + moved as f64 * bpi as f64 / net.bandwidth
        })
        .into()
    }

    fn record_decision(&mut self, g: usize, outcome: &BalanceOutcome, now: f64) {
        let episode = self.groups[g].episode.as_mut().expect("episode must exist");
        if episode.recorded {
            return;
        }
        episode.recorded = true;
        self.stats.record_verdict(outcome.verdict);
        if outcome.verdict == BalanceVerdict::Move {
            self.stats.iters_moved += outcome.moved;
        }
        self.sync_times.push(now);
    }

    fn on_calc_central(&mut self, g: usize, now: f64) {
        // The episode may have been aborted, the balancer host may have
        // died, or a §S17 switch may have dropped the group index,
        // between scheduling and firing.
        let Some(episode) = self.groups.get(g).and_then(|gc| gc.episode.as_ref()) else {
            return;
        };
        if episode.outcome.is_some() || self.membership.is_dead(self.balancer_host(g)) {
            return;
        }
        let profiles: Vec<PerfProfile> = episode.central_profiles.values().copied().collect();
        let outcome = Arc::new(self.decide(&profiles));
        self.record_decision(g, &outcome.outcome, now);
        let master = self.balancer_host(g);
        let (participants, episode_id) = {
            let episode = self.groups[g]
                .episode
                .as_mut()
                .expect("episode checked above");
            episode.outcome = Some(Arc::clone(&outcome));
            (Arc::clone(&episode.participants), episode.id)
        };
        // Broadcast the outcome ("the load balancer broadcasts the new
        // distribution information to the processors", Section 3.3);
        // the master, if a participant, acts locally. The instruction
        // payload shares the outcome allocation across all receivers.
        for &m in participants.iter() {
            if m == master {
                continue;
            }
            self.send(
                master,
                m,
                INSTRUCTION_BYTES,
                Payload::Instruction {
                    group: g,
                    outcome: Arc::clone(&outcome),
                    epoch: self.membership_epoch,
                    episode: episode_id,
                },
                now,
            );
        }
        if participants.contains(&master) {
            self.act_on_outcome(master, g, &outcome, now);
        }
    }

    fn on_calc_local(&mut self, g: usize, proc: usize, now: f64) {
        // Aborted episode, a balancer replica that died since
        // scheduling, or a group index dropped by a §S17 switch:
        // nothing to do.
        let Some(episode) = self.groups.get(g).and_then(|gc| gc.episode.as_ref()) else {
            return;
        };
        if self.membership.is_dead(proc) {
            return;
        }
        let Some(mine) = episode.local_profiles.get(&proc) else {
            return;
        };
        // Every member computes the same deterministic outcome in parallel:
        // `decide` is a pure function of the complete, proc-ordered profile
        // set, which is identical across members. Model the cost on every
        // member (the CalcLocal event) but run the arithmetic once.
        let (profiles, cached) = match episode.outcome.as_ref() {
            Some(out) => (Vec::new(), Some(Arc::clone(out))),
            None => (mine.values().copied().collect::<Vec<_>>(), None),
        };
        let outcome = match cached {
            Some(out) => out,
            None => {
                let outcome = Arc::new(self.decide(&profiles));
                self.record_decision(g, &outcome.outcome, now);
                if let Some(episode) = self.groups[g].episode.as_mut() {
                    episode.outcome = Some(Arc::clone(&outcome));
                }
                outcome
            }
        };
        self.act_on_outcome(proc, g, &outcome, now);
    }

    fn act_on_outcome(&mut self, m: usize, g: usize, outcome: &IndexedOutcome, now: f64) {
        {
            let episode = self.groups[g]
                .episode
                .as_mut()
                .expect("act without episode");
            debug_assert!(episode.participants.contains(&m), "actor must participate");
            if !episode.acted.insert(m) {
                // A retransmitted instruction raced its original: acting
                // twice would ship the same transfers twice.
                return;
            }
        }

        // Ship what we owe.
        for t in outcome.index.donations(m) {
            let ranges = self.queues[m].take_back(t.iters);
            let e = self.groups[g].episode.as_ref();
            assert_eq!(
                ranges_len(&ranges),
                t.iters,
                "donor {m} cannot cover the planned transfer: group {g}, episode {:?}, \
                 same outcome as the episode's {:?}, state {:?}, profiled remaining {:?}",
                e.map(|e| e.id),
                e.and_then(|e| e.outcome.as_ref())
                    .map(|o| std::ptr::eq(o.as_ref(), outcome)),
                self.state[m],
                e.and_then(|e| e.sent_profiles.get(&m)).map(|p| p.remaining),
            );
            let bytes = WORK_HEADER_BYTES + (t.iters * self.bytes_per_iter) as usize;
            self.send(m, t.to, bytes, Payload::Work { group: g, ranges }, now);
        }

        // Wait for what we are owed, crediting any shipments that raced
        // ahead of our own balancer calculation.
        let mut expect = outcome.index.owed(m);
        let early = std::mem::take(&mut self.early_work[m]);
        for (grp, ranges) in early {
            debug_assert_eq!(grp, g, "early work must belong to the current episode");
            let got = ranges_len(&ranges);
            for r in ranges {
                self.queues[m].push_back(r);
            }
            expect = expect.saturating_sub(got);
        }
        if expect > 0 {
            self.state[m] = ProcState::WaitWork { expect };
            self.groups[g]
                .episode
                .as_mut()
                .expect("episode while waiting for work")
                .waiting_work
                .insert(m);
        } else {
            self.resume(m, now);
        }
        self.maybe_close_episode(g, now);
    }

    fn resume(&mut self, m: usize, now: f64) {
        self.window_start[m] = now;
        self.window_iters[m] = 0;
        if self.queues[m].is_empty() {
            // "dlb.more_work" turns false: the processor leaves the
            // computation (Section 5.2).
            self.deactivate(m, now);
        } else {
            self.schedule_compute(m, now);
        }
    }

    fn maybe_close_episode(&mut self, g: usize, now: f64) {
        let done = {
            // `get`: reachable with a group index a §S17 switch dropped
            // (via the Work delivery path); no group, no episode.
            let Some(e) = self.groups.get(g).and_then(|gc| gc.episode.as_ref()) else {
                return;
            };
            e.acted.len() == e.participants.len() && e.waiting_work.is_empty()
        };
        if !done {
            return;
        }
        self.groups[g].episode = None;
        self.episode_boundary_tail(g, now);
    }

    // ------------------------------------------------------------------
    // fault injection & failure handling

    /// The injected fail-stop: `proc` dies, silently, at `now`. Detection
    /// and recovery happen later, via heartbeat sweep or episode watchdog.
    fn on_crash(&mut self, proc: usize, now: f64) {
        if !self.membership.declare_dead(proc) {
            return;
        }
        self.undetected.insert(proc);
        self.faults.crashes_injected += 1;
        // Which planned instance fired? Per-processor crash times are
        // distinct (validated interleaving), so the exact event time
        // resolves it.
        self.cur_crash[proc] = self
            .plan
            .crashes
            .iter()
            .position(|c| c.proc == proc && c.at == now);
        // The iteration executing at the instant of death never
        // completes; put it back so recovery can hand it to a survivor.
        if let Some(iter) = self.in_flight[proc].take() {
            self.queues[proc].push_back(iter..iter + 1);
        }
        if self.blocks[proc].is_some() {
            // Batched mode: iterations whose boundary lies strictly before
            // the crash completed (an exact tie dies with the crash, which
            // drains first — its event predates the block's). Settle them,
            // then move the in-flight iteration to the back of the queue,
            // reproducing the per-iteration pop-then-push-back layout that
            // death recovery confiscates.
            let upto = {
                let b = self.blocks[proc].as_ref().expect("checked above");
                b.boundaries.partition_point(|&x| x < now) as u64
            };
            self.settle_block_to(proc, upto);
            let in_flight = self.blocks[proc].as_ref().expect("checked above").first + upto;
            let got = self.queues[proc]
                .pop_front_iter()
                .expect("an unfinished block implies queued work");
            debug_assert_eq!(
                got, in_flight,
                "crash must preempt the next queued iteration"
            );
            self.queues[proc].push_back(got..got + 1);
            self.invalidate_block(proc);
        }
        self.set_active(proc, false);
        self.state[proc] = ProcState::Inactive;
        self.interrupted[proc] = false;
        let _ = now;
    }

    /// Periodic liveness sweep: every dead-but-unhandled processor is
    /// detected here at the latest, bounding detection latency by the
    /// heartbeat interval (plus any earlier watchdog detection).
    fn on_heartbeat(&mut self, now: f64) {
        self.faults.heartbeat_sweeps += 1;
        self.sweep_undetected(now);
        // Keep sweeping while a planned crash instance is still
        // unhandled (neither detected nor voided by a recovery).
        if self.unhandled_crashes > 0 {
            self.push_event(now + self.policy.heartbeat_interval, EvKind::Heartbeat);
        }
    }

    /// Detection pass over the dead-but-undetected set — O(#undetected),
    /// never O(P) — visiting ids in the same ascending order the old
    /// full-membership scan did. `handle_death` removes each entry, so
    /// popping the minimum until empty is exactly that scan.
    fn sweep_undetected(&mut self, now: f64) {
        while let Some(&proc) = self.undetected.iter().next() {
            self.handle_death(proc, now);
        }
    }

    /// Coalesced heartbeats (Episode mode): schedule only the next
    /// liveness tick that can *matter* — the first tick at or after the
    /// earliest still-undetected planned crash — starting the search at
    /// candidate tick `idx` with instant `t`. Tick instants accumulate by
    /// iterated addition exactly like the per-tick chain (`t += dt` from
    /// `t₁ = dt`), so a coalesced tick fires at the bit-identical float
    /// instant its per-tick twin would. With nothing left to detect the
    /// chain stops, exactly where the per-tick chain stops re-pushing.
    fn aim_heartbeat_from(&mut self, mut idx: u64, mut t: f64) {
        let mut c_min = f64::INFINITY;
        for (i, c) in self.plan.crashes.iter().enumerate() {
            if !self.crash_handled[i] {
                c_min = c_min.min(c.at);
            }
        }
        if c_min.is_infinite() {
            self.hb_target = None;
            return;
        }
        let dt = self.policy.heartbeat_interval;
        while t < c_min {
            idx += 1;
            t += dt;
        }
        self.hb_target = Some((idx, t));
        self.push_event(t, EvKind::Heartbeat);
    }

    /// First coalesced tick of a run.
    fn aim_heartbeat(&mut self) {
        self.aim_heartbeat_from(1, self.policy.heartbeat_interval);
    }

    /// One coalesced liveness tick. Skipped idle sweeps are accounted
    /// here in one step — an idle per-tick sweep only increments the
    /// sweep counter and re-pushes itself, so folding the skipped ticks
    /// into this firing is observationally identical. The detection pass
    /// runs at the exact tick instant; detection latency is therefore
    /// bit-identical to per-tick sweeping. A tick scheduled before an
    /// interleaving watchdog detection still fires and simply re-aims —
    /// its sweep accounting matches the tick at which the per-tick chain
    /// would have observed "all detected" and stopped.
    fn on_heartbeat_coalesced(&mut self, now: f64) {
        let (idx, t) = self.hb_target.expect("coalesced tick without a target");
        debug_assert_eq!(t.to_bits(), now.to_bits(), "coalesced tick drifted");
        self.faults.heartbeat_sweeps += idx - self.hb_ticks_counted;
        self.hb_ticks_counted = idx;
        self.sweep_undetected(now);
        self.aim_heartbeat_from(idx + 1, t + self.policy.heartbeat_interval);
    }

    /// Episode watchdog: if episode `id` of group `g` is still open, some
    /// expected message never arrived — a member died or a message was
    /// lost. Detect deaths, then retransmit; after `max_retries` rounds,
    /// abort the episode and release everyone still parked in it.
    fn on_watchdog(&mut self, g: usize, id: u64, now: f64) {
        // `get`: a §S17 switch may have shrunk the group list while this
        // watchdog was on the heap; its episode is gone either way.
        let Some(cur) = self
            .groups
            .get(g)
            .and_then(|gc| gc.episode.as_ref())
            .map(|e| e.id)
        else {
            return;
        };
        if cur != id {
            return; // a later episode; this watchdog is stale
        }
        let silent_dead: Vec<usize> = self.groups[g]
            .episode
            .as_ref()
            .expect("episode id just read")
            .participants
            .iter()
            .copied()
            .filter(|&m| self.membership.is_dead(m) && !self.detected[m])
            .collect();
        for d in silent_dead {
            self.handle_death(d, now);
        }
        // Death handling may have aborted or completed the episode.
        let Some(episode) = self.groups[g].episode.as_mut() else {
            return;
        };
        if episode.id != id {
            return;
        }
        if episode.attempts >= self.policy.max_retries {
            self.abort_episode(g, now);
            return;
        }
        episode.attempts += 1;
        self.retransmit(g, now);
        self.arm_watchdog(g, now);
    }

    /// Declare `d` dead and recover: confiscate its unexecuted
    /// iterations (queue + any shipments lost en route to it), shrink its
    /// group, promote the central balancer if needed, repair the group's
    /// in-flight episode, and reassign the confiscated work across the
    /// survivors. Conservation invariant: every iteration is afterwards
    /// either executed or in some live processor's queue.
    fn handle_death(&mut self, d: usize, now: f64) {
        if self.detected[d] {
            return;
        }
        self.detected[d] = true;
        self.undetected.remove(&d);
        // The membership view changes: in-flight instructions from the
        // old view are now stale (§S14).
        self.membership_epoch += 1;
        let crashed_at = match self.cur_crash[d] {
            Some(i) => {
                if !std::mem::replace(&mut self.crash_handled[i], true) {
                    self.unhandled_crashes -= 1;
                }
                self.plan.crashes[i].at
            }
            None => now,
        };

        // Confiscate unexecuted work. The loop's input data is replicated
        // at startup (arrays ship only on *re*-distribution), so any
        // survivor can execute a recovered range.
        let remaining = self.queues[d].remaining();
        let mut ranges = self.queues[d].take_back(remaining);
        for (_, rs) in std::mem::take(&mut self.early_work[d]) {
            ranges.extend(rs);
        }
        let mut i = 0;
        while i < self.lost_work.len() {
            if self.lost_work[i].0 == d {
                let (_, _, rs) = self.lost_work.swap_remove(i);
                ranges.extend(rs);
            } else {
                i += 1;
            }
        }
        let recovered = ranges_len(&ranges);
        self.faults.iters_recovered += recovered;
        self.faults.detections.push(DetectionRecord {
            proc: d,
            crashed_at,
            detected_at: now,
            iters_recovered: recovered,
        });

        // Membership shrink: d leaves its group for good.
        let g = self.proc_group[d];
        self.groups[g].members.retain(|&m| m != d);
        self.groups[g].pending_initiators.remove(&d);
        self.groups[g].pending_joins.remove(&d);

        // Central balancer promotion. Profiles parked in the dead
        // host's memory are gone; live senders retransmit to the
        // promoted balancer on the next watchdog round. Under a §S16
        // hierarchy only the roles `d` actually hosted re-elect (via the
        // escalation chain), and only their domains' in-flight profile
        // sets are invalidated — the one `membership_epoch` bump above
        // already stales every in-flight instruction at every level.
        if let Some(tree) = self.hier {
            for r in 0..self.role_master.len() {
                if self.role_master[r] != d {
                    continue;
                }
                self.promote_role(r);
                for gg in tree.leaf_range(1, r) {
                    if let Some(e) = self.groups[gg].episode.as_mut() {
                        if e.outcome.is_none() {
                            e.central_profiles.clear();
                            e.calc_central_scheduled = false;
                        }
                    }
                }
            }
        } else if self.master == d {
            if let Some(new_master) = self.membership.promote(d) {
                self.master = new_master;
            }
            for gg in 0..self.groups.len() {
                if let Some(e) = self.groups[gg].episode.as_mut() {
                    if e.outcome.is_none() {
                        e.central_profiles.clear();
                        e.calc_central_scheduled = false;
                    }
                }
            }
        }

        self.fixup_episode_after_death(g, d, now);
        self.reassign_ranges(g, ranges, now);
    }

    /// Re-elect role `r`'s balancer after its host died: the §S16
    /// escalation chain takes the lowest live processor of the role's own
    /// level-1 domain, then of each covering domain up to the tree root,
    /// and only past the root falls back to the global lowest survivor.
    /// Each step is O(domain size); the common case resolves at level 1.
    fn promote_role(&mut self, r: usize) {
        let tree = self.hier.expect("roles re-elect only under a hierarchy");
        for range in tree.escalation_ranges(r) {
            let survivor = range
                .flat_map(|g| self.groups[g].members.iter().copied())
                .filter(|&m| self.membership.is_alive(m))
                .min();
            if let Some(m) = survivor {
                self.role_master[r] = m;
                return;
            }
        }
        // The whole root domain is dead (transient by plan validation):
        // any global survivor keeps the role reachable for rejoins.
        if let Some(m) = self.membership.promote(self.role_master[r]) {
            self.role_master[r] = m;
        }
    }

    /// Distribute confiscated `ranges` across the live members of group
    /// `g` (any live processor if the group was wiped out), waking any
    /// heir that had already left the computation.
    fn reassign_ranges(&mut self, g: usize, ranges: Vec<Range<u64>>, now: f64) {
        if ranges.is_empty() {
            return;
        }
        let mut heirs: Vec<usize> = self.groups[g]
            .members
            .iter()
            .copied()
            .filter(|&m| self.membership.is_alive(m))
            .collect();
        if heirs.is_empty() {
            heirs = (0..self.cluster.processors())
                .filter(|&m| self.membership.is_alive(m))
                .collect();
        }
        if heirs.is_empty() {
            // Everyone is dead. Validation guarantees a recovery is
            // planned; park the work until someone comes back.
            self.limbo.extend(ranges);
            return;
        }
        let parts = split_ranges(&ranges, heirs.len());
        for (&m, part) in heirs.iter().zip(parts) {
            if part.is_empty() {
                continue;
            }
            for r in part {
                self.queues[m].push_back(r);
            }
            self.wake_if_idle(m, now);
        }
    }

    /// Route a single orphaned shipment (work delivered to an
    /// already-handled dead processor) to one survivor of its group.
    fn reassign_orphan_ranges(&mut self, dead_to: usize, ranges: Vec<Range<u64>>, now: f64) {
        let g = self.proc_group[dead_to];
        self.reassign_ranges(g, ranges, now);
    }

    /// A processor that had left the computation (or was queued to start
    /// an episode) re-enters it to execute newly assigned work.
    fn wake_if_idle(&mut self, m: usize, now: f64) {
        match self.state[m] {
            ProcState::Inactive | ProcState::IdlePending => {
                self.groups[self.proc_group[m]]
                    .pending_initiators
                    .remove(&m);
                self.set_active(m, true);
                self.resume(m, now);
            }
            // Computing continues; WaitOutcome/WaitWork pick the new
            // work up when their episode resolves.
            _ => {}
        }
    }

    // ------------------------------------------------------------------
    // rejoin & partition tolerance (§S14)

    /// Iterations `m` has not finished executing at `now`, independent of
    /// engine mode: per-iteration stepping pops the in-flight iteration
    /// from the queue, batched execution leaves completed-but-unsettled
    /// iterations *in* it — this reconciles both to the same count, so a
    /// rejoin admission computes the identical redistribution in every
    /// mode.
    fn logical_remaining(&self, m: usize, now: f64) -> u64 {
        let q = self.queues[m].remaining();
        if let Some(b) = self.blocks[m].as_ref() {
            let settled_pending = b.boundaries.partition_point(|&x| x <= now) as u64 - b.done;
            q - settled_pending
        } else if self.in_flight[m].is_some() {
            q + 1
        } else {
            q
        }
    }

    /// Take up to `want` iterations off the back of `m`'s queue for a
    /// rejoining member, preserving cross-mode equivalence: settle the
    /// completed prefix of any running block first (so the queue holds
    /// exactly what the per-iteration engine's would), never touch the
    /// iteration currently executing, and truncate the scheduled block if
    /// the steal ate into its tail.
    fn steal_back(&mut self, m: usize, want: u64, now: f64) -> Vec<Range<u64>> {
        if self.blocks[m].is_some() {
            let upto = {
                let b = self.blocks[m].as_ref().expect("checked above");
                b.boundaries.partition_point(|&x| x <= now) as u64
            };
            self.settle_block_to(m, upto);
        }
        let executing = self.blocks[m]
            .as_ref()
            .is_some_and(|b| (b.done as usize) < b.boundaries.len());
        let avail = self.queues[m].remaining().saturating_sub(executing as u64);
        let k = want.min(avail);
        if k == 0 {
            return Vec::new();
        }
        let ranges = self.queues[m].take_back(k);
        let rem = self.queues[m].remaining();
        let mut retime = None;
        if let Some(b) = self.blocks[m].as_mut() {
            let l = b.boundaries.len() as u64;
            if b.done + rem < l {
                b.boundaries.truncate((b.done + rem) as usize);
                retime = Some(
                    *b.boundaries
                        .last()
                        .expect("the executing iteration is never stolen"),
                );
            }
        }
        if let Some(at) = retime {
            self.block_epoch[m] += 1;
            let epoch = self.block_epoch[m];
            let tie = {
                let b = self.blocks[m].as_ref().expect("block checked above");
                block_done_tie(&b.boundaries, b.started)
            };
            self.push_event_tied(at, tie, EvKind::BlockDone { proc: m, epoch });
            // Keep the stored ordering key current: the fast-forward
            // seeds its replay from it.
            self.blocks[m].as_mut().expect("block checked above").seq = self.seq;
            if self.interrupted[m] {
                // The settle point the pending interrupt was waiting on
                // went stale with the old epoch; re-aim it.
                let b = self.blocks[m].as_ref().expect("block checked above");
                let i = b.boundaries.partition_point(|&x| x <= now);
                if i < b.boundaries.len() {
                    let at2 = b.boundaries[i];
                    let tie2 = if i == 0 {
                        b.started
                    } else {
                        b.boundaries[i - 1]
                    };
                    self.push_event_tied(at2, tie2, EvKind::SettleCheck { proc: m, epoch });
                }
            }
        }
        ranges
    }

    /// A planned recovery fires: the processor comes back up. If its
    /// crash was never noticed, the comeback announcement reveals it —
    /// run the normal death handling first (confiscation, shrink,
    /// promotion) so there is exactly one rejoin path. Then re-enter via
    /// the §S14 handshake: announce to the coordinator, wait for a grant.
    fn on_recover(&mut self, proc: usize, now: f64) {
        if self.membership.is_alive(proc) {
            return; // plan validation forbids this; stay safe anyway
        }
        if !self.detected[proc] {
            self.handle_death(proc, now);
        }
        self.membership.revive(proc);
        self.faults.recoveries += 1;
        self.detected[proc] = false;
        self.cur_crash[proc] = None;
        self.recovered_at[proc] = now;
        // Work parked while every processor was down drains to the first
        // one back.
        for r in std::mem::take(&mut self.limbo) {
            self.queues[proc].push_back(r);
        }
        let g = self.proc_group[proc];
        if self.cfg.is_none() {
            // No balancer to ask: rejoin the (static) membership directly
            // and run whatever landed in the queue meanwhile.
            let members = &mut self.groups[g].members;
            if !members.contains(&proc) {
                let pos = members.partition_point(|&m| m < proc);
                members.insert(pos, proc);
            }
            let idx = self.faults.rejoins.len();
            self.faults.rejoins.push(RejoinRecord {
                proc,
                recovered_at: now,
                admitted_at: now,
                iters_after_rejoin: 0,
            });
            self.rejoin_baselines.push((idx, self.iters_done[proc]));
            if self.queues[proc].is_empty() {
                self.deactivate(proc, now);
            } else {
                self.set_active(proc, true);
                self.window_start[proc] = now;
                self.window_iters[proc] = 0;
                self.schedule_compute(proc, now);
            }
            return;
        }
        self.state[proc] = ProcState::Rejoining;
        let host = self.admission_host(proc);
        if host == proc {
            // Sole survivor scenarios: the comeback *is* the coordinator.
            self.request_admission(proc, now);
        } else {
            self.send(proc, host, JOIN_BYTES, Payload::JoinRequest { proc }, now);
            self.push_event(
                now + self.policy.heartbeat_interval,
                EvKind::JoinRetry { proc },
            );
        }
    }

    /// Re-announce a still-unadmitted rejoiner to the (possibly since
    /// promoted) coordinator, at the heartbeat cadence. The chain dies
    /// with the `Rejoining` state or with the workload.
    fn on_join_retry(&mut self, proc: usize, now: f64) {
        if self.state[proc] != ProcState::Rejoining {
            return;
        }
        let host = self.admission_host(proc);
        if host == proc {
            self.request_admission(proc, now);
            return;
        }
        self.send(proc, host, JOIN_BYTES, Payload::JoinRequest { proc }, now);
        if self.total_iters_done < self.workload.iterations() {
            self.push_event(
                now + self.policy.heartbeat_interval,
                EvKind::JoinRetry { proc },
            );
        }
    }

    /// Route an admission request: grant immediately when the group is
    /// between episodes, otherwise park it for the episode boundary
    /// (§S14 — stealing from a profiled participant mid-episode would
    /// break its planned transfers).
    fn request_admission(&mut self, q: usize, now: f64) {
        let g = self.proc_group[q];
        if self.groups[g].episode.is_some() {
            self.groups[g].pending_joins.insert(q);
        } else {
            self.admit_rejoin(q, now);
        }
    }

    /// Admit a recovered processor back into its group: bump the
    /// membership epoch (stale in-flight instructions die, §S14), re-grow
    /// the member list, and re-expand the distribution through the same
    /// profitability gate the balancer applies — nominal processor speeds
    /// stand in for measured rates, since the newcomer has no current
    /// window. Only transfers *toward* the newcomer ship here; anything
    /// else is the next episode's business. Callers guarantee no episode
    /// is open in the group (stealing from a profiled participant would
    /// break its planned transfers).
    fn admit_rejoin(&mut self, q: usize, now: f64) {
        if self.state[q] != ProcState::Rejoining || self.membership.is_dead(q) {
            return;
        }
        debug_assert!(
            self.groups[self.proc_group[q]].episode.is_none(),
            "admission only happens at episode boundaries"
        );
        self.membership_epoch += 1;
        let g = self.proc_group[q];
        let members = &mut self.groups[g].members;
        if !members.contains(&q) {
            let pos = members.partition_point(|&m| m < q);
            members.insert(pos, q);
        }
        for r in std::mem::take(&mut self.limbo) {
            self.queues[q].push_back(r);
        }
        let mems: Vec<usize> = self.groups[g]
            .members
            .iter()
            .copied()
            .filter(|&m| self.membership.is_alive(m))
            .collect();
        // Nominal-speed profiles at a fixed 1-second window; scaled so
        // integer iteration counts keep the speed ratios. Movement cost
        // is the wire's to model (the Work shipment is costed and
        // contended like any other), so the gate uses the paper's
        // default of excluding it.
        let profiles: Vec<PerfProfile> = mems
            .iter()
            .map(|&m| PerfProfile {
                proc: m,
                iters_done: (self.cluster.speeds[m] * 1e6).round() as u64,
                elapsed: 1.0,
                remaining: self.logical_remaining(m, now),
            })
            .collect();
        // Invariant: this path is only reachable through the §S14
        // handshake (JoinRequest → request_admission → here), and
        // `on_recover` routes `cfg = None` runs to the direct-rejoin
        // branch before any handshake starts.
        let cfg = self
            .cfg
            .as_ref()
            .expect("rejoin admission is only reachable via the DLB handshake path");
        let outcome = IndexedOutcome::from(balance_group(&profiles, cfg, |_| 0.0));
        let idx = self.faults.rejoins.len();
        self.faults.rejoins.push(RejoinRecord {
            proc: q,
            recovered_at: self.recovered_at[q],
            admitted_at: now,
            iters_after_rejoin: 0,
        });
        self.rejoin_baselines.push((idx, self.iters_done[q]));
        let inbound: Vec<(usize, u64)> = outcome
            .index
            .receipts(q)
            .iter()
            .filter(|t| t.from != q)
            .map(|t| (t.from, t.iters))
            .collect();
        for (from, iters) in inbound {
            let ranges = self.steal_back(from, iters, now);
            if ranges.is_empty() {
                continue;
            }
            let bytes = WORK_HEADER_BYTES + (ranges_len(&ranges) * self.bytes_per_iter) as usize;
            // Exempt from loss/cuts: this shipment happens between
            // episodes, where no watchdog would ever retransmit it.
            self.send_opts(
                from,
                q,
                bytes,
                Payload::Work { group: g, ranges },
                now,
                true,
            );
        }
        let host = self.admission_host(q);
        if q == host {
            self.apply_join_grant(q, now);
        } else {
            self.send(
                host,
                q,
                JOIN_BYTES,
                Payload::JoinGrant {
                    epoch: self.membership_epoch,
                },
                now,
            );
        }
    }

    /// The grant lands (or the coordinator grants itself): the rejoiner
    /// becomes a full member again and starts a fresh measurement window.
    /// An empty queue takes the paper's receiver-initiated path — ask the
    /// group for work, let the profitability gate decide.
    fn apply_join_grant(&mut self, q: usize, now: f64) {
        if self.state[q] != ProcState::Rejoining {
            return; // duplicate grant (retry raced the original)
        }
        self.set_active(q, true);
        self.window_start[q] = now;
        self.window_iters[q] = 0;
        if self.queues[q].is_empty() {
            let g = self.proc_group[q];
            if self.groups[g].episode.is_some() {
                // An episode opened while the grant was in flight: queue
                // up to initiate at its boundary rather than injecting a
                // non-participant profile into it.
                self.state[q] = ProcState::IdlePending;
                self.groups[g].pending_initiators.insert(q);
            } else {
                self.state[q] = ProcState::Inactive;
                self.on_out_of_work(q, now);
            }
        } else {
            self.schedule_compute(q, now);
        }
    }

    /// Repair group `g`'s episode after member `d` died: remove every
    /// trace of `d`, then either abort (too few members left), release
    /// receivers that were owed work by the dead donor, or let the
    /// balancer proceed with the shrunken profile set.
    fn fixup_episode_after_death(&mut self, g: usize, d: usize, now: f64) {
        let (d_acted, outcome, participants) = {
            let Some(e) = self.groups[g].episode.as_mut() else {
                return;
            };
            if !e.participants.contains(&d) {
                return;
            }
            let d_acted = e.acted.contains(&d);
            Arc::make_mut(&mut e.participants).retain(|&m| m != d);
            e.profiled.remove(&d);
            e.acted.remove(&d);
            e.waiting_work.remove(&d);
            e.central_profiles.remove(&d);
            e.sent_profiles.remove(&d);
            e.local_profiles.remove(&d);
            for profs in e.local_profiles.values_mut() {
                profs.remove(&d);
            }
            e.calc_scheduled.remove(&d);
            (d_acted, e.outcome.clone(), Arc::clone(&e.participants))
        };
        if participants.len() <= 1 {
            self.abort_episode(g, now);
            return;
        }
        match outcome {
            Some(out) if !d_acted => {
                // The dead member never shipped its donations (they were
                // confiscated with its queue): release receivers blocked
                // waiting on them. If it *had* acted, its shipments are
                // delivered, in flight, or in the lost-work log — all
                // still reach a live queue — so no release is due.
                for &m in participants.iter() {
                    let ProcState::WaitWork { expect } = self.state[m] else {
                        continue;
                    };
                    let owed_by_dead: u64 = out
                        .index
                        .receipts(m)
                        .iter()
                        .filter(|t| t.from == d)
                        .map(|t| t.iters)
                        .sum();
                    if owed_by_dead == 0 {
                        continue;
                    }
                    let left = expect.saturating_sub(owed_by_dead);
                    if left == 0 {
                        if let Some(e) = self.groups[g].episode.as_mut() {
                            e.waiting_work.remove(&m);
                        }
                        self.resume(m, now);
                    } else {
                        self.state[m] = ProcState::WaitWork { expect: left };
                    }
                }
            }
            Some(_) => {}
            None => {
                // With d removed, the profile sets may now be complete.
                let control = self
                    .cfg
                    .as_ref()
                    .expect("episode requires DLB")
                    .strategy
                    .control();
                match control {
                    Control::Centralized => self.try_calc_central(g, now),
                    Control::Distributed => {
                        for &m in participants.iter() {
                            self.try_calc_local(g, m, now);
                        }
                    }
                }
            }
        }
        self.maybe_close_episode(g, now);
    }

    /// One watchdog retransmission round for group `g`'s episode: re-send
    /// whatever the expected-but-missing messages were — lost work
    /// shipments, unanswered interrupts, profiles missing at a balancer,
    /// and unacted instructions.
    fn retransmit(&mut self, g: usize, now: f64) {
        let control = self
            .cfg
            .as_ref()
            .expect("episode requires DLB")
            .strategy
            .control();
        let (
            episode_id,
            initiator,
            participants,
            profiled,
            sent_profiles,
            central_have,
            local_have,
            acted,
            outcome,
        ) = {
            let e = self.groups[g]
                .episode
                .as_ref()
                .expect("retransmit needs an episode");
            (
                e.id,
                e.initiator,
                Arc::clone(&e.participants),
                e.profiled.clone(),
                e.sent_profiles.clone(),
                e.central_profiles
                    .keys()
                    .copied()
                    .collect::<BTreeSet<usize>>(),
                e.local_profiles
                    .iter()
                    .map(|(&m, profs)| (m, profs.keys().copied().collect::<BTreeSet<usize>>()))
                    .collect::<BTreeMap<usize, BTreeSet<usize>>>(),
                e.acted.clone(),
                e.outcome.clone(),
            )
        };
        // Every liveness query below is about the initiator or a
        // participant (sent_profiles keys are participants too — the
        // fault fixup prunes dead ones), so the snapshot only needs the
        // episode's K members, not all P processors.
        let alive_set: BTreeSet<usize> = participants
            .iter()
            .copied()
            .chain(std::iter::once(initiator))
            .filter(|&m| self.membership.is_alive(m))
            .collect();
        let alive = move |m: usize| alive_set.contains(&m);
        let sender = if alive(initiator) {
            initiator
        } else {
            match participants.iter().copied().find(|&m| alive(m)) {
                Some(m) => m,
                None => return, // nobody left to drive the episode
            }
        };

        // 1. Lost work shipments (sender-side copies).
        let mut stash = Vec::new();
        let mut i = 0;
        while i < self.lost_work.len() {
            if self.lost_work[i].1 == g {
                stash.push(self.lost_work.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for (to, grp, ranges) in stash {
            self.faults.retries += 1;
            let bytes = WORK_HEADER_BYTES + (ranges_len(&ranges) * self.bytes_per_iter) as usize;
            self.send(sender, to, bytes, Payload::Work { group: grp, ranges }, now);
        }

        // 2. Interrupts that never bit: a live participant still
        // computing, unprofiled, with no pending interrupt flag.
        for &m in participants.iter() {
            if alive(m)
                && !profiled.contains(&m)
                && self.state[m] == ProcState::Computing
                && !self.interrupted[m]
            {
                self.faults.retries += 1;
                self.send(
                    sender,
                    m,
                    INTERRUPT_BYTES,
                    Payload::Interrupt {
                        group: g,
                        epoch: self.membership_epoch,
                    },
                    now,
                );
            }
        }

        // 3. Profiles a balancer is missing, re-sent from the sender's
        // copy (also repopulates a promoted master after balancer death).
        match control {
            Control::Centralized => {
                let master = self.balancer_host(g);
                for (&q, prof) in &sent_profiles {
                    if !alive(q) || central_have.contains(&q) {
                        continue;
                    }
                    self.faults.retries += 1;
                    if q == master {
                        self.record_central_profile(g, *prof, now);
                    } else {
                        self.send(
                            q,
                            master,
                            PerfProfile::WIRE_BYTES,
                            Payload::Profile {
                                group: g,
                                profile: *prof,
                                episode: episode_id,
                            },
                            now,
                        );
                    }
                }
            }
            Control::Distributed => {
                for &m in participants.iter() {
                    if !alive(m) {
                        continue;
                    }
                    let have = local_have.get(&m);
                    for (&q, prof) in &sent_profiles {
                        if q == m || !alive(q) || have.is_some_and(|h| h.contains(&q)) {
                            continue;
                        }
                        self.faults.retries += 1;
                        self.send(
                            q,
                            m,
                            PerfProfile::WIRE_BYTES,
                            Payload::Profile {
                                group: g,
                                profile: *prof,
                                episode: episode_id,
                            },
                            now,
                        );
                    }
                }
            }
        }

        // 4. Instructions that never arrived (centralized only — the
        // distributed schemes have no instruction messages).
        if control == Control::Centralized {
            if let Some(out) = outcome {
                let master = self.balancer_host(g);
                for &m in participants.iter() {
                    if !alive(m) || acted.contains(&m) {
                        continue;
                    }
                    self.faults.retries += 1;
                    if m == master {
                        self.act_on_outcome(m, g, &out, now);
                    } else {
                        // Stamped with the *current* epoch: retransmission
                        // is exactly how a view change supersedes stale
                        // in-flight instructions (§S14).
                        self.send(
                            master,
                            m,
                            INSTRUCTION_BYTES,
                            Payload::Instruction {
                                group: g,
                                outcome: Arc::clone(&out),
                                epoch: self.membership_epoch,
                                episode: episode_id,
                            },
                            now,
                        );
                    }
                }
            }
        }
    }

    /// Give up on an episode: resume every live participant with whatever
    /// work it holds, flush this group's lost shipments into live queues,
    /// and let a drained member restart the protocol from scratch.
    fn abort_episode(&mut self, g: usize, now: f64) {
        let Some(e) = self.groups[g].episode.take() else {
            return;
        };
        self.faults.aborted_episodes += 1;
        for &m in e.participants.iter() {
            if self.membership.is_dead(m) {
                continue;
            }
            self.interrupted[m] = false;
            // A shipment parked awaiting this member's (now never-coming)
            // instruction becomes its work outright.
            for (_, ranges) in std::mem::take(&mut self.early_work[m]) {
                for r in ranges {
                    self.queues[m].push_back(r);
                }
            }
            match self.state[m] {
                ProcState::WaitOutcome | ProcState::WaitWork { .. } => self.resume(m, now),
                _ => {}
            }
        }
        // Iterations stuck in the lost-work log must not leak.
        let mut stash = Vec::new();
        let mut i = 0;
        while i < self.lost_work.len() {
            if self.lost_work[i].1 == g {
                stash.push(self.lost_work.swap_remove(i));
            } else {
                i += 1;
            }
        }
        for (to, _, ranges) in stash {
            if self.membership.is_alive(to) {
                for r in ranges {
                    self.queues[to].push_back(r);
                }
                self.wake_if_idle(to, now);
            } else {
                self.reassign_orphan_ranges(to, ranges, now);
            }
        }
        // The aborted episode's boundary admits rejoiners too (§S14),
        // and is an adaptive re-decision point like any other boundary.
        self.episode_boundary_tail(g, now);
    }

    // ------------------------------------------------------------------
    // deliveries

    fn on_deliver(&mut self, to: usize, payload: Payload, now: f64) {
        if self.membership.is_dead(to) {
            // A dead endpoint acknowledges nothing: the transport reports
            // the failure and the sender keeps its copy of any work so
            // iterations cannot vanish with the delivery.
            if let Payload::Work { group, ranges } = payload {
                if self.detected[to] {
                    // Death already handled: route the orphaned shipment
                    // straight to a survivor.
                    self.reassign_orphan_ranges(to, ranges, now);
                } else {
                    self.lost_work.push((to, group, ranges));
                }
            }
            return;
        }
        match payload {
            Payload::Interrupt { group, epoch } => {
                // §S17 staleness guard: after an adaptive switch the
                // group structure itself changed, so an old-regime
                // interrupt's group index is meaningless (it may not
                // even be in range). The guard runs first — any
                // interrupt that survives it carries the current view,
                // so `group` indexes the current `groups`. A mid-episode
                // epoch bump (death, rejoin) is recovered by watchdog
                // retransmission, which re-stamps with the current
                // epoch. Non-adaptive runs never take this branch: their
                // group structure is fixed, and dropping interrupts on
                // fault-driven bumps would change pre-adaptive behavior.
                if self.adaptive.is_some() && epoch < self.membership_epoch {
                    if let Some(a) = self.adaptive.as_mut() {
                        a.report.stale_dropped += 1;
                    }
                    return;
                }
                if !self.active[to] || self.proc_group[to] != group {
                    return;
                }
                match self.state[to] {
                    ProcState::Computing => self.flag_interrupt(to, now),
                    // Drained while the previous episode was closing and
                    // queued to initiate the next one — but a peer beat it
                    // to it: join the peer's episode instead.
                    ProcState::IdlePending => {
                        let join = self.groups[group]
                            .episode
                            .as_ref()
                            .is_some_and(|e| !e.profiled.contains(&to));
                        if join {
                            self.groups[group].pending_initiators.remove(&to);
                            self.send_profile(to, now);
                        }
                    }
                    // Already profiled proactively, waiting, or inactive:
                    // the interrupt is stale.
                    _ => {}
                }
            }
            Payload::Profile {
                group,
                profile,
                episode,
            } => {
                let control = self
                    .cfg
                    .as_ref()
                    .expect("profile delivery under DLB")
                    .strategy
                    .control();
                // Stale if the episode completed or aborted (None) or a
                // fresh one replaced it (id mismatch) — a retransmission
                // duplicate's snapshot must not seed the next episode's
                // balance calculation. Episode ids are engine-global, so
                // an old-regime profile can never match a post-switch
                // episode; `get` covers a group index that a §S17 switch
                // dropped from the group list entirely.
                if self
                    .groups
                    .get(group)
                    .and_then(|gc| gc.episode.as_ref())
                    .map(|e| e.id)
                    != Some(episode)
                {
                    return;
                }
                match control {
                    Control::Centralized => self.record_central_profile(group, profile, now),
                    Control::Distributed => self.record_local_profile(to, group, profile, now),
                }
            }
            Payload::Instruction {
                group,
                outcome,
                epoch,
                episode,
            } => {
                if (self.fault_active || self.adaptive.is_some()) && epoch < self.membership_epoch {
                    // §S14 split-brain guard: the sender's membership
                    // view is stale (a death, rejoin, or §S17 strategy
                    // switch intervened while this was in flight). The
                    // current view's balancer re-sends on the next
                    // watchdog round.
                    if self.fault_active {
                        self.faults.stale_instructions += 1;
                    }
                    if let Some(a) = self.adaptive.as_mut() {
                        a.report.stale_dropped += 1;
                    }
                    return;
                }
                match self
                    .groups
                    .get(group)
                    .and_then(|gc| gc.episode.as_ref())
                    .map(|e| e.id)
                {
                    Some(id) if id == episode => {
                        if epoch < self.membership_epoch {
                            // Unreachable under adaptive (the guard above
                            // returned); counted so the chaos campaign
                            // can machine-check that no stale-regime
                            // instruction ever acts.
                            if let Some(a) = self.adaptive.as_mut() {
                                a.report.stale_applied += 1;
                            }
                        }
                        self.act_on_outcome(to, group, &outcome, now);
                    }
                    Some(_) => {
                        // A retransmission duplicate outlived its episode
                        // and a fresh one is already running: its plan is
                        // dead (the donors' queues moved on). Same fate
                        // as a stale epoch, same counter.
                        self.faults.stale_instructions += 1;
                    }
                    // Aborted while in flight: silently stale (the abort
                    // already resumed everyone).
                    None => {}
                }
            }
            Payload::JoinRequest { proc } => {
                // Admission is a membership decision, taken by the
                // coordinator regardless of the balancing control mode. A
                // request addressed to a since-replaced coordinator is
                // covered by the sender's retry chain.
                if to != self.admission_host(proc)
                    || self.membership.is_dead(proc)
                    || self.state[proc] != ProcState::Rejoining
                {
                    return;
                }
                self.request_admission(proc, now);
            }
            Payload::JoinGrant { epoch } => {
                // Unlike instructions, a grant is honored even if the view
                // moved on — the admission already re-grew the membership
                // and shipped work toward this receiver; refusing it would
                // strand both (the epoch only ever lags, never leads).
                debug_assert!(epoch <= self.membership_epoch, "grant from the future");
                self.apply_join_grant(to, now);
            }
            Payload::Work { group, ranges } => {
                let ProcState::WaitWork { expect } = self.state[to] else {
                    // `early_work` exists solely to credit a pending
                    // `act_on_outcome`: stash only if the receiver is a
                    // live-episode participant whose act is still coming
                    // (the donor's replicated balancer decided — and
                    // shipped — before this receiver finished its own
                    // calculation). Anything else — episode aborted while
                    // the shipment was in flight, a rejoiner (no
                    // participant), an orphan reassignment landing on a
                    // drained non-participant, a duplicate after the act —
                    // keeps the work directly: nothing would ever drain
                    // its stash. Only reachable under faults.
                    // `get`: a rejoin re-expansion shipment can cross a
                    // §S17 switch that dropped its group index; work is
                    // never discarded, so an out-of-range group simply
                    // means "no episode" and the receiver keeps it.
                    let act_pending = self.state[to] != ProcState::Rejoining
                        && self
                            .groups
                            .get(group)
                            .and_then(|gc| gc.episode.as_ref())
                            .is_some_and(|e| {
                                e.participants.contains(&to) && !e.acted.contains(&to)
                            });
                    if act_pending {
                        self.early_work[to].push((group, ranges));
                    } else {
                        for r in ranges {
                            self.queues[to].push_back(r);
                        }
                        self.wake_if_idle(to, now);
                    }
                    return;
                };
                let got = ranges_len(&ranges);
                for r in ranges {
                    self.queues[to].push_back(r);
                }
                let left = expect.saturating_sub(got);
                if left == 0 {
                    if let Some(e) = self
                        .groups
                        .get_mut(group)
                        .and_then(|gc| gc.episode.as_mut())
                    {
                        e.waiting_work.remove(&to);
                    }
                    self.resume(to, now);
                    self.maybe_close_episode(group, now);
                } else {
                    self.state[to] = ProcState::WaitWork { expect: left };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dlb_core::strategy::Strategy;
    use dlb_core::work::UniformLoop;
    use now_load::LoadSpec;

    fn uniform(iters: u64, cost: f64) -> UniformLoop {
        UniformLoop::new(iters, cost, 800)
    }

    #[test]
    fn no_dlb_dedicated_cluster_is_exact() {
        let wl = uniform(100, 0.01);
        let report = Engine::new(ClusterSpec::dedicated(4), &wl, None).run();
        // 25 iterations each at 0.01s on unit-speed unloaded processors.
        assert!(
            (report.total_time - 0.25).abs() < 1e-9,
            "t = {}",
            report.total_time
        );
        assert_eq!(report.total_iters, 100);
        assert_eq!(report.stats.syncs, 0);
    }

    #[test]
    fn no_dlb_slow_processor_dominates() {
        let wl = uniform(100, 0.01);
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[3] = LoadSpec::Constant { level: 3 }; // 4x slowdown
        let report = Engine::new(cluster, &wl, None).run();
        assert!(
            (report.total_time - 1.0).abs() < 1e-9,
            "t = {}",
            report.total_time
        );
    }

    fn run_strategy(strategy: Strategy, loaded: usize, level: u32) -> RunReport {
        let wl = uniform(400, 0.01);
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[loaded] = LoadSpec::Constant { level };
        let cfg = StrategyConfig::paper(strategy, 2);
        Engine::new(cluster, &wl, Some(cfg)).run()
    }

    #[test]
    fn all_strategies_complete_all_iterations() {
        for s in Strategy::ALL {
            let report = run_strategy(s, 3, 4);
            assert_eq!(report.total_iters, 400, "{s} lost work");
            assert!(report.total_time.is_finite());
        }
    }

    #[test]
    fn dlb_beats_no_dlb_under_skewed_load() {
        let wl = uniform(400, 0.01);
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[3] = LoadSpec::Constant { level: 4 }; // 5x slower
        let no = Engine::new(cluster.clone(), &wl, None).run();
        for s in [Strategy::Gcdlb, Strategy::Gddlb] {
            let cfg = StrategyConfig::paper(s, 2);
            let yes = Engine::new(cluster.clone(), &wl, Some(cfg)).run();
            assert!(
                yes.total_time < no.total_time * 0.8,
                "{s}: {} vs noDLB {}",
                yes.total_time,
                no.total_time
            );
            assert!(yes.stats.syncs >= 1);
        }
    }

    #[test]
    fn global_schemes_move_work_once_profitable() {
        let report = run_strategy(Strategy::Gddlb, 3, 4);
        assert!(
            report.stats.redistributions >= 1,
            "stats: {:?}",
            report.stats
        );
        assert!(report.stats.iters_moved > 0);
        assert!(report.stats.bytes_moved > 0);
    }

    #[test]
    fn local_schemes_balance_within_groups_only() {
        // Load sits on processor 1 (group {0,1}); group {2,3} is clean.
        let report = run_strategy(Strategy::Lddlb, 1, 4);
        assert_eq!(report.total_iters, 400);
        // Work can only have moved between 0 and 1 (groups are K-block).
        let p = &report.per_proc;
        assert!(
            p[0].iters_done + p[1].iters_done == 200,
            "local groups must conserve work"
        );
    }

    #[test]
    fn deterministic_runs() {
        let a = run_strategy(Strategy::Gcdlb, 2, 3);
        let b = run_strategy(Strategy::Gcdlb, 2, 3);
        assert_eq!(a.total_time, b.total_time);
        assert_eq!(a.stats, b.stats);
        assert_eq!(a.sync_times, b.sync_times);
    }

    #[test]
    fn balanced_dedicated_cluster_syncs_but_moves_nothing() {
        let wl = uniform(400, 0.01);
        let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
        let report = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg)).run();
        assert_eq!(report.total_iters, 400);
        // Everyone finishes at once; one sync round at most, no movement.
        assert_eq!(report.stats.iters_moved, 0);
    }

    #[test]
    fn paper_random_load_all_strategies_finish() {
        let wl = uniform(400, 0.02);
        let cluster = ClusterSpec::paper_homogeneous(4, 7, 0.5);
        let no = Engine::new(cluster.clone(), &wl, None).run();
        assert_eq!(no.total_iters, 400);
        for s in Strategy::ALL {
            let cfg = StrategyConfig::paper(s, 2);
            let r = Engine::new(cluster.clone(), &wl, Some(cfg)).run();
            assert_eq!(r.total_iters, 400, "{s}");
            assert!(r.total_time > 0.0 && r.total_time.is_finite());
        }
    }

    #[test]
    fn more_processors_than_iterations() {
        let wl = uniform(3, 0.01);
        let report = Engine::new(ClusterSpec::dedicated(8), &wl, None).run();
        assert_eq!(report.total_iters, 3);
    }

    #[test]
    fn single_processor_runs_serially() {
        let wl = uniform(50, 0.01);
        let cfg = StrategyConfig::paper(Strategy::Gcdlb, 1);
        let report = Engine::new(ClusterSpec::dedicated(1), &wl, Some(cfg)).run();
        assert_eq!(report.total_iters, 50);
        assert!((report.total_time - 0.5).abs() < 1e-9);
        assert_eq!(report.stats.syncs, 0, "nobody to balance with");
    }

    #[test]
    fn heterogeneous_speeds_balance_toward_fast_processor() {
        let wl = uniform(600, 0.01);
        let cluster = ClusterSpec::heterogeneous(vec![4.0, 1.0]);
        let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
        let report = Engine::new(cluster, &wl, Some(cfg)).run();
        assert_eq!(report.total_iters, 600);
        assert!(
            report.per_proc[0].iters_done > report.per_proc[1].iters_done * 2,
            "fast processor should do the bulk: {:?}",
            report.per_proc
        );
    }

    // ------------------------------------------------------------------
    // fault injection

    use now_fault::{DelaySpec, FailurePolicy, FaultPlan, LossSpec, StallSpec};

    fn run_faulty(strategy: Strategy, plan: FaultPlan) -> RunReport {
        let wl = uniform(400, 0.01);
        let cluster = ClusterSpec::dedicated(4);
        let cfg = StrategyConfig::paper(strategy, 2);
        Engine::new(cluster, &wl, Some(cfg))
            .with_faults(plan, FailurePolicy::default())
            .run()
    }

    #[test]
    fn empty_plan_is_identical_to_no_faults() {
        for s in Strategy::ALL {
            let plain = run_strategy(s, 3, 4);
            let wl = uniform(400, 0.01);
            let mut cluster = ClusterSpec::dedicated(4);
            cluster.loads[3] = LoadSpec::Constant { level: 4 };
            let cfg = StrategyConfig::paper(s, 2);
            let faulty = Engine::new(cluster, &wl, Some(cfg))
                .with_faults(FaultPlan::none(), FailurePolicy::default())
                .run();
            assert_eq!(plain, faulty, "{s}: empty plan must not perturb the run");
        }
    }

    #[test]
    fn single_crash_every_strategy_terminates_and_conserves() {
        for s in Strategy::ALL {
            let report = run_faulty(s, FaultPlan::crash(3, 0.3));
            // The engine's own final assert already guarantees done ==
            // workload iterations; re-check through the report.
            assert_eq!(report.total_iters, 400, "{s} lost iterations");
            assert!(report.total_time.is_finite(), "{s} never terminated");
            let f = report.faults.expect("fault plan was active");
            assert_eq!(f.crashes_injected, 1, "{s}");
            assert_eq!(f.detections.len(), 1, "{s}");
            assert_eq!(f.detections[0].proc, 3, "{s}");
            assert!(f.detections[0].detected_at >= 0.3, "{s}");
            // The dead processor stops; survivors absorb its share.
            let survivors: u64 = (0..3).map(|i| report.per_proc[i].iters_done).sum();
            assert_eq!(survivors + report.per_proc[3].iters_done, 400, "{s}");
            assert!(
                report.per_proc[3].iters_done < 100,
                "{s}: dead proc did a full share"
            );
        }
    }

    #[test]
    fn master_crash_promotes_and_completes() {
        // Processor 0 hosts the central balancer in GCDLB; kill it.
        let report = run_faulty(Strategy::Gcdlb, FaultPlan::crash(0, 0.2));
        assert_eq!(report.total_iters, 400);
        let f = report.faults.expect("fault plan was active");
        assert_eq!(f.detections.len(), 1);
        assert!(
            f.iters_recovered > 0,
            "the dead master held unexecuted work"
        );
    }

    #[test]
    fn two_crashes_still_conserve() {
        let mut plan = FaultPlan::crash(1, 0.25);
        plan.crashes.push(now_fault::CrashSpec { proc: 2, at: 0.6 });
        for s in Strategy::ALL {
            let report = run_faulty(s, plan.clone());
            assert_eq!(report.total_iters, 400, "{s}");
            let f = report.faults.expect("fault plan was active");
            assert_eq!(f.crashes_injected, 2, "{s}");
            assert_eq!(f.detections.len(), 2, "{s}");
        }
    }

    #[test]
    fn detection_latency_bounded_by_heartbeat_interval() {
        let policy = FailurePolicy::default();
        let wl = uniform(2000, 0.01);
        let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
        let report = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg))
            .with_faults(FaultPlan::crash(2, 0.5), policy)
            .run();
        let f = report.faults.expect("fault plan was active");
        let d = &f.detections[0];
        // Watchdog may detect earlier; the heartbeat sweep is the
        // worst-case backstop.
        assert!(
            d.latency() <= policy.heartbeat_interval + 1e-9,
            "latency {} exceeds heartbeat interval",
            d.latency()
        );
    }

    #[test]
    fn stall_displaces_finish_time() {
        let wl = uniform(100, 0.01);
        let plain = Engine::new(ClusterSpec::dedicated(4), &wl, None).run();
        let plan = FaultPlan {
            stalls: vec![StallSpec {
                proc: 0,
                from: 0.1,
                until: 0.6,
            }],
            ..FaultPlan::default()
        };
        let stalled = Engine::new(ClusterSpec::dedicated(4), &wl, None)
            .with_faults(plan, FailurePolicy::default())
            .run();
        assert_eq!(stalled.total_iters, 100);
        // 0.25s of compute, frozen from 0.1 for 0.5s: finish at 0.75.
        assert!((plain.total_time - 0.25).abs() < 1e-9);
        assert!(
            (stalled.total_time - 0.75).abs() < 1e-9,
            "t = {}",
            stalled.total_time
        );
    }

    #[test]
    fn message_loss_is_retransmitted_to_completion() {
        let plan = FaultPlan {
            loss: Some(LossSpec {
                prob: 0.2,
                seed: 11,
            }),
            ..FaultPlan::default()
        };
        for s in Strategy::ALL {
            let wl = uniform(400, 0.01);
            let mut cluster = ClusterSpec::dedicated(4);
            cluster.loads[3] = LoadSpec::Constant { level: 4 };
            let cfg = StrategyConfig::paper(s, 2);
            let report = Engine::new(cluster, &wl, Some(cfg))
                .with_faults(plan.clone(), FailurePolicy::default())
                .run();
            assert_eq!(
                report.total_iters, 400,
                "{s} lost iterations to dropped messages"
            );
            let f = report.faults.expect("fault plan was active");
            if f.messages_dropped > 0 {
                assert!(
                    f.retries > 0 || f.aborted_episodes > 0,
                    "{s}: drops must be recovered by retransmission or abort"
                );
            }
        }
    }

    #[test]
    fn delay_inflation_slows_protocol_but_conserves() {
        let plan = FaultPlan {
            delay: Some(DelaySpec {
                factor: 50.0,
                from: 0.0,
                until: 1e9,
            }),
            ..FaultPlan::default()
        };
        let wl = uniform(400, 0.01);
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[3] = LoadSpec::Constant { level: 4 };
        let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
        let fast = Engine::new(cluster.clone(), &wl, Some(cfg)).run();
        let slow = Engine::new(cluster, &wl, Some(cfg))
            .with_faults(plan, FailurePolicy::default())
            .run();
        assert_eq!(slow.total_iters, 400);
        let f = slow.faults.expect("fault plan was active");
        assert!(f.messages_delayed > 0);
        assert!(
            slow.total_time >= fast.total_time,
            "inflated latency cannot speed the run up: {} vs {}",
            slow.total_time,
            fast.total_time
        );
    }

    #[test]
    fn crash_runs_are_deterministic() {
        let a = run_faulty(Strategy::Lcdlb, FaultPlan::crash(1, 0.3));
        let b = run_faulty(Strategy::Lcdlb, FaultPlan::crash(1, 0.3));
        assert_eq!(a, b);
    }

    #[test]
    fn crash_under_external_load_conserves() {
        for s in Strategy::ALL {
            let wl = uniform(400, 0.02);
            let cluster = ClusterSpec::paper_homogeneous(4, 7, 0.5);
            let cfg = StrategyConfig::paper(s, 2);
            let report = Engine::new(cluster, &wl, Some(cfg))
                .with_faults(FaultPlan::crash(2, 0.4), FailurePolicy::default())
                .run();
            assert_eq!(report.total_iters, 400, "{s}");
        }
    }

    #[test]
    #[should_panic(expected = "all 2 processors crash")]
    fn with_faults_rejects_unfinishable_plan() {
        let wl = uniform(10, 0.01);
        let mut plan = FaultPlan::crash(0, 0.1);
        plan.crashes.push(now_fault::CrashSpec { proc: 1, at: 0.1 });
        let _ = Engine::new(ClusterSpec::dedicated(2), &wl, None)
            .with_faults(plan, FailurePolicy::default());
    }

    // ------------------------------------------------------------------
    // §S14 rejoin & partition tolerance

    use now_fault::{PartitionSpec, RecoverSpec};

    #[test]
    fn rejoined_processor_receives_work() {
        // A long run with a mid-run crash and a recovery well before the
        // end: the rejoin handshake must admit the processor and the
        // re-expansion must ship it work it then executes.
        let wl = uniform(4000, 0.01);
        let plan = FaultPlan {
            crashes: vec![now_fault::CrashSpec { proc: 3, at: 0.5 }],
            recoveries: vec![RecoverSpec { proc: 3, at: 1.0 }],
            ..FaultPlan::default()
        };
        for s in Strategy::ALL {
            let cfg = StrategyConfig::paper(s, 2);
            let report = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg))
                .with_faults(plan.clone(), FailurePolicy::default())
                .run();
            assert_eq!(report.total_iters, 4000, "{s} lost iterations");
            let f = report.faults.expect("fault plan was active");
            assert_eq!(f.recoveries, 1, "{s}");
            assert_eq!(f.rejoins.len(), 1, "{s}: one rejoin record expected");
            let r = &f.rejoins[0];
            assert_eq!(r.proc, 3, "{s}");
            assert!(r.recovered_at >= 1.0, "{s}");
            assert!(
                r.admitted_at >= r.recovered_at,
                "{s}: admission precedes recovery"
            );
            assert!(
                r.iters_after_rejoin > 0,
                "{s}: rejoined processor never got work ({r:?})"
            );
        }
    }

    #[test]
    fn all_procs_crash_but_one_recovers_conserves() {
        // Every processor crashes, but one comes back: the plan is valid
        // (the AllProcsCrash check accounts for recoveries) and the
        // orphaned work parks in limbo until the survivor drains it.
        let wl = uniform(50, 0.01);
        let plan = FaultPlan {
            crashes: vec![
                now_fault::CrashSpec { proc: 0, at: 0.08 },
                now_fault::CrashSpec { proc: 1, at: 0.11 },
            ],
            recoveries: vec![RecoverSpec { proc: 1, at: 0.4 }],
            ..FaultPlan::default()
        };
        let report = Engine::new(ClusterSpec::dedicated(2), &wl, None)
            .with_faults(plan.clone(), FailurePolicy::default())
            .run();
        assert_eq!(report.total_iters, 50, "noDLB limbo drain lost work");

        let cfg = StrategyConfig::paper(Strategy::Gcdlb, 2);
        let report = Engine::new(ClusterSpec::dedicated(2), &wl, Some(cfg))
            .with_faults(plan, FailurePolicy::default())
            .run();
        assert_eq!(report.total_iters, 50, "DLB limbo drain lost work");
        let f = report.faults.expect("fault plan was active");
        assert_eq!(f.recoveries, 1);
    }

    #[test]
    fn partition_heals_without_death_declarations() {
        // A bidirectional link cut between 0 and 1: messages on the cut
        // links are lost (driving the watchdog/abort machinery), but a
        // partition is not a crash — no detection may fire, no rejoin is
        // recorded, and the membership at the end is the full cluster.
        let wl = uniform(800, 0.01);
        let plan = FaultPlan {
            partitions: vec![
                PartitionSpec {
                    from: 0,
                    to: 1,
                    start: 0.2,
                    heal: 1.2,
                },
                PartitionSpec {
                    from: 1,
                    to: 0,
                    start: 0.2,
                    heal: 1.2,
                },
            ],
            ..FaultPlan::default()
        };
        for s in Strategy::ALL {
            let mut cluster = ClusterSpec::dedicated(4);
            cluster.loads[1] = LoadSpec::Constant { level: 4 };
            let cfg = StrategyConfig::paper(s, 2);
            let report = Engine::new(cluster, &wl, Some(cfg))
                .with_faults(plan.clone(), FailurePolicy::default())
                .run();
            assert_eq!(report.total_iters, 800, "{s} lost iterations");
            let f = report.faults.expect("fault plan was active");
            assert!(
                f.detections.is_empty(),
                "{s}: partition must not declare deaths: {:?}",
                f.detections
            );
            assert!(f.rejoins.is_empty(), "{s}: nobody crashed");
            // Every processor survived to the end and did work.
            for p in &report.per_proc {
                assert!(p.iters_done > 0, "{s}: processor starved: {p:?}");
            }
        }
    }

    #[test]
    fn fallback_reason_is_a_property_of_the_window() {
        // One window holding a foreign event (a pending calculation) and
        // a fault-class one (a crash): the fast-forward must blame the
        // fault plan whatever order the heap stores them in. Filler
        // events past the window reshape the heap between cases.
        let wl = uniform(40, 0.01);
        let cfg = StrategyConfig::paper(Strategy::Gcdlb, 2);
        let pidx = vec![usize::MAX; 4];
        for (order, fillers) in [(0, 0), (1, 0), (0, 7), (1, 13)] {
            let mut engine = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg))
                .with_faults(FaultPlan::crash(3, 50.0), FailurePolicy::default());
            for i in 0..fillers {
                engine.push_event(2.0 + i as f64, EvKind::PeriodicTick);
            }
            let foreign = (0.5, EvKind::CalcCentral { group: 0 });
            let fault = (0.6, EvKind::Crash { proc: 3 });
            let (a, b) = if order == 0 {
                (foreign, fault)
            } else {
                (fault, foreign)
            };
            engine.push_event(a.0, a.1);
            engine.push_event(b.0, b.1);
            let case = format!("order {order}, {fillers} fillers");
            assert_eq!(
                engine.window_interference(&pidx, 1.0),
                Some(FallbackReason::Fault),
                "{case}"
            );
            assert_eq!(
                engine.window_interference(&pidx, 0.55),
                Some(FallbackReason::Foreign),
                "{case}: only the calculation is in this window"
            );
            assert_eq!(engine.window_interference(&pidx, 0.4), None, "{case}");
        }
    }

    #[test]
    fn stale_epoch_instruction_is_discarded() {
        // Direct check of the split-brain guard: an instruction stamped
        // with an older membership epoch is dead on arrival.
        let wl = uniform(40, 0.01);
        let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
        let mut engine = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg))
            .with_faults(FaultPlan::crash(3, 50.0), FailurePolicy::default());
        engine.membership_epoch = 2;
        let outcome = Arc::new(IndexedOutcome::from(BalanceOutcome {
            verdict: BalanceVerdict::BelowThreshold,
            new_counts: vec![],
            transfers: vec![],
            moved: 0,
            predicted_old: 0.0,
            predicted_new: 0.0,
        }));
        engine.on_deliver(
            1,
            Payload::Instruction {
                group: 0,
                outcome: Arc::clone(&outcome),
                epoch: 1,
                episode: 0,
            },
            0.1,
        );
        assert_eq!(
            engine.faults.stale_instructions, 1,
            "stale-epoch instruction must be counted and dropped"
        );
        // A current-epoch instruction passes the guard (and is then a
        // no-op only because no episode is open).
        engine.on_deliver(
            1,
            Payload::Instruction {
                group: 0,
                outcome,
                epoch: 2,
                episode: 0,
            },
            0.2,
        );
        assert_eq!(engine.faults.stale_instructions, 1);
    }

    #[test]
    fn crash_recover_crash_conserves() {
        // The same processor crashes, rejoins, and crashes again: both
        // confiscations must conserve, and the final membership excludes
        // it.
        let wl = uniform(4000, 0.01);
        let plan = FaultPlan {
            crashes: vec![
                now_fault::CrashSpec { proc: 2, at: 0.4 },
                now_fault::CrashSpec { proc: 2, at: 2.0 },
            ],
            recoveries: vec![RecoverSpec { proc: 2, at: 1.0 }],
            ..FaultPlan::default()
        };
        for s in Strategy::ALL {
            let cfg = StrategyConfig::paper(s, 2);
            let report = Engine::new(ClusterSpec::dedicated(4), &wl, Some(cfg))
                .with_faults(plan.clone(), FailurePolicy::default())
                .run();
            assert_eq!(report.total_iters, 4000, "{s} lost iterations");
            let f = report.faults.expect("fault plan was active");
            assert_eq!(f.crashes_injected, 2, "{s}");
            assert_eq!(f.recoveries, 1, "{s}");
        }
    }

    #[test]
    fn adaptive_stale_epoch_messages_are_dropped() {
        // §S17 guard: once a switch (or any membership change) bumps the
        // epoch, old-regime interrupts and instructions are dead on
        // arrival — counted as dropped, never applied.
        let acfg = dlb_core::AdaptiveConfig::paper(Strategy::Gddlb, 2);
        let wl = uniform(40, 0.01);
        let mut engine =
            Engine::new(ClusterSpec::dedicated(4), &wl, Some(acfg.initial)).with_adaptive(acfg);
        engine.membership_epoch = 2;
        engine.on_deliver(1, Payload::Interrupt { group: 0, epoch: 1 }, 0.1);
        let outcome = Arc::new(IndexedOutcome::from(BalanceOutcome {
            verdict: BalanceVerdict::BelowThreshold,
            new_counts: vec![],
            transfers: vec![],
            moved: 0,
            predicted_old: 0.0,
            predicted_new: 0.0,
        }));
        engine.on_deliver(
            1,
            Payload::Instruction {
                group: 0,
                outcome: Arc::clone(&outcome),
                epoch: 1,
                episode: 0,
            },
            0.2,
        );
        {
            let rep = &engine.adaptive.as_ref().expect("adaptive engine").report;
            assert_eq!(rep.stale_dropped, 2, "both stale messages dropped");
            assert_eq!(rep.stale_applied, 0);
        }
        // Current-epoch messages pass the guard untouched.
        engine.on_deliver(1, Payload::Interrupt { group: 0, epoch: 2 }, 0.3);
        engine.on_deliver(
            1,
            Payload::Instruction {
                group: 0,
                outcome,
                epoch: 2,
                episode: 0,
            },
            0.4,
        );
        let rep = &engine.adaptive.as_ref().expect("adaptive engine").report;
        assert_eq!(rep.stale_dropped, 2, "current-epoch messages are not stale");
        assert_eq!(rep.stale_applied, 0);
    }

    #[test]
    fn adaptive_without_drift_matches_static_run() {
        // A stable run never clears the hysteresis gate: the adaptive
        // wrapper must be timing-invisible — byte-identical dynamics to
        // the static run it started on, plus the accounting block.
        let wl = uniform(400, 0.01);
        let mut cluster = ClusterSpec::dedicated(4);
        cluster.loads[3] = LoadSpec::Constant { level: 4 };
        let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
        let stat = Engine::new(cluster.clone(), &wl, Some(cfg)).run();
        let acfg = dlb_core::AdaptiveConfig::paper(Strategy::Gddlb, 2);
        let adap = Engine::new(cluster, &wl, Some(cfg))
            .with_adaptive(acfg)
            .run();
        assert_eq!(stat.total_time, adap.total_time);
        assert_eq!(stat.stats, adap.stats);
        assert_eq!(stat.sync_times, adap.sync_times);
        assert_eq!(stat.per_proc, adap.per_proc);
        let a = adap.adaptive.expect("adaptive run reports accounting");
        assert_eq!(a.final_strategy, Strategy::Gddlb);
        assert_eq!(a.mid_episode_switches, 0);
        assert_eq!(a.stale_applied, 0);
    }

    #[test]
    fn ff_fallback_reasons_partition_the_fallbacks() {
        // The per-reason counters must account for every fallback: their
        // sum (plus switch-forced replays) equals `episodes_fallback`.
        let wl = uniform(2000, 0.01);
        let mut cluster = ClusterSpec::dedicated(6);
        cluster.loads[4] = LoadSpec::Constant { level: 3 };
        let cfg = StrategyConfig::paper(Strategy::Gddlb, 2);
        let (_, c) = Engine::new(cluster, &wl, Some(cfg))
            .with_mode(EngineMode::Episode)
            .with_faults(FaultPlan::crash(5, 0.5), FailurePolicy::default())
            .run_counted();
        assert_eq!(
            c.episodes_fallback,
            c.ff_fallback_foreign
                + c.ff_fallback_fault
                + c.ff_fallback_delay
                + c.ff_fallback_switch,
            "counters: {c:?}"
        );
    }
}
