//! Episode fast-forward: analytic replay of one synchronization episode.
//!
//! The paper's Section-3 protocol is a *deterministic episode*: once an
//! initiator drains its queue, the interrupt fan-out, profile collection,
//! balance calculation, instruction delivery, and work shipment unfold as
//! a pure function of current state and `now-net` latencies. This module
//! exploits that: instead of pushing every message through the global
//! event heap, it replays the whole episode in a private mini event loop
//! — every message through the exact [`EpisodeSchedule`] float arithmetic
//! (the same [`now_net::ContentionState::schedule`] core the event loop
//! uses), every handler a line-for-line mirror of the engine's, every
//! event ordered by the same `(time, seq)` key with the seed events
//! carrying their *real* heap sequence numbers — and then commits the
//! final state in one step, emitting a single `EpisodeDone` marker.
//!
//! # Identity argument
//!
//! The committed run is byte-identical to [`EngineMode::Batched`] because
//! the replay is not an approximation but the same computation:
//!
//! * **Same float ops, same order.** Message times come from
//!   [`EpisodeSchedule::send`], which calls the identical contention core
//!   on a snapshot of the medium; block boundaries come from
//!   [`Engine::block_boundaries`], the same chain `schedule_block` uses;
//!   work/iteration accumulation mirrors `settle_block_to`'s summation
//!   order. IEEE-754 addition is not reassociated anywhere.
//! * **Same event order.** The mini heap orders by `(time, seq)`. Seed
//!   `BlockDone` events reuse the real heap's sequence numbers
//!   ([`BlockRun::seq`]); replay-scheduled events draw from a counter
//!   that starts at the engine's and increments once per push, in the
//!   same program order the engine would push — so exact-time ties
//!   resolve identically.
//! * **No hidden interference.** Before committing, the real heap's
//!   events at or before the close are scanned — a pruned walk that never
//!   visits an event past the window: any of them that is not
//!   provably a no-op (a stale-epoch block event, a participant's
//!   consumed seed, a stale watchdog, an `EpisodeDone` marker) aborts the
//!   replay, and the episode falls back to the ordinary per-message path
//!   — for that episode only. Sequence numbers of *skipped* events shift
//!   later events' numbers uniformly, which preserves every relative
//!   order; only an exact float time tie between a skipped event and a
//!   foreign one could reorder, and such a tie aborts via the scan.
//!
//! # Fallback (abort) conditions
//!
//! * a participant with a pending interrupt flag, or a Computing
//!   participant without a scheduled block (stale protocol state);
//! * a dead-but-undetected processor anywhere (its `handle_death` may
//!   mutate participant queues at this very instant);
//! * a replayed message that the fault plan drops or that crosses a cut
//!   (partitioned) link — inflated *delay* is fine: the replay stretches
//!   the delivery time through the same [`now_net::stretch_delivery`]
//!   arithmetic the event loop uses;
//! * a fault-mode episode whose watchdog would fire inside the window
//!   (`t₀ + sync_timeout ≤ T`);
//! * any non-benign heap event at or before the episode's close `T`:
//!   crashes, heartbeat ticks, periodic ticks, foreign deliveries,
//!   balancer calculations, or a live block event of a non-participant.
//!   The fallback is blamed on the fault plan if any fault-class event
//!   (crash, recovery, join retry, heartbeat, live watchdog) lies in the
//!   window, and on foreign traffic otherwise — a property of the window,
//!   not of the order the heap happens to store it in. Without a fault
//!   plan no fault-class event exists, so the first non-benign event's
//!   time is a *horizon*: the replay stops as soon as it reaches it, since
//!   an episode still open then cannot commit.
//!
//! # Cost
//!
//! Every per-attempt cost is O(K + T log T + messages) for K participants
//! and T planned transfers, with no term in the processor count P (the
//! P-sized `pidx` table is reset in O(K)): the medium
//! snapshot copies only the episode's lanes ([`EpisodeSchedule`]), the
//! act phase reads the outcome's [`dlb_core::TransferIndex`], and the
//! heap walks visit only events before the horizon or inside the window.
//! In fault-free distributed episodes each profile's all-to-all burst
//! computes the sender's CPU factor once and runs its K−1 contention
//! updates in one loop ([`EpisodeSchedule::send_burst`]).
//!
//! Work arrivals from outside the episode can only be caused by such
//! events, so "no work arrival inside the window" is implied by the scan.

use super::*;
use now_net::medium::EndpointFactors;
use now_net::EpisodeSchedule;

/// Replay-local event kinds — mirrors of the engine events an episode
/// generates, specialized to one group.
#[derive(Debug)]
enum FfKind {
    /// A participant's scheduled block completes (seeded or replayed).
    BlockDone {
        p: usize,
        epoch: u64,
    },
    /// Interrupt landed mid-block: settle at this boundary.
    Settle {
        p: usize,
        epoch: u64,
    },
    Interrupt {
        to: usize,
    },
    Instruction {
        to: usize,
    },
    Work {
        to: usize,
        ranges: Vec<Range<u64>>,
    },
    CalcCentral,
    CalcLocal {
        p: usize,
    },
}

#[derive(Debug)]
struct FfEv {
    time: f64,
    /// Same-time tie stamp, mirroring [`Ev::tie`] — the replay must
    /// order coincident events exactly as the real loop would, and
    /// leftover events re-pushed at commit must carry their real key.
    tie: f64,
    /// Mirror of [`Ev::pkey`]: processor id for compute events, so
    /// `(time, tie)` collisions between different participants resolve
    /// the same way in the replay as in the real loop.
    pkey: u32,
    seq: u64,
    kind: FfKind,
}

impl PartialEq for FfEv {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time
            && self.tie == other.tie
            && self.pkey == other.pkey
            && self.seq == other.seq
    }
}
impl Eq for FfEv {}
impl PartialOrd for FfEv {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FfEv {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.tie.total_cmp(&other.tie))
            .then(self.pkey.cmp(&other.pkey))
            .then(self.seq.cmp(&other.seq))
    }
}

/// A participant's shadow block. Seeded blocks (`owned == false`) read
/// their boundaries from the engine's real [`BlockRun`]; replay-scheduled
/// blocks own a pooled boundary buffer.
#[derive(Debug, Default)]
struct FfBlock {
    live: bool,
    owned: bool,
    first: u64,
    done: u64,
    bounds: Vec<f64>,
    end: f64,
    /// Schedule moment — the tie anchor for the first boundary
    /// (mirrors [`BlockRun::started`]).
    started: f64,
}

/// Pooled scratch for the fast-forward: every buffer survives across
/// episodes, so a steady-state replay allocates nothing. Flat vectors
/// indexed by participant position replace the real episode's per-field
/// `BTreeMap`s/`BTreeSet`s — this is where the per-episode map churn of
/// the per-message path goes away.
#[derive(Debug, Default)]
pub(super) struct FfScratch {
    heap: MinHeap<FfEv>,
    net: Option<EpisodeSchedule>,
    /// Participant list, sorted ascending (the episode's order).
    parts: Vec<usize>,
    /// Medium nodes of the episode's schedule lanes: the participants in
    /// order (lane = participant index), then the balancer host if it is
    /// not one of them (lane `parts.len()`).
    lanes: Vec<usize>,
    /// Profile burst scratch: `(receiver lane, receive factor)` and the
    /// delivery times, in participant order.
    burst: Vec<(usize, f64)>,
    delivered: Vec<f64>,
    /// The previous episode's participants — the only `pidx` entries
    /// that are not `usize::MAX` between runs, so the next snapshot can
    /// reset them in O(K) instead of re-zeroing all P.
    prev_parts: Vec<usize>,
    /// proc → participant index (`usize::MAX` = not a participant).
    pidx: Vec<usize>,
    /// Full-processor shadow of `finished_at` (senders touch it).
    finished_at: Vec<f64>,

    // --- per-participant shadows (len = parts.len()) ---
    state: Vec<ProcState>,
    active: Vec<bool>,
    interrupted: Vec<bool>,
    window_start: Vec<f64>,
    window_iters: Vec<u64>,
    iters_done: Vec<u64>,
    work_done: Vec<f64>,
    queues: Vec<WorkQueue>,
    blocks: Vec<FfBlock>,
    epoch: Vec<u64>,
    profiled: Vec<bool>,
    acted: Vec<bool>,
    waiting: Vec<bool>,
    idle_pending: Vec<bool>,
    early: Vec<Vec<Vec<Range<u64>>>>,

    // --- episode bookkeeping ---
    /// Profile store in participant (= proc) order: the same iteration
    /// order a `BTreeMap<usize, PerfProfile>` would yield.
    profiles: Vec<Option<PerfProfile>>,
    central_count: usize,
    /// Latest profile arrival at the central master so far.
    central_latest: f64,
    local_count: Vec<usize>,
    /// Latest profile arrival per member (distributed control).
    prof_latest: Vec<f64>,
    outcome: Option<Arc<IndexedOutcome>>,
    recorded: bool,
    sync_time: f64,
    acted_count: usize,
    waiting_count: usize,

    // --- shadow globals ---
    seq: u64,
    msg_seq: u64,
    /// Balancer host and role for the episode's group — `self.master` /
    /// role 0 in the flat layout, the level-1 domain master under a
    /// hierarchy (§S16).
    host: usize,
    role: usize,
    mbu: f64,
    ctrl_msgs: u64,
    xfer_msgs: u64,
    bytes_moved: u64,
    delayed_msgs: u64,

    // --- replay control ---
    aborted: bool,
    closed: Option<f64>,
    profs: Vec<PerfProfile>,
    /// Why the replay bailed, for the per-reason fallback counters.
    /// Only meaningful when `ff_run` returned `false`.
    reason: FallbackReason,
}

impl FfScratch {
    /// Schedule lane of a send endpoint (a participant or the host).
    fn lane(&self, node: usize) -> usize {
        match self.pidx[node] {
            usize::MAX => {
                debug_assert_eq!(node, self.host, "episode endpoints are members or the host");
                self.parts.len()
            }
            i => i,
        }
    }
}

impl<'w> Engine<'w> {
    /// Attempt to fast-forward the episode `initiator` is starting for
    /// group `g` at `now`. On success the episode's entire effect —
    /// messages, balancer decision, work shipments, resumes — is
    /// committed and `true` is returned; the caller must not run the
    /// per-message path. On abort, engine state is untouched (only the
    /// pure load-span cache may have warmed) and `false` falls back to
    /// the ordinary `start_episode` body.
    pub(super) fn try_fast_forward(
        &mut self,
        g: usize,
        initiator: usize,
        peers: &[usize],
        now: f64,
    ) -> bool {
        debug_assert!(self.groups[g].episode.is_none(), "episode already open");
        // §S17: the first episode each group runs under a freshly switched
        // strategy replays per-message — the switch re-seeded roles and
        // membership, and the per-message path re-establishes the
        // steady-state invariants the fast-forward assumes.
        if let Some(a) = self.adaptive.as_mut() {
            if a.replay_next.get(g).copied().unwrap_or(false) {
                a.replay_next[g] = false;
                self.counters.episodes_fallback += 1;
                self.counters.ff_fallback_switch += 1;
                return false;
            }
        }
        let mut s = std::mem::take(&mut self.ff);
        let ok = self.ff_run(&mut s, g, initiator, peers, now);
        if ok {
            self.counters.episodes_fast_forwarded += 1;
            let t_close = s.closed.expect("committed episode must have closed");
            self.ff_commit(&mut s, g, t_close);
            self.ff = s;
            // Mirror `maybe_close_episode`'s tail: the close is an episode
            // boundary — rejoin admissions, the next initiator, and (§S17)
            // a possible adaptive re-decision all hang off it.
            self.episode_boundary_tail(g, t_close);
        } else {
            self.counters.episodes_fallback += 1;
            match s.reason {
                FallbackReason::Foreign => self.counters.ff_fallback_foreign += 1,
                FallbackReason::Fault => self.counters.ff_fallback_fault += 1,
                FallbackReason::Delay => self.counters.ff_fallback_delay += 1,
            }
            self.ff_recycle(&mut s);
            self.ff = s;
        }
        ok
    }

    /// Seed, replay, and validate one episode in the scratch. Returns
    /// `true` if the replay closed cleanly and the heap scan found no
    /// interference.
    fn ff_run(
        &mut self,
        s: &mut FfScratch,
        g: usize,
        initiator: usize,
        peers: &[usize],
        now: f64,
    ) -> bool {
        let p = self.cluster.processors();
        s.reason = FallbackReason::Foreign;

        // --- preconditions -------------------------------------------
        if self.fault_active && !self.undetected.is_empty() {
            // A dead-but-undetected processor means a `handle_death` can
            // run at this very instant (we may be *inside* its wake-up
            // cascade) and mutate participant queues after our snapshot.
            s.reason = FallbackReason::Fault;
            return false;
        }

        // --- snapshot ------------------------------------------------
        s.parts.clear();
        s.parts.extend_from_slice(peers);
        s.parts.push(initiator);
        s.parts.sort_unstable();
        let k = s.parts.len();

        // `pidx` must read `usize::MAX` for every non-participant (the
        // heap scan probes arbitrary procs), but rebuilding all P entries
        // per episode is exactly the O(P) this path avoids: un-mark the
        // *previous* episode's K entries instead. `prev_parts` holds them
        // — `parts` itself was just overwritten above.
        if s.pidx.len() == p {
            for &m in &s.prev_parts {
                s.pidx[m] = usize::MAX;
            }
            debug_assert!(s.pidx.iter().all(|&i| i == usize::MAX));
        } else {
            s.pidx.clear();
            s.pidx.resize(p, usize::MAX);
        }
        for (i, &m) in s.parts.iter().enumerate() {
            s.pidx[m] = i;
        }
        s.prev_parts.clone_from(&s.parts);

        // Without a fault plan every fallback is `Foreign`, and the window
        // check after the replay fails exactly when some non-benign real
        // event lies at or before the close (which is no earlier than
        // `now`). So the replay can stop at the first such event's time:
        // an episode still open then cannot commit. Nearly every
        // local-strategy attempt at large P ends this way.
        let horizon = if self.fault_active {
            f64::INFINITY
        } else {
            self.interference_horizon(&s.pidx)
        };
        if horizon <= now {
            return false;
        }

        // The shadow `finished_at` is only read/written for send
        // endpoints — participants and the balancer host — so copy just
        // those lanes instead of cloning all P.
        let host = self.balancer_host(g);
        if s.finished_at.len() != p {
            s.finished_at.clear();
            s.finished_at.resize(p, 0.0);
        }
        for &m in &s.parts {
            s.finished_at[m] = self.finished_at[m];
        }
        s.finished_at[host] = self.finished_at[host];
        s.lanes.clone_from(&s.parts);
        if s.pidx[host] == usize::MAX {
            s.lanes.push(host);
        }

        let clear_resize = |v: &mut Vec<bool>| {
            v.clear();
            v.resize(k, false);
        };
        s.state.clear();
        s.active.clear();
        s.interrupted.clear();
        s.window_start.clear();
        s.window_iters.clear();
        s.iters_done.clear();
        s.work_done.clear();
        s.epoch.clear();
        clear_resize(&mut s.profiled);
        clear_resize(&mut s.acted);
        clear_resize(&mut s.waiting);
        clear_resize(&mut s.idle_pending);
        s.profiles.clear();
        s.profiles.resize(k, None);
        s.local_count.clear();
        s.local_count.resize(k, 0);
        s.prof_latest.clear();
        s.prof_latest.resize(k, f64::NEG_INFINITY);
        s.early.resize_with(k.max(s.early.len()), Vec::new);
        while s.queues.len() < k {
            s.queues.push(WorkQueue::new());
        }
        while s.blocks.len() < k {
            s.blocks.push(FfBlock::default());
        }
        s.heap.clear();
        s.profs.clear();
        s.central_count = 0;
        s.central_latest = f64::NEG_INFINITY;
        s.outcome = None;
        s.recorded = false;
        s.sync_time = 0.0;
        s.acted_count = 0;
        s.waiting_count = 0;
        s.seq = self.seq;
        s.msg_seq = self.msg_seq;
        s.host = host;
        s.role = self.role_of_group[g];
        s.mbu = self.role_busy[s.role];
        s.ctrl_msgs = 0;
        s.xfer_msgs = 0;
        s.bytes_moved = 0;
        s.delayed_msgs = 0;
        s.aborted = false;
        s.closed = None;

        for (i, &m) in s.parts.iter().enumerate() {
            if self.interrupted[m] {
                // A stale in-flight interrupt could make this member
                // profile off its old settle event mid-window.
                return false;
            }
            debug_assert!(self.active[m], "participants are active by selection");
            debug_assert!(
                self.early_work[m].is_empty(),
                "no early work outside an episode"
            );
            s.state.push(self.state[m]);
            s.active.push(true);
            s.interrupted.push(false);
            s.window_start.push(self.window_start[m]);
            s.window_iters.push(self.window_iters[m]);
            s.iters_done.push(self.iters_done[m]);
            s.work_done.push(self.work_done[m]);
            s.epoch.push(0);
            s.idle_pending[i] = self.groups[g].pending_initiators.contains(&m);
            s.early[i].clear();
            s.queues[i].copy_from(&self.queues[m]);
            s.blocks[i].live = false;
            // Seed: a Computing peer's pending real BlockDone, with its
            // real heap sequence number so ties order as the event loop
            // would. The initiator has no block (it just retired its
            // own); an IdlePending peer (a leftover pending initiator
            // from the previous episode's close) has none either.
            if m != initiator && self.state[m] == ProcState::Computing {
                let Some(b) = self.blocks[m].as_ref() else {
                    return false; // stale state; let the real path sort it out
                };
                let end = *b.boundaries.last().expect("blocks are never empty");
                s.blocks[i] = FfBlock {
                    live: true,
                    owned: false,
                    first: b.first,
                    done: b.done,
                    bounds: std::mem::take(&mut s.blocks[i].bounds),
                    end,
                    started: b.started,
                };
                s.heap.push(FfEv {
                    time: end,
                    tie: block_done_tie(&b.boundaries, b.started),
                    pkey: m as u32,
                    seq: b.seq,
                    kind: FfKind::BlockDone { p: m, epoch: 0 },
                });
            } else {
                // The initiator arrives still in `Computing` — its block
                // was retired by `on_block_done` just before
                // `on_out_of_work` called us — so it has nothing to seed.
                debug_assert!(
                    m != initiator || self.blocks[m].is_none(),
                    "initiator holds a live block at episode start"
                );
            }
        }

        s.net
            .get_or_insert_with(|| EpisodeSchedule::new(*self.medium.params()))
            .restart_from(&self.medium, &s.lanes);

        // --- replay t₀: mirror of `start_episode`'s body -------------
        for &m in peers {
            self.ff_send(
                s,
                initiator,
                m,
                INTERRUPT_BYTES,
                FfKind::Interrupt { to: m },
                now,
            );
        }
        if !s.aborted {
            self.ff_send_profile(s, initiator, now);
        }

        // --- mini event loop -----------------------------------------
        while !s.aborted && s.closed.is_none() {
            let Some(ev) = s.heap.pop() else {
                // The episode deadlocked in replay; it would deadlock for
                // real too, but let the real path produce the diagnostics.
                return false;
            };
            let t = ev.time;
            if t >= horizon {
                return false;
            }
            match ev.kind {
                FfKind::BlockDone { p: m, epoch } => self.ff_block_done(s, m, epoch, t),
                FfKind::Settle { p: m, epoch } => self.ff_settle_check(s, m, epoch, t),
                FfKind::Interrupt { to } => self.ff_deliver_interrupt(s, to, t),
                FfKind::Instruction { to } => self.ff_act(s, g, s.pidx[to], t),
                FfKind::Work { to, ranges } => self.ff_deliver_work(s, g, to, ranges, t),
                FfKind::CalcCentral => self.ff_calc_central(s, g, t),
                FfKind::CalcLocal { p: m } => self.ff_calc_local(s, g, m, t),
            }
        }
        if s.aborted {
            return false;
        }
        let t_close = s.closed.expect("loop exited without closing");

        // --- validate the window -------------------------------------
        if self.fault_active && now + self.policy.sync_timeout <= t_close {
            // The watchdog would fire inside the window (retransmission
            // round, retry accounting): per-message replay handles it.
            // Blame the delay plan when one is actively stretching the
            // window; otherwise it is generic fault machinery.
            s.reason = if self.plan.delay_factor_at(now) > 1.0 {
                FallbackReason::Delay
            } else {
                FallbackReason::Fault
            };
            return false;
        }
        if !self.fault_active {
            // The horizon already proved the window clean.
            debug_assert_eq!(self.window_interference(&s.pidx, t_close), None);
            return true;
        }
        match self.window_interference(&s.pidx, t_close) {
            Some(reason) => {
                s.reason = reason;
                false
            }
            None => true,
        }
    }

    /// Whether the pending real event `ev` is a provable no-op against
    /// the state an episode over `pidx`'s participants commits.
    fn benign_in_window(&self, ev: &Ev, pidx: &[usize]) -> bool {
        match ev.kind {
            EvKind::BlockDone { proc, epoch } | EvKind::SettleCheck { proc, epoch } => {
                // Stale-epoch events no-op; a participant's live ones are
                // the seeds this replay consumed (they go stale when the
                // commit bumps the epoch).
                epoch != self.block_epoch[proc] || pidx[proc] != usize::MAX
            }
            // `.get`: after a §S17 switch the group count may have shrunk,
            // and a watchdog armed under the old regime can carry an
            // out-of-range index — it is stale by definition.
            EvKind::Watchdog { group, id } => self
                .groups
                .get(group)
                .and_then(|gc| gc.episode.as_ref())
                .is_none_or(|e| e.id != id),
            EvKind::EpisodeDone { .. } => true,
            _ => false,
        }
    }

    /// Time of the earliest pending real event that is not benign for an
    /// episode over `pidx` (infinity if none): the walk prunes every
    /// subtree at or past the earliest such event found so far.
    fn interference_horizon(&self, pidx: &[usize]) -> f64 {
        let first = Cell::new(f64::INFINITY);
        self.events.visit_prefix(
            |ev| ev.time < first.get(),
            |ev| {
                if !self.benign_in_window(ev, pidx) {
                    first.set(ev.time);
                }
                true
            },
        );
        first.get()
    }

    /// Check the real heap's events at or before `t_close`: every one
    /// must be a provable no-op against the committed state. Returns why
    /// not otherwise — [`FallbackReason::Fault`] if any fault-class event
    /// lies in the window, else [`FallbackReason::Foreign`]. The walk
    /// never visits an event past the window and stops at the first
    /// fault-class event.
    pub(super) fn window_interference(
        &self,
        pidx: &[usize],
        t_close: f64,
    ) -> Option<FallbackReason> {
        let mut found = None;
        self.events.visit_prefix(
            |ev| ev.time <= t_close,
            |ev| {
                if self.benign_in_window(ev, pidx) {
                    return true;
                }
                match ev.kind {
                    EvKind::Crash { .. }
                    | EvKind::Recover { .. }
                    | EvKind::JoinRetry { .. }
                    | EvKind::Heartbeat
                    | EvKind::Watchdog { .. } => {
                        found = Some(FallbackReason::Fault);
                        false
                    }
                    _ => {
                        found = Some(FallbackReason::Foreign);
                        true
                    }
                }
            },
        );
        found
    }

    // ------------------------------------------------------------------
    // mirrored protocol handlers

    /// Shadow-state CPU factor: identical to [`Engine::cpu_factor`] but
    /// reading participants' states from the shadow.
    fn ff_cpu_factor(&self, s: &FfScratch, node: usize, now: f64) -> f64 {
        let state = match s.pidx[node] {
            usize::MAX => self.state[node],
            i => s.state[i],
        };
        self.cpu_factor_in(node, state, now)
    }

    /// Mirror of [`Engine::send`]'s bookkeeping against the episode
    /// schedule: contention arithmetic, stats, and message sequencing,
    /// WITHOUT scheduling a delivery event. Returns the delivery time
    /// (delay-stretched if the plan inflates it), or `None` after setting
    /// the abort flag if the fault plan would drop the message or cut the
    /// link. `transfer_iters` is `Some(n)` for a work shipment of `n`
    /// iterations, `None` for control traffic.
    fn ff_send_msg(
        &mut self,
        s: &mut FfScratch,
        from: usize,
        to: usize,
        bytes: usize,
        transfer_iters: Option<u64>,
        now: f64,
    ) -> Option<f64> {
        if s.aborted {
            return None;
        }
        let factors = EndpointFactors {
            send: self.ff_cpu_factor(s, from, now),
            recv: self.ff_cpu_factor(s, to, now),
        };
        let (lf, lt) = (s.lane(from), s.lane(to));
        let net = s.net.as_mut().expect("schedule anchored in ff_run");
        let tx = net.send(lf, lt, bytes, now, factors);
        match transfer_iters {
            Some(n) => {
                s.xfer_msgs += 1;
                s.bytes_moved += n * self.bytes_per_iter;
            }
            None => s.ctrl_msgs += 1,
        }
        s.finished_at[from] = s.finished_at[from].max(now);
        s.msg_seq += 1;
        if self.fault_active {
            // Cuts and drops change the protocol flow (watchdog rounds,
            // lost-work recovery): fall back to the per-message path.
            // Delay does not — it is pure delivery-time arithmetic, so the
            // replay carries it through the shared `stretch_delivery`
            // (identical float ops to `Engine::send`) instead of aborting.
            if self.plan.link_cut(from, to, now) || self.plan.drops_message(s.msg_seq) {
                s.aborted = true;
                s.reason = FallbackReason::Fault;
                return None;
            }
            let f = self.plan.delay_factor_at(now);
            if f > 1.0 {
                s.delayed_msgs += 1;
                return Some(now_net::stretch_delivery(now, tx.delivered, f));
            }
        }
        Some(tx.delivered)
    }

    /// [`Self::ff_send_msg`] plus a delivery event on the mini heap.
    fn ff_send(
        &mut self,
        s: &mut FfScratch,
        from: usize,
        to: usize,
        bytes: usize,
        kind: FfKind,
        now: f64,
    ) {
        let iters = match &kind {
            FfKind::Work { ranges, .. } => Some(ranges_len(ranges)),
            _ => None,
        };
        if let Some(delivered) = self.ff_send_msg(s, from, to, bytes, iters, now) {
            self.ff_push(s, delivered, now, kind);
        }
    }

    /// `tie` is the shadow clock at the push — the moment the real loop
    /// would have pushed this event (see [`FfEv::tie`]).
    fn ff_push(&self, s: &mut FfScratch, time: f64, tie: f64, kind: FfKind) {
        let pkey = match kind {
            FfKind::BlockDone { p, .. } | FfKind::Settle { p, .. } => p as u32,
            _ => u32::MAX,
        };
        s.seq += 1;
        s.heap.push(FfEv {
            time,
            tie,
            pkey,
            seq: s.seq,
            kind,
        });
    }

    /// Mirror of [`Engine::send_profile`].
    fn ff_send_profile(&mut self, s: &mut FfScratch, m: usize, now: f64) {
        let i = s.pidx[m];
        let profile = PerfProfile {
            proc: m,
            iters_done: s.window_iters[i],
            elapsed: now - s.window_start[i],
            remaining: s.queues[i].remaining(),
        };
        s.state[i] = ProcState::WaitOutcome;
        s.profiled[i] = true;
        let control = self
            .cfg
            .as_ref()
            .expect("profiles only exist under DLB")
            .strategy
            .control();
        match control {
            Control::Centralized => {
                let master = s.host;
                if m == master {
                    self.ff_account_central(s, profile, now);
                } else {
                    let Some(deliv) =
                        self.ff_send_msg(s, m, master, PerfProfile::WIRE_BYTES, None, now)
                    else {
                        return;
                    };
                    self.ff_account_central(s, profile, deliv);
                }
            }
            Control::Distributed if !self.fault_active => {
                self.ff_account_local(s, i, profile, now);
                self.ff_profile_burst(s, i, now);
            }
            Control::Distributed => {
                // A drop or a cut can abort mid-burst: message by message.
                self.ff_account_local(s, i, profile, now);
                for pos in 0..s.parts.len() {
                    let to = s.parts[pos];
                    if to == m {
                        continue;
                    }
                    let Some(deliv) =
                        self.ff_send_msg(s, m, to, PerfProfile::WIRE_BYTES, None, now)
                    else {
                        return;
                    };
                    self.ff_account_local(s, pos, profile, deliv);
                }
            }
        }
    }

    /// Fault-free distributed all-to-all: participant `i` sends its
    /// profile to every other participant at `now`. The same messages as
    /// [`Self::ff_send_msg`] one by one, in the same order, but with the
    /// loop-invariant work hoisted: the sender's CPU factor is computed
    /// once, every receiver's in one pass (neither changes during the
    /// burst — accounting a profile only stores it and pushes events),
    /// then the K−1 contention updates run back to back and the arrivals
    /// are accounted in participant order. Accounting never feeds a send,
    /// and sends push no events, so every sequence number is unchanged.
    fn ff_profile_burst(&mut self, s: &mut FfScratch, i: usize, now: f64) {
        debug_assert!(!self.fault_active, "faults need the per-message path");
        debug_assert!(
            s.profiles[i].is_some(),
            "the sender's own account stores it"
        );
        let m = s.parts[i];
        s.burst.clear();
        for (pos, (&to, &state)) in s.parts.iter().zip(&s.state).enumerate() {
            if pos != i {
                s.burst.push((pos, self.cpu_factor_in(to, state, now)));
            }
        }
        if s.burst.is_empty() {
            return;
        }
        let send_factor = self.ff_cpu_factor(s, m, now);
        s.delivered.clear();
        s.net
            .as_mut()
            .expect("schedule anchored in ff_run")
            .send_burst(
                i,
                &s.burst,
                PerfProfile::WIRE_BYTES,
                now,
                send_factor,
                &mut s.delivered,
            );
        let sent = s.burst.len() as u64;
        s.ctrl_msgs += sent;
        s.msg_seq += sent;
        s.finished_at[m] = s.finished_at[m].max(now);
        for j in 0..s.burst.len() {
            let (pos, at) = (s.burst[j].0, s.delivered[j]);
            self.ff_count_local(s, pos, at);
        }
    }

    /// Mirror of `record_central_profile` + `try_calc_central`, without
    /// evented deliveries. Profile arrivals carry no state besides the
    /// store and a counter, so the k-th-arriving instant — which is when
    /// the real engine runs the calculation — is simply the max of the
    /// delivery times: the calc event is scheduled directly off it and
    /// every per-profile delivery event disappears from the heap.
    fn ff_account_central(&mut self, s: &mut FfScratch, profile: PerfProfile, at: f64) {
        let i = s.pidx[profile.proc];
        debug_assert!(s.profiles[i].is_none(), "participants profile once");
        s.profiles[i] = Some(profile);
        s.central_count += 1;
        s.central_latest = s.central_latest.max(at);
        if s.central_count < s.parts.len() {
            return;
        }
        let now = s.central_latest;
        let cfg = *self.cfg.as_ref().expect("centralized profile under DLB");
        let start = now.max(s.mbu);
        let done = start + cfg.calc_cost * self.ff_cpu_factor(s, s.host, now);
        s.mbu = done;
        self.ff_push(s, done, now, FfKind::CalcCentral);
    }

    /// Mirror of `record_local_profile` + `try_calc_local`, without
    /// evented deliveries (same argument as [`Self::ff_account_central`],
    /// per receiving member). The shared profile store models every
    /// member's (identical, proc-ordered) profile set; `local_count[at]`
    /// tracks how many member `at` holds.
    fn ff_account_local(&mut self, s: &mut FfScratch, at: usize, profile: PerfProfile, time: f64) {
        let pi = s.pidx[profile.proc];
        if s.profiles[pi].is_none() {
            s.profiles[pi] = Some(profile);
        }
        self.ff_count_local(s, at, time);
    }

    /// The per-receiver half of [`Self::ff_account_local`]: member `at`
    /// holds one more profile, the latest arriving at `time`; the last
    /// one schedules its calculation.
    #[inline]
    fn ff_count_local(&mut self, s: &mut FfScratch, at: usize, time: f64) {
        s.local_count[at] += 1;
        s.prof_latest[at] = s.prof_latest[at].max(time);
        if s.local_count[at] == s.parts.len() {
            self.ff_schedule_calc_local(s, at);
        }
    }

    /// Member `at` holds every profile: its replicated calculation
    /// starts at the latest arrival. Once per member per episode, so kept
    /// out of line from the per-message count above.
    #[cold]
    fn ff_schedule_calc_local(&mut self, s: &mut FfScratch, at: usize) {
        let now = s.prof_latest[at];
        let cfg = *self.cfg.as_ref().expect("distributed profile under DLB");
        let done = now + cfg.calc_cost * self.ff_cpu_factor(s, s.parts[at], now);
        self.ff_push(s, done, now, FfKind::CalcLocal { p: at });
    }

    /// Mirror of `record_decision` (stat deltas applied at commit).
    fn ff_record_decision(&mut self, s: &mut FfScratch, now: f64) {
        if s.recorded {
            return;
        }
        s.recorded = true;
        s.sync_time = now;
    }

    /// Mirror of [`Engine::on_calc_central`].
    fn ff_calc_central(&mut self, s: &mut FfScratch, g: usize, now: f64) {
        debug_assert!(s.outcome.is_none(), "central calc fires once per episode");
        s.profs.clear();
        for p in s.profiles.iter() {
            s.profs.push(p.expect("calc scheduled only when complete"));
        }
        let profs = std::mem::take(&mut s.profs);
        let outcome = Arc::new(self.decide(&profs));
        s.profs = profs;
        self.ff_record_decision(s, now);
        s.outcome = Some(Arc::clone(&outcome));
        let master = s.host;
        for pos in 0..s.parts.len() {
            let m = s.parts[pos];
            if m == master {
                continue;
            }
            self.ff_send(
                s,
                master,
                m,
                INSTRUCTION_BYTES,
                FfKind::Instruction { to: m },
                now,
            );
        }
        if s.pidx[master] != usize::MAX {
            self.ff_act(s, g, s.pidx[master], now);
        }
    }

    /// Mirror of [`Engine::on_calc_local`] (with the outcome memoized
    /// exactly as the engine memoizes it).
    fn ff_calc_local(&mut self, s: &mut FfScratch, g: usize, at: usize, now: f64) {
        if s.outcome.is_none() {
            s.profs.clear();
            for p in s.profiles.iter() {
                s.profs.push(p.expect("calc scheduled only when complete"));
            }
            let profs = std::mem::take(&mut s.profs);
            let outcome = Arc::new(self.decide(&profs));
            s.profs = profs;
            self.ff_record_decision(s, now);
            s.outcome = Some(outcome);
        }
        self.ff_act(s, g, at, now);
    }

    /// Mirror of [`Engine::act_on_outcome`].
    fn ff_act(&mut self, s: &mut FfScratch, g: usize, i: usize, now: f64) {
        if s.aborted || s.acted[i] {
            return;
        }
        s.acted[i] = true;
        s.acted_count += 1;
        let m = s.parts[i];
        let outcome = Arc::clone(s.outcome.as_ref().expect("act without outcome"));

        // Ship what we owe.
        for t in outcome.index.donations(m) {
            let ranges = s.queues[i].take_back(t.iters);
            assert_eq!(
                ranges_len(&ranges),
                t.iters,
                "donor {m} cannot cover the planned transfer"
            );
            let bytes = WORK_HEADER_BYTES + (t.iters * self.bytes_per_iter) as usize;
            self.ff_send(s, m, t.to, bytes, FfKind::Work { to: t.to, ranges }, now);
            if s.aborted {
                return;
            }
        }

        // Wait for what we are owed, crediting early shipments.
        let mut expect = outcome.index.owed(m);
        let early = std::mem::take(&mut s.early[i]);
        for ranges in early {
            let got = ranges_len(&ranges);
            for r in ranges {
                s.queues[i].push_back(r);
            }
            expect = expect.saturating_sub(got);
        }
        if expect > 0 {
            s.state[i] = ProcState::WaitWork { expect };
            s.waiting[i] = true;
            s.waiting_count += 1;
        } else {
            self.ff_resume(s, g, i, now);
        }
        self.ff_maybe_close(s, now);
    }

    /// Mirror of [`Engine::resume`] (+ `deactivate`).
    fn ff_resume(&mut self, s: &mut FfScratch, _g: usize, i: usize, now: f64) {
        s.window_start[i] = now;
        s.window_iters[i] = 0;
        let m = s.parts[i];
        if s.queues[i].is_empty() {
            s.state[i] = ProcState::Inactive;
            s.active[i] = false;
            s.finished_at[m] = s.finished_at[m].max(now);
        } else {
            self.ff_schedule_block(s, i, now);
        }
    }

    /// Mirror of [`Engine::schedule_block`], via the shared
    /// [`Engine::block_boundaries`] so the chain cannot drift.
    fn ff_schedule_block(&mut self, s: &mut FfScratch, i: usize, now: f64) {
        let m = s.parts[i];
        let run = s.queues[i]
            .front_run()
            .expect("ff_schedule_block requires a non-empty queue");
        let mut bounds = std::mem::take(&mut s.blocks[i].bounds);
        if bounds.capacity() == 0 {
            bounds = self.take_boundary_buf();
        }
        self.block_boundaries(m, now, &run, &mut bounds);
        let end = *bounds.last().expect("front run is never empty");
        s.state[i] = ProcState::Computing;
        self.ff_push(
            s,
            end,
            block_done_tie(&bounds, now),
            FfKind::BlockDone {
                p: m,
                epoch: s.epoch[i],
            },
        );
        s.blocks[i] = FfBlock {
            live: true,
            owned: true,
            first: run.start,
            done: 0,
            bounds,
            end,
            started: now,
        };
    }

    /// Mirror of [`Engine::settle_block_to`] against the shadow.
    fn ff_settle_to(&mut self, s: &mut FfScratch, i: usize, upto: u64) {
        let m = s.parts[i];
        let b = &s.blocks[i];
        debug_assert!(b.live, "settle without a live shadow block");
        let (first, done, finished) = if b.owned {
            if upto <= b.done {
                return;
            }
            (b.first, b.done, b.bounds[upto as usize - 1])
        } else {
            let rb = self.blocks[m].as_ref().expect("seeded block vanished");
            if upto <= b.done {
                return;
            }
            (b.first, b.done, rb.boundaries[upto as usize - 1])
        };
        let wl = self.workload;
        if let Some(cost) = wl.is_uniform().then(|| wl.iter_cost(first)) {
            for _ in done..upto {
                s.work_done[i] += cost;
            }
        } else {
            for it in done..upto {
                s.work_done[i] += wl.iter_cost(first + it);
            }
        }
        let n = upto - done;
        s.window_iters[i] += n;
        s.iters_done[i] += n;
        let taken = s.queues[i].take_front(n);
        debug_assert_eq!(ranges_len(&taken), n, "queue must cover the settled prefix");
        s.finished_at[m] = finished;
        s.blocks[i].done = upto;
    }

    /// Mirror of [`Engine::invalidate_block`] for the shadow.
    fn ff_invalidate(&mut self, s: &mut FfScratch, i: usize) {
        s.epoch[i] += 1;
        if s.blocks[i].live && s.blocks[i].owned {
            let bounds = std::mem::take(&mut s.blocks[i].bounds);
            self.boundary_pool.push(bounds);
        }
        s.blocks[i].live = false;
    }

    /// Mirror of [`Engine::on_block_done`].
    fn ff_block_done(&mut self, s: &mut FfScratch, m: usize, epoch: u64, now: f64) {
        let i = s.pidx[m];
        if epoch != s.epoch[i] {
            return; // preempted since scheduling
        }
        let len = if s.blocks[i].owned {
            s.blocks[i].bounds.len() as u64
        } else {
            self.blocks[m]
                .as_ref()
                .expect("seeded block vanished")
                .boundaries
                .len() as u64
        };
        self.ff_settle_to(s, i, len);
        self.ff_invalidate(s, i);

        if s.interrupted[i] {
            s.interrupted[i] = false;
            if !s.profiled[i] {
                self.ff_send_profile(s, m, now);
                return;
            }
        }
        if s.queues[i].is_empty() {
            self.ff_out_of_work(s, i, now);
        } else {
            self.ff_schedule_block(s, i, now);
        }
    }

    /// Mirror of [`Engine::on_settle_check`].
    fn ff_settle_check(&mut self, s: &mut FfScratch, m: usize, epoch: u64, now: f64) {
        let i = s.pidx[m];
        if epoch != s.epoch[i] || !s.interrupted[i] || s.state[i] != ProcState::Computing {
            return;
        }
        let upto = if s.blocks[i].owned {
            s.blocks[i].bounds.partition_point(|&x| x <= now) as u64
        } else {
            self.blocks[m]
                .as_ref()
                .expect("seeded block vanished")
                .boundaries
                .partition_point(|&x| x <= now) as u64
        };
        self.ff_settle_to(s, i, upto);
        s.interrupted[i] = false;
        if !s.profiled[i] {
            self.ff_invalidate(s, i);
            self.ff_send_profile(s, m, now);
        }
        // Stale flag: keep computing — the shadow BlockDone still fires.
    }

    /// Mirror of `on_out_of_work` *inside* an open episode (the only
    /// reachable branch during a replay).
    fn ff_out_of_work(&mut self, s: &mut FfScratch, i: usize, now: f64) {
        if !s.profiled[i] {
            let m = s.parts[i];
            self.ff_send_profile(s, m, now);
        } else {
            s.state[i] = ProcState::IdlePending;
            s.idle_pending[i] = true;
        }
    }

    /// Mirror of `on_deliver(Payload::Interrupt)` + `flag_interrupt`.
    fn ff_deliver_interrupt(&mut self, s: &mut FfScratch, to: usize, now: f64) {
        let i = s.pidx[to];
        if !s.active[i] {
            return;
        }
        match s.state[i] {
            ProcState::Computing => {
                if s.interrupted[i] {
                    return;
                }
                s.interrupted[i] = true;
                if s.blocks[i].live {
                    let settle = {
                        let b = if s.blocks[i].owned {
                            &s.blocks[i].bounds
                        } else {
                            &self.blocks[to]
                                .as_ref()
                                .expect("seeded block vanished")
                                .boundaries
                        };
                        let j = b.partition_point(|&x| x <= now);
                        b.get(j).copied().map(|at| {
                            // Per-iteration twin pushed at the iteration's
                            // start (see `flag_interrupt`).
                            let tie = if j == 0 {
                                s.blocks[i].started
                            } else {
                                b[j - 1]
                            };
                            (at, tie)
                        })
                    };
                    if let Some((at, tie)) = settle {
                        self.ff_push(
                            s,
                            at,
                            tie,
                            FfKind::Settle {
                                p: to,
                                epoch: s.epoch[i],
                            },
                        );
                    }
                }
            }
            ProcState::IdlePending if !s.profiled[i] => {
                s.idle_pending[i] = false;
                self.ff_send_profile(s, to, now);
            }
            _ => {}
        }
    }

    /// Mirror of `on_deliver(Payload::Work)`.
    fn ff_deliver_work(
        &mut self,
        s: &mut FfScratch,
        g: usize,
        to: usize,
        ranges: Vec<Range<u64>>,
        now: f64,
    ) {
        let i = s.pidx[to];
        let ProcState::WaitWork { expect } = s.state[i] else {
            // The donor's replicated balancer raced ahead of this
            // receiver's calculation: park the shipment.
            s.early[i].push(ranges);
            return;
        };
        let got = ranges_len(&ranges);
        for r in ranges {
            s.queues[i].push_back(r);
        }
        let left = expect.saturating_sub(got);
        if left == 0 {
            s.waiting[i] = false;
            s.waiting_count -= 1;
            self.ff_resume(s, g, i, now);
            self.ff_maybe_close(s, now);
        } else {
            s.state[i] = ProcState::WaitWork { expect: left };
        }
    }

    /// Mirror of [`Engine::maybe_close_episode`]'s predicate (the
    /// pending-initiator drain runs after commit, on real state).
    fn ff_maybe_close(&mut self, s: &mut FfScratch, now: f64) {
        if s.acted_count == s.parts.len() && s.waiting_count == 0 {
            s.closed = Some(now);
        }
    }

    // ------------------------------------------------------------------
    // commit & recycle

    /// Adopt the replayed episode into the engine in one step: after this
    /// the engine is in exactly the state the per-message path would have
    /// left at the close, minus the per-message heap traffic.
    fn ff_commit(&mut self, s: &mut FfScratch, g: usize, t_close: f64) {
        // Episode-level effects, in the real recording order (all
        // additive, so ordering matters only for readability).
        self.episode_seq += 1;
        self.stats.syncs += 1;
        self.stats.control_messages += s.ctrl_msgs;
        self.stats.transfer_messages += s.xfer_msgs;
        self.stats.bytes_moved += s.bytes_moved;
        self.faults.messages_delayed += s.delayed_msgs;
        let outcome = &s
            .outcome
            .take()
            .expect("closed episode has an outcome")
            .outcome;
        debug_assert!(s.recorded);
        self.stats.record_verdict(outcome.verdict);
        if outcome.verdict == BalanceVerdict::Move {
            self.stats.iters_moved += outcome.moved;
        }
        self.sync_times.push(s.sync_time);

        // Globals.
        s.net
            .as_ref()
            .expect("schedule anchored")
            .commit_to(&mut self.medium);
        self.msg_seq = s.msg_seq;
        self.role_busy[s.role] = s.mbu;
        // Only participant lanes and the balancer host ever moved in the
        // shadow — copy those back rather than swapping all P lanes.
        for &m in s.parts.iter() {
            self.finished_at[m] = s.finished_at[m];
        }
        self.finished_at[s.host] = s.finished_at[s.host];

        // Per-participant state. Bumping every participant's epoch
        // stamps all its pre-episode events stale, exactly as the
        // per-message path's invalidations would have.
        for i in 0..s.parts.len() {
            let m = s.parts[i];
            self.invalidate_block(m);
            self.state[m] = s.state[i];
            self.set_active(m, s.active[i]);
            self.interrupted[m] = s.interrupted[i];
            self.window_start[m] = s.window_start[i];
            self.window_iters[m] = s.window_iters[i];
            self.total_iters_done += s.iters_done[i] - self.iters_done[m];
            self.iters_done[m] = s.iters_done[i];
            self.work_done[m] = s.work_done[i];
            std::mem::swap(&mut self.queues[m], &mut s.queues[i]);
            if s.idle_pending[i] {
                self.groups[g].pending_initiators.insert(m);
            } else {
                self.groups[g].pending_initiators.remove(&m);
            }
        }

        // Leftover shadow events — live blocks running past the close,
        // un-served settle boundaries, and undelivered (stale)
        // interrupts — become real events again; everything else went
        // stale during the replay and its real twin would be a no-op pop,
        // so dropping it only shifts later sequence numbers uniformly.
        while let Some(ev) = s.heap.pop() {
            match ev.kind {
                FfKind::BlockDone { p: m, epoch } => {
                    let i = s.pidx[m];
                    if epoch != s.epoch[i] || !s.blocks[i].live {
                        continue;
                    }
                    let b = &mut s.blocks[i];
                    debug_assert!(b.owned, "every seeded block dies during the episode");
                    b.live = false;
                    let bounds = std::mem::take(&mut b.bounds);
                    let (first, done, end, started) = (b.first, b.done, b.end, b.started);
                    self.push_event_tied(
                        end,
                        block_done_tie(&bounds, started),
                        EvKind::BlockDone {
                            proc: m,
                            epoch: self.block_epoch[m],
                        },
                    );
                    self.blocks[m] = Some(BlockRun {
                        first,
                        done,
                        boundaries: bounds,
                        seq: self.seq,
                        started,
                    });
                }
                FfKind::Settle { p: m, epoch } => {
                    let i = s.pidx[m];
                    if epoch != s.epoch[i]
                        || !s.interrupted[i]
                        || s.state[i] != ProcState::Computing
                    {
                        continue;
                    }
                    self.push_event_tied(
                        ev.time,
                        ev.tie,
                        EvKind::SettleCheck {
                            proc: m,
                            epoch: self.block_epoch[m],
                        },
                    );
                }
                FfKind::Interrupt { to } => {
                    // A stale interrupt still in flight past the close
                    // (its target profiled proactively): deliver it for
                    // real; the engine's stale-interrupt handling takes
                    // over from there.
                    self.push_event_tied(
                        ev.time,
                        ev.tie,
                        EvKind::Deliver {
                            to,
                            payload: Payload::Interrupt {
                                group: g,
                                epoch: self.membership_epoch,
                            },
                        },
                    );
                }
                FfKind::Instruction { .. }
                | FfKind::Work { .. }
                | FfKind::CalcCentral
                | FfKind::CalcLocal { .. } => {
                    unreachable!("the episode cannot close with protocol messages in flight")
                }
            }
        }

        // The one event the episode leaves behind.
        self.push_event(t_close, EvKind::EpisodeDone { group: g });
    }

    /// Return pooled buffers after an abort so nothing leaks or carries
    /// stale data into the next attempt.
    fn ff_recycle(&mut self, s: &mut FfScratch) {
        s.heap.clear();
        for b in s.blocks.iter_mut() {
            if b.live && b.owned {
                let bounds = std::mem::take(&mut b.bounds);
                self.boundary_pool.push(bounds);
            }
            b.live = false;
        }
        s.outcome = None;
    }
}
