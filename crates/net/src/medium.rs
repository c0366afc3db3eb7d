//! Message-level simulation of the interconnect medium.
//!
//! [`MediumSim`] is a first-come-first-served arbiter over three resource
//! classes:
//!
//! * each sender's CPU — occupied for the send overhead of each of its
//!   messages in turn;
//! * the shared wire (bus media only) — occupied for each frame's
//!   media-access plus payload serialization time;
//! * each receiver's CPU — occupied for the receive overhead of each
//!   message delivered to it in turn.
//!
//! The discrete-event simulator calls [`MediumSim::send`] in chronological
//! order, which makes the FCFS arbitration exact. Per-message CPU-cost
//! *factors* let callers model endpoint slowdown — e.g. the paper's
//! centralized balancer sharing its processor with a compute slave and
//! the external load (the "context switching" overhead of Section 6.2).

use crate::params::{MediumKind, NetworkParams};

/// Outcome of scheduling one message on the medium.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Transmission {
    /// When the sender's CPU started on the message (≥ request time).
    pub start: f64,
    /// When the message is fully delivered to the receiving process.
    pub delivered: f64,
}

/// Stretch a delivery time away from its send instant by `factor`
/// (≥ 1): the in-flight span `delivered - now` is multiplied, the send
/// instant is unchanged.
///
/// This is the **single** delay-inflation arithmetic shared by the
/// event-loop send path and the episode fast-forward replay
/// (`ff_send_msg`), mirroring how [`ContentionState::schedule`] is the
/// single contention core — both paths apply the exact same float ops
/// in the same order, so a replayed delayed message cannot drift from
/// the event loop's delivery time.
pub fn stretch_delivery(now: f64, delivered: f64, factor: f64) -> f64 {
    now + (delivered - now) * factor
}

/// Endpoint CPU-cost multipliers for one message (1.0 = unloaded CPU).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EndpointFactors {
    /// Multiplies the send overhead.
    pub send: f64,
    /// Multiplies the receive overhead.
    pub recv: f64,
}

impl Default for EndpointFactors {
    fn default() -> Self {
        Self {
            send: 1.0,
            recv: 1.0,
        }
    }
}

/// The FCFS queueing state of a medium: when each sender CPU, the shared
/// wire, and each receiver CPU next come free.
///
/// This is the *entire* mutable state of the arbiter, and
/// [`ContentionState::schedule`] is the single implementation of the
/// contention-update arithmetic. Both the event-loop path
/// ([`MediumSim::send_with_factors`]) and the speculative episode replay
/// ([`EpisodeSchedule::send`]) call the same function on a value of this
/// type, so a replayed message schedule cannot drift from what the event
/// loop would have computed — same float ops, same order.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionState {
    bus_free_at: f64,
    send_port_free: Vec<f64>,
    recv_port_free: Vec<f64>,
}

impl ContentionState {
    /// All ports and the wire free at time 0.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "a network needs at least one node");
        Self {
            bus_free_at: 0.0,
            send_port_free: vec![0.0; nodes],
            recv_port_free: vec![0.0; nodes],
        }
    }

    /// Number of nodes this state arbitrates.
    pub fn nodes(&self) -> usize {
        self.send_port_free.len()
    }

    /// All ports and the wire free immediately.
    pub fn reset(&mut self) {
        self.bus_free_at = 0.0;
        self.send_port_free.fill(0.0);
        self.recv_port_free.fill(0.0);
    }

    /// The shared scheduling core: account one message of `bytes` bytes
    /// from `from` to `to`, requested at `now`, endpoint CPU costs scaled
    /// by `factors`. Self-sends are local and deliver immediately.
    ///
    /// Calls must be made in non-decreasing `now` order for exact FCFS
    /// semantics.
    ///
    /// # Panics
    /// Panics if a node index is out of range or a factor is below 1.
    #[inline]
    pub fn schedule(
        &mut self,
        params: &NetworkParams,
        from: usize,
        to: usize,
        bytes: usize,
        now: f64,
        factors: EndpointFactors,
    ) -> Transmission {
        assert!(
            from < self.nodes() && to < self.nodes(),
            "node index out of range"
        );
        assert!(
            factors.send >= 1.0 && factors.recv >= 1.0,
            "endpoint factors must be >= 1 (1 = unloaded)"
        );
        if from == to {
            return Transmission {
                start: now,
                delivered: now,
            };
        }
        // Sender CPU.
        let start = now.max(self.send_port_free[from]);
        let sent = start + params.send_overhead * factors.send;
        self.send_port_free[from] = sent;
        // Wire.
        let frame = params.frame_time(bytes);
        let arrival = match params.medium {
            MediumKind::SharedBus => {
                let bus_start = sent.max(self.bus_free_at);
                self.bus_free_at = bus_start + frame;
                bus_start + frame
            }
            MediumKind::Switched => sent + frame,
        };
        // Receiver CPU.
        let delivered = arrival.max(self.recv_port_free[to]) + params.recv_overhead * factors.recv;
        self.recv_port_free[to] = delivered;
        Transmission { start, delivered }
    }
}

/// Stateful FCFS medium arbiter for `n` nodes.
#[derive(Debug, Clone)]
pub struct MediumSim {
    params: NetworkParams,
    state: ContentionState,
}

impl MediumSim {
    /// Create a medium connecting `nodes` workstations.
    ///
    /// # Panics
    /// Panics if `nodes == 0` or the parameters are invalid.
    pub fn new(params: NetworkParams, nodes: usize) -> Self {
        params.validate();
        Self {
            params,
            state: ContentionState::new(nodes),
        }
    }

    /// Number of nodes on this medium.
    pub fn nodes(&self) -> usize {
        self.state.nodes()
    }

    /// The configured parameters.
    pub fn params(&self) -> &NetworkParams {
        &self.params
    }

    /// The current queueing state (for snapshots).
    pub fn state(&self) -> &ContentionState {
        &self.state
    }

    /// Schedule a message with unloaded endpoints.
    pub fn send(&mut self, from: usize, to: usize, bytes: usize, now: f64) -> Transmission {
        self.send_with_factors(from, to, bytes, now, EndpointFactors::default())
    }

    /// Schedule a message of `bytes` bytes from `from` to `to`, requested
    /// at time `now`, with the endpoints' CPU costs scaled by `factors`.
    /// Self-sends are local and deliver immediately.
    ///
    /// Calls must be made in non-decreasing `now` order for exact FCFS
    /// semantics (the discrete-event loop guarantees this).
    ///
    /// # Panics
    /// Panics if a node index is out of range or a factor is below 1.
    pub fn send_with_factors(
        &mut self,
        from: usize,
        to: usize,
        bytes: usize,
        now: f64,
        factors: EndpointFactors,
    ) -> Transmission {
        self.state
            .schedule(&self.params, from, to, bytes, now, factors)
    }

    /// Forget all queueing state (ports and bus free immediately). Used
    /// between independent pattern measurements.
    pub fn reset(&mut self) {
        self.state.reset();
    }
}

/// Speculative replay of one synchronization episode's message schedule.
///
/// The episode fast-forward path of the simulator computes a whole
/// episode's per-message arrival times *before* deciding whether the
/// episode may be fast-forwarded at all. This type supports that
/// two-phase shape: [`EpisodeSchedule::restart_from`] snapshots the
/// ports of the episode's nodes and the shared wire of a [`MediumSim`]
/// (reusing this schedule's buffers), [`EpisodeSchedule::send`] replays
/// messages through the **same** [`ContentionState::schedule`] core the
/// event loop uses, and [`EpisodeSchedule::commit_to`] writes the advanced
/// lanes back into the medium — or the schedule is simply dropped/reused,
/// leaving the medium untouched (the fallback path then re-issues the
/// messages through the event loop).
///
/// # Lanes
///
/// An episode involves its K participants and its balancer host, not all
/// P nodes, so the snapshot holds only those: *lane* `i` is node
/// `lanes[i]` of the medium, and [`EpisodeSchedule::send`] takes lane
/// indices. A snapshot and a commit cost O(lanes), not O(P). Every other
/// node's ports are untouched by the episode, so leaving them out of the
/// copy changes no arithmetic.
#[derive(Debug, Clone)]
pub struct EpisodeSchedule {
    params: NetworkParams,
    /// Medium node of each lane.
    lanes: Vec<usize>,
    /// Dense sub-state: port `i` is lane `i`'s node.
    state: ContentionState,
    messages: u64,
}

impl EpisodeSchedule {
    /// A schedule not yet anchored to any medium
    /// ([`EpisodeSchedule::restart_from`] anchors it).
    pub fn new(params: NetworkParams) -> Self {
        params.validate();
        Self {
            params,
            lanes: Vec::new(),
            state: ContentionState {
                bus_free_at: 0.0,
                send_port_free: Vec::new(),
                recv_port_free: Vec::new(),
            },
            messages: 0,
        }
    }

    /// Re-anchor to `medium`'s current queueing state for the nodes in
    /// `lanes` (distinct; lane `i` is node `lanes[i]`), discarding any
    /// previous replay. Allocation-free once the buffers have grown.
    ///
    /// # Panics
    /// Panics if a node is out of the medium's range.
    pub fn restart_from(&mut self, medium: &MediumSim, lanes: &[usize]) {
        self.params = medium.params;
        let src = &medium.state;
        self.lanes.clear();
        self.lanes.extend_from_slice(lanes);
        self.state.bus_free_at = src.bus_free_at;
        self.state.send_port_free.clear();
        self.state
            .send_port_free
            .extend(lanes.iter().map(|&n| src.send_port_free[n]));
        self.state.recv_port_free.clear();
        self.state
            .recv_port_free
            .extend(lanes.iter().map(|&n| src.recv_port_free[n]));
        self.messages = 0;
    }

    /// Replay one message between two lanes: identical arithmetic,
    /// identical state update as [`MediumSim::send_with_factors`] between
    /// their nodes, applied to the snapshot.
    ///
    /// # Panics
    /// Panics if a lane index is out of range or a factor is below 1.
    pub fn send(
        &mut self,
        from: usize,
        to: usize,
        bytes: usize,
        now: f64,
        factors: EndpointFactors,
    ) -> Transmission {
        self.messages += 1;
        self.state
            .schedule(&self.params, from, to, bytes, now, factors)
    }

    /// Replay a burst of equal-size messages, all requested at `now`,
    /// from lane `from` to each `(lane, receive factor)` of `to` in
    /// order, appending each delivery time to `delivered`. The same
    /// [`ContentionState::schedule`] call per message as [`Self::send`],
    /// in the same order; the caller only saves recomputing the sender's
    /// factor per message.
    pub fn send_burst(
        &mut self,
        from: usize,
        to: &[(usize, f64)],
        bytes: usize,
        now: f64,
        send_factor: f64,
        delivered: &mut Vec<f64>,
    ) {
        self.messages += to.len() as u64;
        delivered.extend(to.iter().map(|&(lane, recv)| {
            let factors = EndpointFactors {
                send: send_factor,
                recv,
            };
            self.state
                .schedule(&self.params, from, lane, bytes, now, factors)
                .delivered
        }));
    }

    /// Messages replayed since the last [`EpisodeSchedule::restart_from`].
    pub fn messages(&self) -> u64 {
        self.messages
    }

    /// Write the replayed lanes and the wire back into `medium`:
    /// afterwards the medium is in exactly the state it would hold had
    /// the event loop issued every replayed message itself.
    pub fn commit_to(&self, medium: &mut MediumSim) {
        let dst = &mut medium.state;
        dst.bus_free_at = self.state.bus_free_at;
        for (i, &n) in self.lanes.iter().enumerate() {
            dst.send_port_free[n] = self.state.send_port_free[i];
            dst.recv_port_free[n] = self.state.recv_port_free[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus(n: usize) -> MediumSim {
        MediumSim::new(NetworkParams::paper_ethernet(), n)
    }

    fn switched(n: usize) -> MediumSim {
        MediumSim::new(NetworkParams::switched_lan(), n)
    }

    #[test]
    fn single_message_costs_wire_time() {
        let mut m = bus(2);
        let p = *m.params();
        let t = m.send(0, 1, 1000, 0.0);
        assert_eq!(t.start, 0.0);
        assert!((t.delivered - p.wire_time(1000)).abs() < 1e-12);
    }

    #[test]
    fn stretch_delivery_anchors_at_send_instant() {
        assert_eq!(stretch_delivery(2.0, 5.0, 1.0), 5.0);
        assert_eq!(stretch_delivery(2.0, 5.0, 3.0), 11.0);
        // The exact expression matters (shared by two call sites): it is
        // now + (delivered - now) * factor, not delivered * factor.
        let (now, delivered, f) = (0.1, 0.30000000000000004, 2.5);
        assert_eq!(
            stretch_delivery(now, delivered, f).to_bits(),
            (now + (delivered - now) * f).to_bits()
        );
    }

    #[test]
    fn self_send_is_free() {
        let mut m = bus(4);
        let t = m.send(2, 2, 1 << 20, 5.0);
        assert_eq!(t.start, 5.0);
        assert_eq!(t.delivered, 5.0);
    }

    #[test]
    fn send_overhead_parallel_across_senders() {
        // Two different senders start their CPU work simultaneously; only
        // the wire serializes.
        let mut m = bus(4);
        let a = m.send(0, 1, 100, 0.0);
        let b = m.send(2, 3, 100, 0.0);
        assert_eq!(a.start, 0.0);
        assert_eq!(b.start, 0.0, "different senders' CPUs must not serialize");
        let frame = m.params().frame_time(100);
        assert!(
            (b.delivered - a.delivered - frame).abs() < 1e-12,
            "frames must serialize on the bus"
        );
    }

    #[test]
    fn same_sender_serializes_on_its_cpu() {
        let mut m = bus(3);
        let so = m.params().send_overhead;
        let a = m.send(0, 1, 100, 0.0);
        let b = m.send(0, 2, 100, 0.0);
        assert_eq!(a.start, 0.0);
        assert!((b.start - so).abs() < 1e-12);
    }

    #[test]
    fn switch_has_no_shared_wire() {
        let mut m = switched(4);
        let a = m.send(0, 1, 100, 0.0);
        let b = m.send(2, 3, 100, 0.0);
        assert_eq!(
            a.delivered, b.delivered,
            "disjoint pairs are fully parallel on a switch"
        );
    }

    #[test]
    fn receiver_overhead_serializes_at_destination() {
        let mut m = switched(3);
        let p = *m.params();
        let a = m.send(0, 2, 100, 0.0);
        let b = m.send(1, 2, 100, 0.0);
        assert!((b.delivered - (a.delivered + p.recv_overhead)).abs() < 1e-12);
    }

    #[test]
    fn endpoint_factors_inflate_cpu_costs() {
        let mut m = bus(2);
        let p = *m.params();
        let plain = m.send(0, 1, 0, 0.0);
        m.reset();
        let loaded = m.send_with_factors(
            0,
            1,
            0,
            0.0,
            EndpointFactors {
                send: 3.0,
                recv: 2.0,
            },
        );
        let extra = 2.0 * p.send_overhead + 1.0 * p.recv_overhead;
        assert!((loaded.delivered - plain.delivered - extra).abs() < 1e-12);
    }

    #[test]
    fn later_request_time_is_respected() {
        let mut m = bus(2);
        let t = m.send(0, 1, 0, 10.0);
        assert_eq!(t.start, 10.0);
    }

    #[test]
    fn reset_clears_queueing() {
        let mut m = bus(2);
        let _ = m.send(0, 1, 1 << 20, 0.0);
        m.reset();
        let t = m.send(0, 1, 100, 0.0);
        assert_eq!(t.start, 0.0);
    }

    #[test]
    fn deliveries_never_precede_request() {
        let mut m = bus(4);
        for i in 0..20 {
            let now = i as f64 * 1e-4;
            let t = m.send(i % 4, (i + 1) % 4, 64, now);
            assert!(t.start >= now);
            assert!(t.delivered > t.start);
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_node_rejected() {
        let mut m = bus(2);
        let _ = m.send(0, 5, 10, 0.0);
    }

    #[test]
    #[should_panic(expected = "factors")]
    fn sub_unit_factor_rejected() {
        let mut m = bus(2);
        let _ = m.send_with_factors(
            0,
            1,
            0,
            0.0,
            EndpointFactors {
                send: 0.5,
                recv: 1.0,
            },
        );
    }

    /// A deterministic pseudo-random message trace (no external RNG).
    fn trace(n: usize, len: usize) -> Vec<(usize, usize, usize, f64, EndpointFactors)> {
        let mut x = 0x2545_f491_4f6c_dd1d_u64;
        let mut now = 0.0;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let from = (x % n as u64) as usize;
                let to = ((x >> 8) % n as u64) as usize;
                let bytes = ((x >> 16) % 4096) as usize;
                now += ((x >> 32) % 1000) as f64 * 1e-6;
                let f = EndpointFactors {
                    send: 1.0 + ((x >> 42) % 3) as f64,
                    recv: 1.0 + ((x >> 44) % 3) as f64,
                };
                (from, to, bytes, now, f)
            })
            .collect()
    }

    /// The episode replay must produce bit-identical transmissions and
    /// leave the medium (after commit) in a bit-identical state to the
    /// event-loop path, on both medium kinds.
    #[test]
    fn episode_schedule_replay_cannot_drift() {
        for mk in [bus(5), switched(5)] {
            let mut live = mk.clone();
            let mut ff_base = mk.clone();
            let msgs = trace(5, 200);
            // Warm both media with a shared prefix so the snapshot is
            // taken mid-stream, not at the zero state.
            for &(f, t, b, now, fac) in &msgs[..50] {
                let a = live.send_with_factors(f, t, b, now, fac);
                let b2 = ff_base.send_with_factors(f, t, b, now, fac);
                assert_eq!(a, b2);
            }
            let mut ep = EpisodeSchedule::new(*ff_base.params());
            ep.restart_from(&ff_base, &[0, 1, 2, 3, 4]);
            for &(f, t, b, now, fac) in &msgs[50..] {
                let a = live.send_with_factors(f, t, b, now, fac);
                let r = ep.send(f, t, b, now, fac);
                assert_eq!(a.start.to_bits(), r.start.to_bits());
                assert_eq!(a.delivered.to_bits(), r.delivered.to_bits());
            }
            assert_eq!(ep.messages(), (msgs.len() - 50) as u64);
            ep.commit_to(&mut ff_base);
            assert_eq!(live.state(), ff_base.state());
        }
    }

    /// A snapshot of a few lanes, in any order, replays exactly what the
    /// medium computes for their nodes, and its commit leaves every other
    /// node's ports as they were.
    #[test]
    fn lane_snapshot_matches_full_medium() {
        for mk in [bus(8), switched(8)] {
            let mut live = mk.clone();
            let mut base = mk.clone();
            let warm = trace(8, 60);
            for &(f, t, b, now, fac) in &warm {
                live.send_with_factors(f, t, b, now, fac);
                base.send_with_factors(f, t, b, now, fac);
            }
            let lanes = [6, 1, 3];
            let mut ep = EpisodeSchedule::new(*base.params());
            ep.restart_from(&base, &lanes);
            let t0 = warm.last().expect("non-empty trace").3;
            let mut burst = Vec::new();
            for (i, &(f, t, b, dt, fac)) in trace(3, 40).iter().enumerate() {
                let now = t0 + dt;
                if i % 10 == 9 {
                    // A burst from one lane to the two others.
                    let to = [((f + 1) % 3, fac.recv), ((f + 2) % 3, 1.5)];
                    burst.clear();
                    ep.send_burst(f, &to, b, now, fac.send, &mut burst);
                    for (k, &(lane, recv)) in to.iter().enumerate() {
                        let factors = EndpointFactors {
                            send: fac.send,
                            recv,
                        };
                        let a = live.send_with_factors(lanes[f], lanes[lane], b, now, factors);
                        assert_eq!(a.delivered.to_bits(), burst[k].to_bits());
                    }
                    continue;
                }
                let a = live.send_with_factors(lanes[f], lanes[t], b, now, fac);
                let r = ep.send(f, t, b, now, fac);
                assert_eq!(a.start.to_bits(), r.start.to_bits());
                assert_eq!(a.delivered.to_bits(), r.delivered.to_bits());
            }
            ep.commit_to(&mut base);
            assert_eq!(live.state(), base.state());
        }
    }

    /// Dropping a schedule (fallback path) leaves the medium untouched,
    /// and the same schedule value can be re-anchored and reused.
    #[test]
    fn episode_schedule_abort_leaves_medium_untouched() {
        let mut m = bus(3);
        m.send(0, 1, 500, 0.0);
        let before = m.state().clone();
        let mut ep = EpisodeSchedule::new(*m.params());
        ep.restart_from(&m, &[0, 1, 2]);
        ep.send(1, 2, 800, 1.0, EndpointFactors::default());
        ep.send(2, 0, 800, 2.0, EndpointFactors::default());
        // No commit: the medium must be unchanged.
        assert_eq!(*m.state(), before);
        // Reuse after abort: counters and state re-anchor cleanly.
        ep.restart_from(&m, &[0, 1, 2]);
        assert_eq!(ep.messages(), 0);
        let live = m.send(1, 2, 64, 3.0);
        let rep = ep.send(1, 2, 64, 3.0, EndpointFactors::default());
        assert_eq!(live, rep);
    }
}
