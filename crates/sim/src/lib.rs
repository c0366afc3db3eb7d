//! Discrete-event simulator of a network of workstations (NOW).
//!
//! The paper ran on dedicated SPARC LX workstations on a shared Ethernet,
//! with external multi-user load *simulated inside the programs* (Section
//! 6). This crate substitutes the hardware: simulated processors with
//! relative speeds `S_i`, per-processor external load functions from
//! `now-load`, and the FCFS medium arbiter from `now-net`. On top of that
//! substrate it executes the paper's interrupt-based DLB protocol (the
//! state machines of `dlb-core`) *exactly* — per-iteration compute events,
//! interrupts reacted to at iteration boundaries (the generated code checks
//! `DLB_slave_sync` once per outer iteration), profile sends, centralized
//! or replicated balancer calculation (with FIFO queueing at the single
//! LCDLB balancer — the paper's *delay factor*), instruction sends, and
//! work shipment.
//!
//! Entry points:
//!
//! * [`cluster::ClusterSpec`] — processors, speeds, loads, network;
//! * [`runner::run_dlb`] / [`runner::run_no_dlb`] — one experiment;
//! * [`runner::run_all_strategies`] — the five bars of Figs. 5–8.

pub mod cluster;
pub mod engine;
mod heap;
pub mod report;
pub mod runner;
pub mod taskqueue;

/// Version stamp of the simulation semantics.
///
/// Any change that can alter the `RunReport` bytes produced for *any*
/// run specification — engine event ordering, float arithmetic, protocol
/// behaviour, report schema, workload construction — MUST bump this
/// constant. `now-serve` folds it into every content-addressed memo key,
/// so a bump atomically invalidates all previously persisted results
/// (stale reports are never served; the old entries are simply never
/// looked up again).
pub const ENGINE_VERSION: u32 = 8;

pub use cluster::ClusterSpec;
pub use engine::{Engine, EngineCounters, EngineMode};
pub use report::{rank_strategies, AdaptiveReport, ProcSummary, RunReport, SwitchRecord};
pub use runner::{
    run_all_strategies, run_all_strategies_arc, run_dlb, run_dlb_adaptive, run_dlb_adaptive_arc,
    run_dlb_adaptive_faulty, run_dlb_arc, run_dlb_faulty, run_dlb_periodic, run_no_dlb,
    run_no_dlb_arc, StrategySweep,
};
pub use taskqueue::run_task_queue;
