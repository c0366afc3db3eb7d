//! Customized dynamic load balancing (DLB) — the paper's core contribution.
//!
//! This crate implements the four interrupt-based, receiver-initiated
//! dynamic load balancing strategies of Zaki, Li & Parthasarathy (HPDC'96)
//! as **transport-independent** building blocks: the same code drives the
//! discrete-event simulator (`now-sim`) and the threaded message-passing
//! runtime (`pvm-rt`).
//!
//! # The four strategies
//!
//! Strategies differ along two axes ([`strategy::Strategy`]):
//!
//! * **global vs. local** — whether the balancing decision uses profiles
//!   from all `P` processors or only from a group of `K`;
//! * **centralized vs. distributed** — whether one master holds the load
//!   balancer or every processor replicates it.
//!
//! # The protocol
//!
//! Dynamic load balancing is done in four basic steps (Section 3): monitor
//! performance, exchange the information, compute the new distribution and
//! decide, move the data.
//!
//! 1. The first processor to finish its local iterations sends an
//!    **interrupt** to the other active processors (of its group).
//! 2. Every participant sends a **performance profile**
//!    ([`profile::PerfProfile`]) — iterations/second since the last
//!    synchronization point — to the balancer (master) or to everyone
//!    (distributed).
//! 3. The balancer computes the **new distribution**
//!    ([`balance::compute_new_distribution`], eq. 3 of the paper)
//!    proportional to each processor's average effective speed, checks the
//!    **minimum-work threshold** and the **profitability analysis**
//!    ([`balance::profitability`], ≥ 10 % predicted improvement, movement
//!    cost excluded by default per Section 3.4), and plans the **work
//!    transfers** ([`moveplan`]).
//! 4. Senders ship iterations *and the associated array rows*
//!    ([`arrays::DlbArray`]) directly to receivers.
//!
//! [`sync::plan_sync`] assembles one whole synchronization episode into a
//! [`sync::SyncScript`] — a causal list of logical messages — which a
//! transport executes with real (or simulated) message timings.

pub mod arrays;
pub mod balance;
pub mod costindex;
pub mod distribution;
pub mod hierarchy;
pub mod loopsched;
pub mod membership;
pub mod moveplan;
pub mod profile;
pub mod recovery;
pub mod stats;
pub mod strategy;
pub mod sync;
pub mod work;
pub mod workqueue;

pub use arrays::{DataDistribution, DlbArray};
pub use balance::{balance_group, BalanceOutcome, BalanceVerdict, IndexedOutcome};
pub use costindex::{CostIndex, IndexedLoop};
pub use distribution::Distribution;
pub use hierarchy::GroupTree;
pub use loopsched::{ChunkQueue, ChunkScheme};
pub use membership::Membership;
pub use moveplan::{plan_transfers, Transfer, TransferIndex};
pub use profile::PerfProfile;
pub use recovery::split_ranges;
pub use stats::DlbStats;
pub use strategy::{AdaptiveConfig, Control, Scope, Strategy, StrategyConfig};
pub use sync::{plan_sync, LogicalMsg, MsgKind, SyncScript};
pub use work::{CostFnLoop, FoldedLoop, LoopWorkload, UniformLoop};
pub use workqueue::WorkQueue;
