//! # cluster — the full simulated ParPar system
//!
//! Binds every substrate into one discrete-event world: the Myrinet data
//! network, LANai NICs, host CPUs and processes, the ParPar daemons, the
//! FM library, and the gang-comm context-switch machinery — then runs
//! application [`workloads`] on top with full protocol timing.
//!
//! Use [`Sim`] to build a cluster, submit workloads, and run; use
//! [`measure`] for the prepackaged paper experiments (Figs. 5–9).

#![warn(missing_docs)]

pub mod bus;
pub mod config;
pub mod event;
pub mod glue;
pub mod handlers;
pub mod measure;
pub mod node;
pub mod procsim;
pub mod stats;
pub mod world;

pub use bus::Bus;
pub use config::{ClusterConfig, TopologyKind};
pub use event::{AppEvent, DaemonEvent, Event, FmEvent, Frame, HostOp, NicEvent, SwitchEvent};
pub use glue::GlueFm;
pub use handlers::{
    AppHandler, DaemonHandler, FmHandler, NicHandler, SlotView, SwitchHandler, WorldState,
};
pub use measure::{Measurement, SchedulingMode, ServeCell};
pub use myrinet::topology::{FatTreeShape, LinkTier};
pub use node::NodeSim;
pub use parpar::arrivals::{ArrivalPlan, ArrivalSpec};
pub use parpar::control::ControlPlane;
pub use parpar::jobrep::JobRepStats;
pub use procsim::{BlockReason, ProcPhase, ProcSim};
pub use stats::{QueueSample, TierTraffic, WorldStats};
pub use world::{Sim, World};
