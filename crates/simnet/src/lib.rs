//! # actyp-simnet — discrete-event simulation kernel
//!
//! This crate is the substrate on which the ActYP reproduction runs its
//! controlled experiments.  The original paper measured a production
//! deployment (Sun UltraSPARC clients against a 12-processor Alpha server,
//! plus one wide-area configuration between Purdue and UPC).  We do not have
//! that testbed, so the experiments are reproduced on a deterministic
//! discrete-event simulation of the same structure: hosts with per-operation
//! service costs, LAN/WAN links with configurable latency, and closed-loop
//! clients.
//!
//! The kernel is intentionally small and generic:
//!
//! * [`time`] — virtual time ([`SimTime`]) and durations ([`SimDuration`]),
//!   nanosecond resolution.
//! * [`event`] — a deterministic event queue ([`EventQueue`]) with FIFO
//!   tie-breaking for simultaneous events.
//! * [`rng`] — a seedable, splittable pseudo-random number generator
//!   ([`Rng`]) with the distributions the workloads need (uniform,
//!   exponential, normal, lognormal, Pareto).  A local implementation is used
//!   instead of an external crate so that every experiment is reproducible
//!   bit-for-bit from a single `u64` seed.
//! * [`server`] — the queueing building block: a single FCFS server (used to
//!   model the scheduling processes inside resource pools).
//! * [`net`] — latency models for LAN and WAN configurations.
//! * [`stats`] — histograms and percentile estimation used by the benchmark
//!   harness to report the figure series.

pub mod event;
pub mod net;
pub mod rng;
pub mod server;
pub mod stats;
pub mod time;

pub use event::{EventQueue, ScheduledEvent};
pub use net::{LatencyModel, LinkProfile, NetworkModel};
pub use rng::Rng;
pub use server::FcfsServer;
pub use stats::{Histogram, SampleSet};
pub use time::{SimDuration, SimTime};
