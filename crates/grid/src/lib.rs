//! # actyp-grid — computational-grid resource substrate
//!
//! The ActYP service manages *machines* described by the resource database of
//! the paper's Figure 3: a mix of dynamic state kept fresh by a monitoring
//! service (load, active jobs, free memory and swap, service flags), static
//! capacity information (effective speed, CPU count, maximum allowed load),
//! access/audit metadata, shadow-account pools, user- and tool-group lists,
//! usage policies, and an open-ended list of administrator-defined key/value
//! parameters (`arch`, `memory`, `ostype`, `osversion`, `owner`, `swap`,
//! `cms`, …).
//!
//! This crate implements that substrate:
//!
//! * [`attr`] — typed attribute values shared with the query language.
//! * [`machine`] — the per-machine record (all twenty fields of Figure 3).
//! * [`database`] — the "white pages" [`ResourceDatabase`]: lookup, walking
//!   with a predicate, and the *taken* marking pool objects use when they
//!   claim machines.
//! * [`monitor`] — a synthetic resource-monitoring service that refreshes the
//!   dynamic fields (the production system used an external monitor; only
//!   the freshness of fields 2–7 matters to scheduling).
//! * [`shadow`] — shadow-account pools (logical user accounts): allocation
//!   and release of anonymous accounts on machines.
//! * [`policy`] — usage policies, a small predicate language standing in for
//!   the PUNCH "metaprogram" hook the paper leaves unimplemented.
//! * [`synth`] — synthetic fleet generation used by the experiments (the
//!   paper's experiments use a database of 3,200 machines).

pub mod attr;
pub mod database;
pub mod machine;
pub mod monitor;
pub mod policy;
pub mod shadow;
pub mod synth;

pub use attr::AttrValue;
pub use database::{ResourceDatabase, SharedDatabase, TakenBy};
pub use machine::{
    Builtin, DynamicState, Machine, MachineId, MachineObject, MachineState, ServiceFlags,
};
pub use monitor::{MonitorConfig, ResourceMonitor};
pub use policy::UsagePolicy;
pub use shadow::{ShadowAccount, ShadowAccountPool};
pub use synth::{FleetSpec, SyntheticFleet, Weighted};
