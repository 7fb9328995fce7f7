//! # actyp-baselines — architectural comparators
//!
//! Section 8 of the paper positions ActYP against two families of resource
//! managers: cluster management systems with *centralized schedulers and
//! multiple submit queues* (PBS, DQS, Sun Grid Engine) and *centralized
//! matchmakers* (Condor's ClassAd matchmaking).  The comparison in the paper
//! is qualitative; to let the benchmark harness show the same architectural
//! contrasts quantitatively, this crate implements both baselines over the
//! same resource database and query language:
//!
//! * [`central_queue`] — a centralized scheduler: every query goes through
//!   one scheduler whose dispatch cost scans the whole machine table.
//! * [`matchmaker`] — a centralized matchmaker that evaluates every query
//!   against every machine advertisement and picks the best rank.
//!
//! Both are single points of service: they cannot be replicated the way
//! pipeline stages can, which is exactly the contrast the benches
//! (`baseline_comparison`) illustrate.

pub mod central_queue;
pub mod matchmaker;

pub use central_queue::CentralScheduler;
pub use matchmaker::{MatchOutcomeRecord, Matchmaker};
