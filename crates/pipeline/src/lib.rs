//! # actyp-pipeline — the active yellow pages resource-management pipeline
//!
//! This crate is the paper's primary contribution: a pipelined,
//! decentralised resource-management architecture in which resources are
//! aggregated *dynamically* — the "active yellow pages" — according to the
//! queries the system actually observes.
//!
//! The pipeline has three stages:
//!
//! 1. **Query managers** ([`query_manager`]) translate queries from native
//!    formats (the key/value language, ClassAds) into the internal form,
//!    validate them against administrator-defined schemas, decompose
//!    composite ("or") queries into basic components, select pool managers,
//!    and re-integrate the per-fragment results at the end of the pipeline.
//! 2. **Pool managers** ([`pool_manager`]) map each basic query to a pool
//!    name (signature + identifier), locate instances through a local
//!    directory service ([`directory`]), create pools on demand, forward to
//!    instances hosted elsewhere, and delegate to peer managers — carrying a
//!    TTL and visited list with the query ([`message::RoutingState`]).
//! 3. **Resource pools** ([`resource_pool`]) aggregate matching machines
//!    from the white pages, mark them taken, and run scheduling processes
//!    ([`scheduler`]) that order the cache by an objective and answer
//!    allocation queries.  Pools can be split for concurrent search and
//!    replicated with an instance-specific bias.
//!
//! Three deployments of the same stages are provided:
//!
//! * [`live::LivePipeline`] — the stages wired once, in one address space.
//!   A stage has no thread: a pool-manager stage is its pool manager behind
//!   a lock plus an inbox, run by whichever thread finds it idle, and the
//!   query manager is run by the launching thread.  The live backend
//!   serves it in process, behind an admission window; the examples, the
//!   baseline comparison and a served daemon all use it.
//! * [`server`] / [`client`] — the wire deployment: a `ypd` daemon hosts
//!   any backend behind the versioned [`actyp_proto`] protocol, and
//!   [`client::RemoteBackend`] serves the same client surface across a TCP
//!   hop, with tickets pipelined on one connection.  Session I/O is event
//!   driven: a fixed pool of I/O threads runs every session as a
//!   nonblocking state machine over the [`reactor`] (raw epoll/poll
//!   bindings), every backend call a completion that parks no thread, so
//!   one daemon holds thousands of mostly-idle sessions cheaply on the I/O
//!   pool alone.
//!   [`federation`] peers daemons across administrative domains: a query
//!   the local backend cannot satisfy is delegated over the wire with a
//!   TTL and visited-domain list, the paper's WAN topology.  Client and
//!   peer link ride the same correlated connection (`corr.rs`): one
//!   socket, any number of requests in flight, routed by correlation id.
//! * [`sim`] — the discrete-event simulated deployment used to reproduce the
//!   paper's controlled experiments (Figures 4–8), where stage service times
//!   and LAN/WAN link latencies are modelled explicitly.
//!
//! Clients should not pick a deployment-specific entry point: the [`api`]
//! module provides the unified [`api::ResourceManager`] surface — ticket
//! based, pipelined, identical across the pipeline's backends and the
//! centralized baseline architectures — constructed
//! through one [`api::PipelineBuilder`].

pub mod allocation;
pub mod api;
pub mod client;
mod corr;
pub mod directory;
pub mod federation;
pub mod gossip;
pub mod live;
pub mod message;
pub mod pool_manager;
pub mod query_manager;
pub mod reactor;
pub mod resource_pool;
pub mod scheduler;
pub mod server;
pub mod sim;

pub use allocation::{AllocateDone, Allocation, AllocationError, ReleaseDone, SessionKey};
pub use api::{BackendKind, PipelineBuilder, ResourceManager, StatsSnapshot, Ticket};
pub use client::RemoteBackend;
pub use directory::{LocalDirectoryService, PoolInstanceRecord, ShardedDirectory, SharedDirectory};
pub use federation::{is_delegable, FederatedBackend, FederationConfig, PeerUnavailable, PeerView};
pub use gossip::{AdvertLog, GossipEvent, GossipPlane};
pub use live::{LivePipeline, PipelineConfig};
pub use message::{
    AddressParseError, FragmentTag, RequestId, RequestIdGenerator, RoutingState, StageAddress,
};
pub use pool_manager::{HandleOutcome, InstanceSelection, PoolManager, PoolManagerConfig};
pub use query_manager::{PoolManagerSelection, QueryManager, ReintegrationPolicy, RouteCache};
pub use reactor::PollerKind;
pub use resource_pool::ResourcePool;
pub use scheduler::{ReplicaBias, ScheduleOutcome, Scheduler, SchedulingObjective};
pub use server::{
    serve, serve_federated, serve_federated_with, serve_with, ServerConfig, ServerHandle,
};
