//! The client-visible data model of the resource manager, shared by every
//! deployment and carried verbatim on the wire.
//!
//! These types used to live inside the pipeline crate; they moved here when
//! the `ResourceManager` API became a network protocol, because a request
//! identifier, a stage address, an allocation and an error taxonomy are
//! exactly the things a client and a daemon must agree on.
//! `actyp_pipeline` re-exports them, so in-process code is unaffected.

use std::fmt;
use std::str::FromStr;
use std::sync::atomic::{AtomicU64, Ordering};

use actyp_grid::MachineId;

use crate::wire::{DecodeError, EncodeError, Reader, WireDecode, WireEncode};

/// Globally unique identifier of a client request.
///
/// On the wire this doubles as the correlation id that matches a response
/// frame to the request frame that caused it, which is what lets several
/// requests be in flight on one connection at once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RequestId(pub u64);

impl fmt::Display for RequestId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req-{}", self.0)
    }
}

impl WireEncode for RequestId {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.0.encode(out)
    }
}

impl WireDecode for RequestId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RequestId(u64::decode(r)?))
    }
}

/// Monotonic generator of request identifiers, shared by query managers and
/// protocol clients.
#[derive(Debug, Default)]
pub struct RequestIdGenerator {
    next: AtomicU64,
}

impl RequestIdGenerator {
    /// A generator starting at zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns a fresh identifier.
    pub fn next(&self) -> RequestId {
        RequestId(self.next.fetch_add(1, Ordering::Relaxed))
    }
}

/// Why a textual stage address could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AddressParseError {
    /// The input was empty or all whitespace.
    Empty,
    /// No `:` separates the host from the port.
    MissingPort,
    /// The host part before the `:` is empty.
    EmptyHost,
    /// The port part is not a number in `0..=65535`.
    InvalidPort(String),
}

impl fmt::Display for AddressParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AddressParseError::Empty => write!(f, "empty address"),
            AddressParseError::MissingPort => {
                write!(f, "address must be host:port (no `:` found)")
            }
            AddressParseError::EmptyHost => write!(f, "address has an empty host part"),
            AddressParseError::InvalidPort(raw) => {
                write!(f, "invalid port `{raw}` (expected 0..=65535)")
            }
        }
    }
}

impl std::error::Error for AddressParseError {}

/// Logical network address of a pipeline stage (host name and TCP/UDP port).
/// The live deployment maps these to channels; the simulated deployment maps
/// them to latency-model endpoints; the remote deployment connects to them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StageAddress {
    /// Host the stage runs on.
    pub host: String,
    /// Port the stage listens on.
    pub port: u16,
}

impl StageAddress {
    /// Convenience constructor.
    pub fn new(host: impl Into<String>, port: u16) -> Self {
        StageAddress {
            host: host.into(),
            port,
        }
    }
}

impl fmt::Display for StageAddress {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.host, self.port)
    }
}

impl FromStr for StageAddress {
    type Err = AddressParseError;

    /// Parses `host:port`, the inverse of [`Display`](StageAddress#impl-Display-for-StageAddress).
    /// The port is the part after the *last* `:`, so a numeric IPv6 host can
    /// be given in bracket-free form as long as the trailing component is
    /// the port.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let s = s.trim();
        if s.is_empty() {
            return Err(AddressParseError::Empty);
        }
        let (host, port) = s.rsplit_once(':').ok_or(AddressParseError::MissingPort)?;
        if host.is_empty() {
            return Err(AddressParseError::EmptyHost);
        }
        let port = port
            .parse::<u16>()
            .map_err(|_| AddressParseError::InvalidPort(port.to_string()))?;
        Ok(StageAddress::new(host, port))
    }
}

impl WireEncode for StageAddress {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.host.encode(out)?;
        self.port.encode(out)
    }
}

impl WireDecode for StageAddress {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(StageAddress {
            host: String::decode(r)?,
            port: u16::decode(r)?,
        })
    }
}

/// A session-specific access key exchanged among the resources taking part
/// in a run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SessionKey(pub String);

impl SessionKey {
    /// Derives a key from a request id, an instance number and a nonce.
    /// (The production system exchanged cryptographic material; a unique
    /// opaque token preserves the interface.)
    pub fn derive(request: RequestId, instance: u32, nonce: u64) -> Self {
        SessionKey(format!(
            "actyp-{:08x}-{instance:02x}-{nonce:016x}",
            request.0
        ))
    }
}

impl fmt::Display for SessionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl WireEncode for SessionKey {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.0.encode(out)
    }
}

impl WireDecode for SessionKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(SessionKey(String::decode(r)?))
    }
}

impl WireEncode for MachineId {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.0.encode(out)
    }
}

impl WireDecode for MachineId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(MachineId(u64::decode(r)?))
    }
}

/// A successful resource allocation returned to the client.
///
/// The contract the paper describes is simple: "the network desktop simply
/// asks ActYP for resources (via a query language); and it gets back an IP
/// address, a TCP port number, and a session-specific access key."  An
/// `Allocation` is that reply, extended with the bookkeeping the desktop
/// needs to later release the resources (machine id, pool name, shadow
/// account uid).  It is fully self-describing, which is what lets a client
/// hand it back over the wire to release it.
#[derive(Debug, Clone, PartialEq)]
pub struct Allocation {
    /// The request this allocation answers.
    pub request: RequestId,
    /// Database id of the selected machine.
    pub machine: MachineId,
    /// Host name of the selected machine.
    pub machine_name: String,
    /// TCP port of the PUNCH execution unit on the machine.
    pub execution_port: u16,
    /// TCP port of the PVFS mount manager on the machine.
    pub mount_port: u16,
    /// The shadow-account uid selected for the run, when one was needed
    /// (runs in the shared account carry `None`).
    pub shadow_uid: Option<u32>,
    /// Session-specific access key.
    pub access_key: SessionKey,
    /// Full name (`signature/identifier`) of the pool that served the query.
    pub pool: String,
    /// Instance number of that pool.
    pub pool_instance: u32,
    /// Number of cached machines the scheduling process examined (used by
    /// the evaluation; the paper's response times are dominated by this
    /// linear search).
    pub examined: usize,
}

impl WireEncode for Allocation {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.request.encode(out)?;
        self.machine.encode(out)?;
        self.machine_name.encode(out)?;
        self.execution_port.encode(out)?;
        self.mount_port.encode(out)?;
        self.shadow_uid.encode(out)?;
        self.access_key.encode(out)?;
        self.pool.encode(out)?;
        self.pool_instance.encode(out)?;
        (self.examined as u64).encode(out)
    }
}

impl WireDecode for Allocation {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Allocation {
            request: RequestId::decode(r)?,
            machine: MachineId::decode(r)?,
            machine_name: String::decode(r)?,
            execution_port: u16::decode(r)?,
            mount_port: u16::decode(r)?,
            shadow_uid: Option::<u32>::decode(r)?,
            access_key: SessionKey::decode(r)?,
            pool: String::decode(r)?,
            pool_instance: u32::decode(r)?,
            examined: u64::decode(r)? as usize,
        })
    }
}

/// Why an allocation (or a protocol operation) failed.
///
/// The first group mirrors the failure modes of the paper's pipeline; the
/// last three belong to the network deployment, where the transport and the
/// protocol itself can fail independently of resource management.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocationError {
    /// The query could not be parsed.
    Parse(String),
    /// The query violates the schema of its family.
    Schema(String),
    /// No pool exists or can be created for the requested aggregation (no
    /// machine in the white pages satisfies the constraints).
    NoSuchResources,
    /// The pool exists but every matching machine is busy, down or denied by
    /// policy at the moment.
    NoneAvailable,
    /// All matching machines rejected the user (user-group or usage policy).
    PolicyDenied,
    /// A shadow account was required but none are free on the candidates.
    ShadowAccountsExhausted,
    /// The delegation time-to-live reached zero before any pool manager
    /// could satisfy the request.
    TtlExpired,
    /// The referenced allocation is unknown (double release, bad handle).
    UnknownAllocation,
    /// The referenced ticket is unknown (already waited, or issued by a
    /// different backend).
    UnknownTicket,
    /// Internal failure (a stage died, a channel closed).
    Internal(String),
    /// The transport to a remote resource manager failed (connect, read or
    /// write error, connection closed mid-request).
    Network(String),
    /// The peer violated the wire protocol (bad frame, unexpected reply,
    /// failed version negotiation).
    Protocol(String),
}

impl fmt::Display for AllocationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AllocationError::Parse(m) => write!(f, "query parse error: {m}"),
            AllocationError::Schema(m) => write!(f, "query schema violation: {m}"),
            AllocationError::NoSuchResources => {
                write!(f, "no resources of the requested type exist")
            }
            AllocationError::NoneAvailable => {
                write!(f, "no matching resource is currently available")
            }
            AllocationError::PolicyDenied => {
                write!(f, "access denied by machine usage policies")
            }
            AllocationError::ShadowAccountsExhausted => {
                write!(f, "no shadow accounts available on matching machines")
            }
            AllocationError::TtlExpired => {
                write!(f, "request time-to-live expired during delegation")
            }
            AllocationError::UnknownAllocation => write!(f, "unknown allocation handle"),
            AllocationError::UnknownTicket => write!(f, "unknown submission ticket"),
            AllocationError::Internal(m) => write!(f, "internal pipeline error: {m}"),
            AllocationError::Network(m) => write!(f, "network transport error: {m}"),
            AllocationError::Protocol(m) => write!(f, "wire protocol violation: {m}"),
        }
    }
}

impl std::error::Error for AllocationError {}

impl WireEncode for AllocationError {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        match self {
            AllocationError::Parse(m) => {
                out.push(0);
                m.encode(out)?;
            }
            AllocationError::Schema(m) => {
                out.push(1);
                m.encode(out)?;
            }
            AllocationError::NoSuchResources => out.push(2),
            AllocationError::NoneAvailable => out.push(3),
            AllocationError::PolicyDenied => out.push(4),
            AllocationError::ShadowAccountsExhausted => out.push(5),
            AllocationError::TtlExpired => out.push(6),
            AllocationError::UnknownAllocation => out.push(7),
            AllocationError::UnknownTicket => out.push(8),
            AllocationError::Internal(m) => {
                out.push(9);
                m.encode(out)?;
            }
            AllocationError::Network(m) => {
                out.push(10);
                m.encode(out)?;
            }
            AllocationError::Protocol(m) => {
                out.push(11);
                m.encode(out)?;
            }
        }
        Ok(())
    }
}

impl WireDecode for AllocationError {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => AllocationError::Parse(String::decode(r)?),
            1 => AllocationError::Schema(String::decode(r)?),
            2 => AllocationError::NoSuchResources,
            3 => AllocationError::NoneAvailable,
            4 => AllocationError::PolicyDenied,
            5 => AllocationError::ShadowAccountsExhausted,
            6 => AllocationError::TtlExpired,
            7 => AllocationError::UnknownAllocation,
            8 => AllocationError::UnknownTicket,
            9 => AllocationError::Internal(String::decode(r)?),
            10 => AllocationError::Network(String::decode(r)?),
            11 => AllocationError::Protocol(String::decode(r)?),
            tag => {
                return Err(DecodeError::BadTag {
                    context: "AllocationError",
                    tag,
                })
            }
        })
    }
}

/// A unified snapshot of the counters every backend reports.
///
/// The pipeline backends fill the per-stage counters (fragments,
/// delegations, forwards); the centralized baselines leave those at zero —
/// they have no stages to delegate between, which is exactly the
/// architectural contrast the paper draws.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Client requests submitted.
    pub requests: u64,
    /// Basic queries produced by decomposition.
    pub fragments: u64,
    /// Successful allocations handed to clients.
    pub allocations: u64,
    /// Failed requests or fragments.
    pub failures: u64,
    /// Delegations between pool managers (pipeline backends only).
    pub delegations: u64,
    /// Forwards to pool instances hosted elsewhere (pipeline backends only).
    pub forwards: u64,
    /// Queries this daemon delegated to peer domains over the wire after
    /// the local backend could not satisfy them (federated daemons only).
    pub delegations_out: u64,
    /// Peer delegation requests this daemon served, whether it satisfied
    /// them locally or forwarded them further (federated daemons only).
    pub delegations_in: u64,
    /// Allocations released by clients.
    pub releases: u64,
    /// Machine records examined — the quantity the paper's comparison
    /// figures plot.  Pool caches keep it small for the pipeline; the
    /// centralized baselines scan the full table per decision.  The
    /// pipeline backends attribute scans to the successful allocations they
    /// return (`Allocation::examined`); the baselines report their central
    /// component's lifetime scan total, which includes decisions that found
    /// no machine — that asymmetry is inherited from the figure accounting
    /// the paper's evaluation uses.
    pub records_examined: u64,
    /// Tickets submitted but not yet redeemed.
    pub in_flight: usize,
    /// Advertisement-log deltas applied from peers — piggybacked on
    /// delegation traffic or pulled by the anti-entropy tick (federated
    /// daemons only).
    pub gossip_deltas_in: u64,
    /// Advertisement-log deltas shipped to peers (federated daemons only).
    pub gossip_deltas_out: u64,
    /// Delegations routed straight to a cached satisfying domain
    /// (federated daemons only).
    pub route_hits: u64,
    /// Delegations that fell back to the TTL-bounded chain walk because no
    /// cached route existed (federated daemons only).
    pub route_misses: u64,
    /// Peer links re-dialed after a previously-established connection
    /// dropped.  Zero on a healthy federation — gossip keeps directories
    /// fresh without tearing links down.
    pub peer_redials: u64,
    /// Times a hot-path shard (directory shard, admission-window lane,
    /// pending-ticket shard) was found contended and the caller had to
    /// fall back to a blocking acquire.  Zero when the shard count
    /// matches the offered concurrency.
    pub shard_contention: u64,
    /// Frames decoded from a readable event that carried more than one
    /// (the reactor decodes every complete frame per readable event, not
    /// one).
    pub frames_batched: u64,
    /// Flushes that drained more than one queued frame with a single
    /// coalesced socket write.
    pub writes_coalesced: u64,
}

impl WireEncode for StatsSnapshot {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.requests.encode(out)?;
        self.fragments.encode(out)?;
        self.allocations.encode(out)?;
        self.failures.encode(out)?;
        self.delegations.encode(out)?;
        self.forwards.encode(out)?;
        self.delegations_out.encode(out)?;
        self.delegations_in.encode(out)?;
        self.releases.encode(out)?;
        self.records_examined.encode(out)?;
        (self.in_flight as u64).encode(out)?;
        self.gossip_deltas_in.encode(out)?;
        self.gossip_deltas_out.encode(out)?;
        self.route_hits.encode(out)?;
        self.route_misses.encode(out)?;
        self.peer_redials.encode(out)?;
        self.shard_contention.encode(out)?;
        self.frames_batched.encode(out)?;
        self.writes_coalesced.encode(out)
    }
}

impl WireDecode for StatsSnapshot {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(StatsSnapshot {
            requests: u64::decode(r)?,
            fragments: u64::decode(r)?,
            allocations: u64::decode(r)?,
            failures: u64::decode(r)?,
            delegations: u64::decode(r)?,
            forwards: u64::decode(r)?,
            delegations_out: u64::decode(r)?,
            delegations_in: u64::decode(r)?,
            releases: u64::decode(r)?,
            records_examined: u64::decode(r)?,
            in_flight: u64::decode(r)? as usize,
            gossip_deltas_in: u64::decode(r)?,
            gossip_deltas_out: u64::decode(r)?,
            route_hits: u64::decode(r)?,
            route_misses: u64::decode(r)?,
            peer_redials: u64::decode(r)?,
            shard_contention: u64::decode(r)?,
            frames_batched: u64::decode(r)?,
            writes_coalesced: u64::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{WireDecode, WireEncode};

    #[test]
    fn stage_address_display_parse_round_trip() {
        let a = StageAddress::new("actyp.ecn.purdue.edu", 7200);
        assert_eq!(a.to_string(), "actyp.ecn.purdue.edu:7200");
        assert_eq!(a.to_string().parse::<StageAddress>().unwrap(), a);
        // Whitespace is tolerated; the last colon splits host from port.
        assert_eq!(
            " 127.0.0.1:7411 ".parse::<StageAddress>().unwrap(),
            StageAddress::new("127.0.0.1", 7411)
        );
        assert_eq!(
            "::1:7411".parse::<StageAddress>().unwrap(),
            StageAddress::new("::1", 7411)
        );
    }

    #[test]
    fn stage_address_parse_errors_are_typed() {
        assert_eq!("".parse::<StageAddress>(), Err(AddressParseError::Empty));
        assert_eq!("   ".parse::<StageAddress>(), Err(AddressParseError::Empty));
        assert_eq!(
            "localhost".parse::<StageAddress>(),
            Err(AddressParseError::MissingPort)
        );
        assert_eq!(
            ":7411".parse::<StageAddress>(),
            Err(AddressParseError::EmptyHost)
        );
        assert_eq!(
            "host:".parse::<StageAddress>(),
            Err(AddressParseError::InvalidPort(String::new()))
        );
        assert_eq!(
            "host:notaport".parse::<StageAddress>(),
            Err(AddressParseError::InvalidPort("notaport".to_string()))
        );
        assert_eq!(
            "host:65536".parse::<StageAddress>(),
            Err(AddressParseError::InvalidPort("65536".to_string()))
        );
        assert_eq!(
            "host:-1".parse::<StageAddress>(),
            Err(AddressParseError::InvalidPort("-1".to_string()))
        );
        // The error messages name the problem.
        assert!(AddressParseError::MissingPort
            .to_string()
            .contains("host:port"));
        assert!(AddressParseError::InvalidPort("99999".into())
            .to_string()
            .contains("99999"));
    }

    fn sample_allocation() -> Allocation {
        Allocation {
            request: RequestId(5),
            machine: MachineId(10),
            machine_name: "sun-00010.purdue.edu".to_string(),
            execution_port: 7070,
            mount_port: 7071,
            shadow_uid: Some(6003),
            access_key: SessionKey::derive(RequestId(5), 1, 7),
            pool: "arch,==/sun".to_string(),
            pool_instance: 1,
            examined: 37,
        }
    }

    #[test]
    fn allocation_round_trips_on_the_wire() {
        let a = sample_allocation();
        let bytes = a.to_wire_bytes().unwrap();
        assert_eq!(Allocation::from_wire_bytes(&bytes).unwrap(), a);
        // Without a shadow uid too (different Option arm).
        let mut b = sample_allocation();
        b.shadow_uid = None;
        assert_eq!(
            Allocation::from_wire_bytes(&b.to_wire_bytes().unwrap()).unwrap(),
            b
        );
    }

    #[test]
    fn every_error_variant_round_trips_on_the_wire() {
        let variants = vec![
            AllocationError::Parse("line 3".into()),
            AllocationError::Schema("bad key".into()),
            AllocationError::NoSuchResources,
            AllocationError::NoneAvailable,
            AllocationError::PolicyDenied,
            AllocationError::ShadowAccountsExhausted,
            AllocationError::TtlExpired,
            AllocationError::UnknownAllocation,
            AllocationError::UnknownTicket,
            AllocationError::Internal("stage died".into()),
            AllocationError::Network("connection reset".into()),
            AllocationError::Protocol("bad frame".into()),
        ];
        for e in variants {
            let bytes = e.to_wire_bytes().unwrap();
            assert_eq!(AllocationError::from_wire_bytes(&bytes).unwrap(), e);
        }
    }

    #[test]
    fn stats_snapshot_round_trips_on_the_wire() {
        let s = StatsSnapshot {
            requests: 1,
            fragments: 2,
            allocations: 3,
            failures: 4,
            delegations: 5,
            forwards: 6,
            delegations_out: 10,
            delegations_in: 11,
            releases: 7,
            records_examined: 8,
            in_flight: 9,
            gossip_deltas_in: 12,
            gossip_deltas_out: 13,
            route_hits: 14,
            route_misses: 15,
            peer_redials: 16,
            shard_contention: 17,
            frames_batched: 18,
            writes_coalesced: 19,
        };
        assert_eq!(
            StatsSnapshot::from_wire_bytes(&s.to_wire_bytes().unwrap()).unwrap(),
            s
        );
    }
}
