//! Protocol frames: the request/response vocabulary of the `ypd` wire
//! protocol, with length-prefixed framing and version negotiation.
//!
//! # Framing
//!
//! Every frame is `[u32 length (big endian)][body]`, where the body is one
//! encoded [`ClientFrame`] or [`ServerFrame`] (a tag byte followed by the
//! variant's payload).  The declared length must match the body exactly:
//! decoders reject both truncated and over-long payloads, so a corrupted
//! stream surfaces as a [`DecodeError`] instead of silent desynchronisation.
//!
//! # Version negotiation
//!
//! The first frame on a connection must be [`ClientFrame::Hello`], carrying
//! the closed range of protocol versions the client speaks.  The server
//! answers [`ServerFrame::HelloAck`] with the highest version both sides
//! support (see [`negotiate`]) or [`ServerFrame::HelloReject`] and closes
//! the connection.  All subsequent frames are interpreted under the agreed
//! version.
//!
//! # Correlation and pipelining
//!
//! Every request after the hello carries a [`RequestId`]; the response that
//! answers it echoes the same id.  Responses may arrive in any order, which
//! is what lets a client keep many tickets in flight on one socket — the
//! paper's pipelining, spanning a real network hop.

use std::io::{self, Read, Write};

use crate::types::{Allocation, AllocationError, RequestId, StatsSnapshot};
use crate::wire::{DecodeError, EncodeError, Reader, WireDecode, WireEncode};

/// Current (and highest supported) protocol version.
///
/// Version 2 added the wide-area federation vocabulary —
/// [`ClientFrame::Delegate`] / [`ServerFrame::Delegated`] for inter-daemon
/// query delegation, and [`ClientFrame::SyncPools`] /
/// [`ServerFrame::PoolsSynced`] for pool-advertisement exchange between
/// peered daemons — and extended the [`StatsSnapshot`] wire layout with
/// the federation counters.
///
/// Version 3 added the anti-entropy gossip plane:
/// [`ClientFrame::AdvertDelta`] / [`ServerFrame::AdvertAck`] carry
/// versioned advertisement-log deltas ([`AdvertDelta`]) between peered
/// daemons, the delegation and pool-sync replies piggyback the same
/// deltas on traffic already flowing, and the [`StatsSnapshot`] layout
/// gained the gossip and route-cache counters.
///
/// Version 4 lets a query carry its own wait: a [`ClientFrame::Submit`] is
/// answered by the [`ServerFrame::Outcome`] of the query it submitted, so
/// one allocation costs one frame each way before its `Release`.  No ticket
/// crosses the wire for it; [`ServerFrame::Submitted`] is no longer sent.
/// `SubmitBatch` still issues tickets, redeemed with `Wait` / `Poll`.
pub const PROTOCOL_VERSION: u16 = 4;

/// Oldest protocol version this build still speaks.  Versions 2 and 3
/// each changed the layout of [`StatsSnapshot`] (not only added frames),
/// so an older peer would mis-decode every `StatsReply` — and a v2 peer
/// would also mis-decode the delta fields v3 appends to `Delegated`,
/// `SyncPools` and `PoolsSynced`.  Version 4 changed what answers a
/// `Submit`, so a v3 client would wait forever for a `Submitted`.  Honest
/// negotiation refuses the connection at the hello instead of
/// desynchronising mid-session.
pub const MIN_SUPPORTED_VERSION: u16 = 4;

/// Hard upper bound on one frame's body length (16 MiB).  A peer declaring
/// more is protocol-violating; the connection should be dropped.
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// Picks the protocol version for a connection: the highest version inside
/// both the client's offered range and this build's supported range, or
/// `None` when the ranges do not overlap.
pub fn negotiate(client_min: u16, client_max: u16) -> Option<u16> {
    let high = client_max.min(PROTOCOL_VERSION);
    (high >= client_min && high >= MIN_SUPPORTED_VERSION).then_some(high)
}

/// The outcome payload of a redeemed ticket, as carried on the wire.
pub type WireOutcome = Result<Vec<Allocation>, AllocationError>;

/// One event in a domain's advertisement log: at sequence number `seq`
/// the origin domain's pool `pool` came up (`alive`) or went away
/// (`!alive`).  Protocol version 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvertEntry {
    /// Position in the origin's log; strictly increasing per origin
    /// within one epoch.
    pub seq: u64,
    /// Full pool name (`signature/identifier`).
    pub pool: String,
    /// `true` when the pool came up, `false` when it was retired.
    pub alive: bool,
}

/// A slice of one origin domain's versioned advertisement log.
///
/// Receivers apply entries whose `seq` is beyond what they already hold
/// for `(origin, epoch)`; a higher `epoch` (the origin restarted)
/// invalidates everything previously known about the origin.  A delta
/// with `full` set carries the origin's complete live pool set — pools
/// the receiver holds for that origin but that are absent from the delta
/// are dead (the origin compacted its log past the receiver's floor).
/// Protocol version 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvertDelta {
    /// The domain whose log this is a slice of (not necessarily the
    /// sender: daemons relay third-party origins transitively).
    pub origin: String,
    /// The origin's log epoch; bumped when the origin restarts.
    pub epoch: u64,
    /// The origin's log head (highest sequence assigned) as of this
    /// delta.  For a `full` snapshot this is the horizon the live set is
    /// complete up to — it can exceed every entry's `seq`, since entries
    /// record when each pool *came up*, not the deaths compacted away
    /// after.
    pub head: u64,
    /// Log entries, in increasing `seq` order.
    pub entries: Vec<AdvertEntry>,
    /// `true` when `entries` is the origin's complete live set rather
    /// than an incremental tail.
    pub full: bool,
}

/// What one daemon holds of one origin's advertisement log — the version
/// vectors exchanged so peers ship only the missing tail.  Protocol
/// version 3.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdvertVersion {
    /// The origin domain.
    pub origin: String,
    /// The epoch of the origin's log the holder has.
    pub epoch: u64,
    /// Highest sequence number the holder has applied in that epoch.
    pub seq: u64,
}

impl WireEncode for AdvertEntry {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.seq.encode(out)?;
        self.pool.encode(out)?;
        self.alive.encode(out)
    }
}

impl WireDecode for AdvertEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AdvertEntry {
            seq: u64::decode(r)?,
            pool: String::decode(r)?,
            alive: bool::decode(r)?,
        })
    }
}

impl WireEncode for AdvertDelta {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.origin.encode(out)?;
        self.epoch.encode(out)?;
        self.head.encode(out)?;
        self.entries.encode(out)?;
        self.full.encode(out)
    }
}

impl WireDecode for AdvertDelta {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AdvertDelta {
            origin: String::decode(r)?,
            epoch: u64::decode(r)?,
            head: u64::decode(r)?,
            entries: Vec::<AdvertEntry>::decode(r)?,
            full: bool::decode(r)?,
        })
    }
}

impl WireEncode for AdvertVersion {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        self.origin.encode(out)?;
        self.epoch.encode(out)?;
        self.seq.encode(out)
    }
}

impl WireDecode for AdvertVersion {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(AdvertVersion {
            origin: String::decode(r)?,
            epoch: u64::decode(r)?,
            seq: u64::decode(r)?,
        })
    }
}

/// Frames a client sends to a `ypd` daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientFrame {
    /// Mandatory first frame: the closed range of protocol versions the
    /// client can speak.
    Hello {
        /// Oldest version the client accepts.
        min_version: u16,
        /// Newest version the client accepts.
        max_version: u16,
    },
    /// Submit one query (in the native key/value text form) and wait for
    /// it: answered by the query's [`ServerFrame::Outcome`] (or an
    /// [`ServerFrame::Error`] when it is refused before it runs).
    Submit {
        /// Correlation id echoed by the response.
        corr: RequestId,
        /// The query, rendered in the native text format.
        query: String,
    },
    /// Submit a batch of queries, all-or-nothing, for one ticket each.
    SubmitBatch {
        /// Correlation id echoed by the response.
        corr: RequestId,
        /// The queries, each rendered in the native text format.
        queries: Vec<String>,
    },
    /// Redeem a ticket, blocking server-side until it resolves or the
    /// optional deadline elapses.
    Wait {
        /// Correlation id echoed by the response.
        corr: RequestId,
        /// The server-issued ticket id to redeem.
        ticket: u64,
        /// Give up after this many milliseconds (the ticket stays live);
        /// `None` blocks until the outcome is ready.
        deadline_ms: Option<u64>,
    },
    /// Non-blocking redemption probe.
    Poll {
        /// Correlation id echoed by the response.
        corr: RequestId,
        /// The server-issued ticket id to probe.
        ticket: u64,
    },
    /// Hand an allocation back to the resource manager.
    Release {
        /// Correlation id echoed by the response.
        corr: RequestId,
        /// The allocation being returned (self-describing).
        allocation: Allocation,
    },
    /// Request a snapshot of the backend's lifetime counters.
    Stats {
        /// Correlation id echoed by the response.
        corr: RequestId,
    },
    /// End this session gracefully: the server settles any tickets the
    /// session still holds and closes the connection after acknowledging.
    Shutdown {
        /// Correlation id echoed by the response.
        corr: RequestId,
    },
    /// Ask the daemon itself to drain: stop accepting connections, let the
    /// open sessions finish, then exit.  Used by operators and CI.
    Halt {
        /// Correlation id echoed by the response.
        corr: RequestId,
    },
    /// Peer-to-peer (daemon-to-daemon) delegation of a query another
    /// domain could not satisfy, carrying the paper's routing state with
    /// it — "all state information is carried with the query itself".
    /// Answered by [`ServerFrame::Delegated`].  Protocol version 2.
    Delegate {
        /// Correlation id echoed by the response.
        corr: RequestId,
        /// The query, rendered in the native text format.
        query: String,
        /// Remaining delegation time-to-live (hops still allowed).  The
        /// receiving daemon spends one visiting itself.
        ttl: u32,
        /// Domains that have already handled this query; the receiver must
        /// never forward the query back to any of them.
        visited: Vec<String>,
    },
    /// Pool-advertisement exchange between peered daemons: the sender
    /// announces its domain name and the pool names it currently hosts;
    /// the receiver records them and answers [`ServerFrame::PoolsSynced`]
    /// with its own.  Sent once per peer connection, after the hello.
    /// Protocol version 2.
    SyncPools {
        /// Correlation id echoed by the response.
        corr: RequestId,
        /// The advertising daemon's domain name.
        domain: String,
        /// Full pool names the advertising daemon currently hosts.
        pools: Vec<String>,
        /// The sender's advertisement-log version vector, so the reply's
        /// piggybacked deltas carry only what the sender lacks.  Protocol
        /// version 3.
        have: Vec<AdvertVersion>,
    },
    /// Anti-entropy exchange between peered daemons: the sender ships the
    /// advertisement-log deltas it believes the receiver lacks together
    /// with its own version vector; the receiver applies them and answers
    /// [`ServerFrame::AdvertAck`] with the deltas the *sender* lacks —
    /// one round syncs both directions.  Sent by the periodic gossip tick
    /// on idle peer links.  Protocol version 3.
    AdvertDelta {
        /// Correlation id echoed by the response.
        corr: RequestId,
        /// The sending daemon's domain name.
        domain: String,
        /// Log slices the sender believes the receiver lacks.
        deltas: Vec<AdvertDelta>,
        /// The sender's advertisement-log version vector.
        have: Vec<AdvertVersion>,
    },
}

/// Frames a `ypd` daemon sends back to a client.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerFrame {
    /// Version negotiation succeeded; all further frames use `version`.
    HelloAck {
        /// The agreed protocol version.
        version: u16,
    },
    /// Version negotiation failed; the server closes the connection.
    HelloReject {
        /// Human-readable explanation (supported range, etc.).
        message: String,
    },
    /// Reserved: version 3's reply to `Submit`, which a v4 daemon never
    /// sends (a v4 `Submit` is answered by its `Outcome`).  The variant and
    /// its tag stay only until the benchmark's byte model stops naming it.
    Submitted {
        /// Correlation id of the `Submit` this answers.
        corr: RequestId,
        /// Server-issued ticket id redeemable with `Wait` / `Poll`.
        ticket: u64,
    },
    /// A `SubmitBatch` was accepted in full.
    BatchSubmitted {
        /// Correlation id of the `SubmitBatch` this answers.
        corr: RequestId,
        /// One server-issued ticket id per query, in submission order.
        tickets: Vec<u64>,
    },
    /// A query resolved: answers its `Submit`, or the `Wait` (or ready
    /// `Poll`) redeeming its batch ticket, which is now spent.
    Outcome {
        /// Correlation id of the request this answers.
        corr: RequestId,
        /// The query's outcome.
        outcome: WireOutcome,
    },
    /// Answers `Poll` while the ticket is still in flight (ticket stays
    /// live).
    Pending {
        /// Correlation id of the `Poll` this answers.
        corr: RequestId,
    },
    /// Answers `Wait` whose deadline elapsed first (ticket stays live).
    TimedOut {
        /// Correlation id of the `Wait` this answers.
        corr: RequestId,
    },
    /// A `Release` succeeded.
    Released {
        /// Correlation id of the `Release` this answers.
        corr: RequestId,
    },
    /// Answers `Stats`.
    StatsReply {
        /// Correlation id of the `Stats` this answers.
        corr: RequestId,
        /// The backend's lifetime counters.
        stats: StatsSnapshot,
    },
    /// Generic success acknowledgement (`Shutdown`, `Halt`).
    Ack {
        /// Correlation id of the request this answers.
        corr: RequestId,
    },
    /// The request failed; carries the full error taxonomy.
    Error {
        /// Correlation id of the request this answers.
        corr: RequestId,
        /// Why it failed.
        error: AllocationError,
    },
    /// Answers [`ClientFrame::Delegate`]: the outcome of the delegated
    /// query together with the routing state after the receiver's whole
    /// delegation chain finished, so the requester continues its own
    /// search without revisiting any domain or resetting the TTL.
    /// Protocol version 2.
    Delegated {
        /// Correlation id of the `Delegate` this answers.
        corr: RequestId,
        /// The delegated query's outcome.
        outcome: WireOutcome,
        /// Remaining TTL after the receiver's chain.
        ttl: u32,
        /// Every domain visited once the receiver's chain finished
        /// (superset of the request's list).
        visited: Vec<String>,
        /// Advertisement-log deltas piggybacked on the reply — news rides
        /// on traffic already flowing, the periodic anti-entropy exchange
        /// corrects anything missed.  Protocol version 3.
        deltas: Vec<AdvertDelta>,
    },
    /// Answers [`ClientFrame::SyncPools`] with the receiving daemon's own
    /// advertisement.  Protocol version 2.
    PoolsSynced {
        /// Correlation id of the `SyncPools` this answers.
        corr: RequestId,
        /// The receiving daemon's domain name.
        domain: String,
        /// Full pool names the receiving daemon currently hosts.
        pools: Vec<String>,
        /// Advertisement-log deltas beyond the request's `have` vector —
        /// a fresh link learns third-party origins in the same handshake.
        /// Protocol version 3.
        deltas: Vec<AdvertDelta>,
    },
    /// Answers [`ClientFrame::AdvertDelta`]: the receiver's domain name
    /// and the log slices the requester lacks, judged against the
    /// request's `have` vector.  Protocol version 3.
    AdvertAck {
        /// Correlation id of the `AdvertDelta` this answers.
        corr: RequestId,
        /// The answering daemon's domain name.
        domain: String,
        /// Log slices the requester lacks.
        deltas: Vec<AdvertDelta>,
    },
}

impl WireEncode for ClientFrame {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        match self {
            ClientFrame::Hello {
                min_version,
                max_version,
            } => {
                out.push(0);
                min_version.encode(out)?;
                max_version.encode(out)?;
            }
            ClientFrame::Submit { corr, query } => {
                out.push(1);
                corr.encode(out)?;
                query.encode(out)?;
            }
            ClientFrame::SubmitBatch { corr, queries } => {
                out.push(2);
                corr.encode(out)?;
                queries.encode(out)?;
            }
            ClientFrame::Wait {
                corr,
                ticket,
                deadline_ms,
            } => {
                out.push(3);
                corr.encode(out)?;
                ticket.encode(out)?;
                deadline_ms.encode(out)?;
            }
            ClientFrame::Poll { corr, ticket } => {
                out.push(4);
                corr.encode(out)?;
                ticket.encode(out)?;
            }
            ClientFrame::Release { corr, allocation } => {
                out.push(5);
                corr.encode(out)?;
                allocation.encode(out)?;
            }
            ClientFrame::Stats { corr } => {
                out.push(6);
                corr.encode(out)?;
            }
            ClientFrame::Shutdown { corr } => {
                out.push(7);
                corr.encode(out)?;
            }
            ClientFrame::Halt { corr } => {
                out.push(8);
                corr.encode(out)?;
            }
            ClientFrame::Delegate {
                corr,
                query,
                ttl,
                visited,
            } => {
                out.push(9);
                corr.encode(out)?;
                query.encode(out)?;
                ttl.encode(out)?;
                visited.encode(out)?;
            }
            ClientFrame::SyncPools {
                corr,
                domain,
                pools,
                have,
            } => {
                out.push(10);
                corr.encode(out)?;
                domain.encode(out)?;
                pools.encode(out)?;
                have.encode(out)?;
            }
            ClientFrame::AdvertDelta {
                corr,
                domain,
                deltas,
                have,
            } => {
                out.push(11);
                corr.encode(out)?;
                domain.encode(out)?;
                deltas.encode(out)?;
                have.encode(out)?;
            }
        }
        Ok(())
    }
}

impl WireDecode for ClientFrame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => ClientFrame::Hello {
                min_version: u16::decode(r)?,
                max_version: u16::decode(r)?,
            },
            1 => ClientFrame::Submit {
                corr: RequestId::decode(r)?,
                query: String::decode(r)?,
            },
            2 => ClientFrame::SubmitBatch {
                corr: RequestId::decode(r)?,
                queries: Vec::<String>::decode(r)?,
            },
            3 => ClientFrame::Wait {
                corr: RequestId::decode(r)?,
                ticket: u64::decode(r)?,
                deadline_ms: Option::<u64>::decode(r)?,
            },
            4 => ClientFrame::Poll {
                corr: RequestId::decode(r)?,
                ticket: u64::decode(r)?,
            },
            5 => ClientFrame::Release {
                corr: RequestId::decode(r)?,
                allocation: Allocation::decode(r)?,
            },
            6 => ClientFrame::Stats {
                corr: RequestId::decode(r)?,
            },
            7 => ClientFrame::Shutdown {
                corr: RequestId::decode(r)?,
            },
            8 => ClientFrame::Halt {
                corr: RequestId::decode(r)?,
            },
            9 => ClientFrame::Delegate {
                corr: RequestId::decode(r)?,
                query: String::decode(r)?,
                ttl: u32::decode(r)?,
                visited: Vec::<String>::decode(r)?,
            },
            10 => ClientFrame::SyncPools {
                corr: RequestId::decode(r)?,
                domain: String::decode(r)?,
                pools: Vec::<String>::decode(r)?,
                have: Vec::<AdvertVersion>::decode(r)?,
            },
            11 => ClientFrame::AdvertDelta {
                corr: RequestId::decode(r)?,
                domain: String::decode(r)?,
                deltas: Vec::<AdvertDelta>::decode(r)?,
                have: Vec::<AdvertVersion>::decode(r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    context: "ClientFrame",
                    tag,
                })
            }
        })
    }
}

impl WireEncode for ServerFrame {
    fn encode(&self, out: &mut Vec<u8>) -> Result<(), EncodeError> {
        match self {
            ServerFrame::HelloAck { version } => {
                out.push(0);
                version.encode(out)?;
            }
            ServerFrame::HelloReject { message } => {
                out.push(1);
                message.encode(out)?;
            }
            ServerFrame::Submitted { corr, ticket } => {
                out.push(2);
                corr.encode(out)?;
                ticket.encode(out)?;
            }
            ServerFrame::BatchSubmitted { corr, tickets } => {
                out.push(3);
                corr.encode(out)?;
                tickets.encode(out)?;
            }
            ServerFrame::Outcome { corr, outcome } => {
                out.push(4);
                corr.encode(out)?;
                outcome.encode(out)?;
            }
            ServerFrame::Pending { corr } => {
                out.push(5);
                corr.encode(out)?;
            }
            ServerFrame::TimedOut { corr } => {
                out.push(6);
                corr.encode(out)?;
            }
            ServerFrame::Released { corr } => {
                out.push(7);
                corr.encode(out)?;
            }
            ServerFrame::StatsReply { corr, stats } => {
                out.push(8);
                corr.encode(out)?;
                stats.encode(out)?;
            }
            ServerFrame::Ack { corr } => {
                out.push(9);
                corr.encode(out)?;
            }
            ServerFrame::Error { corr, error } => {
                out.push(10);
                corr.encode(out)?;
                error.encode(out)?;
            }
            ServerFrame::Delegated {
                corr,
                outcome,
                ttl,
                visited,
                deltas,
            } => {
                out.push(11);
                corr.encode(out)?;
                outcome.encode(out)?;
                ttl.encode(out)?;
                visited.encode(out)?;
                deltas.encode(out)?;
            }
            ServerFrame::PoolsSynced {
                corr,
                domain,
                pools,
                deltas,
            } => {
                out.push(12);
                corr.encode(out)?;
                domain.encode(out)?;
                pools.encode(out)?;
                deltas.encode(out)?;
            }
            ServerFrame::AdvertAck {
                corr,
                domain,
                deltas,
            } => {
                out.push(13);
                corr.encode(out)?;
                domain.encode(out)?;
                deltas.encode(out)?;
            }
        }
        Ok(())
    }
}

impl WireDecode for ServerFrame {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(match u8::decode(r)? {
            0 => ServerFrame::HelloAck {
                version: u16::decode(r)?,
            },
            1 => ServerFrame::HelloReject {
                message: String::decode(r)?,
            },
            2 => ServerFrame::Submitted {
                corr: RequestId::decode(r)?,
                ticket: u64::decode(r)?,
            },
            3 => ServerFrame::BatchSubmitted {
                corr: RequestId::decode(r)?,
                tickets: Vec::<u64>::decode(r)?,
            },
            4 => ServerFrame::Outcome {
                corr: RequestId::decode(r)?,
                outcome: WireOutcome::decode(r)?,
            },
            5 => ServerFrame::Pending {
                corr: RequestId::decode(r)?,
            },
            6 => ServerFrame::TimedOut {
                corr: RequestId::decode(r)?,
            },
            7 => ServerFrame::Released {
                corr: RequestId::decode(r)?,
            },
            8 => ServerFrame::StatsReply {
                corr: RequestId::decode(r)?,
                stats: StatsSnapshot::decode(r)?,
            },
            9 => ServerFrame::Ack {
                corr: RequestId::decode(r)?,
            },
            10 => ServerFrame::Error {
                corr: RequestId::decode(r)?,
                error: AllocationError::decode(r)?,
            },
            11 => ServerFrame::Delegated {
                corr: RequestId::decode(r)?,
                outcome: WireOutcome::decode(r)?,
                ttl: u32::decode(r)?,
                visited: Vec::<String>::decode(r)?,
                deltas: Vec::<AdvertDelta>::decode(r)?,
            },
            12 => ServerFrame::PoolsSynced {
                corr: RequestId::decode(r)?,
                domain: String::decode(r)?,
                pools: Vec::<String>::decode(r)?,
                deltas: Vec::<AdvertDelta>::decode(r)?,
            },
            13 => ServerFrame::AdvertAck {
                corr: RequestId::decode(r)?,
                domain: String::decode(r)?,
                deltas: Vec::<AdvertDelta>::decode(r)?,
            },
            tag => {
                return Err(DecodeError::BadTag {
                    context: "ServerFrame",
                    tag,
                })
            }
        })
    }
}

/// Transport-level failure while reading or writing frames.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying socket / stream failed.
    Io(io::Error),
    /// The bytes arrived but do not form a valid frame.
    Decode(DecodeError),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "transport error: {e}"),
            FrameError::Decode(e) => write!(f, "frame decode error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl From<DecodeError> for FrameError {
    fn from(e: DecodeError) -> Self {
        FrameError::Decode(e)
    }
}

/// Appends one length-prefixed frame to `out`.
///
/// A frame whose body would exceed [`MAX_FRAME_LEN`] — or that contains a
/// string or sequence over the codec's cap, which the encoder refuses
/// ([`EncodeError`]) — is rejected with `InvalidData` and `out` is left as
/// it was: sending it would make the peer drop the whole connection
/// (taking every other in-flight request with it), and a body over
/// `u32::MAX` would silently corrupt the length prefix and desynchronise
/// the stream.
pub fn encode_frame<F: WireEncode>(out: &mut Vec<u8>, frame: &F) -> io::Result<()> {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    let refused = match frame.encode(out) {
        Err(e) => Some(e.to_string()),
        Ok(()) if out.len() - start - 4 > MAX_FRAME_LEN => Some(format!(
            "outgoing frame body of {} bytes exceeds the protocol limit of {MAX_FRAME_LEN}",
            out.len() - start - 4
        )),
        Ok(()) => None,
    };
    if let Some(message) = refused {
        out.truncate(start);
        return Err(io::Error::new(io::ErrorKind::InvalidData, message));
    }
    let len = (out.len() - start - 4) as u32;
    out[start..start + 4].copy_from_slice(&len.to_be_bytes());
    Ok(())
}

/// Writes one length-prefixed frame with a single `write_all`: prefix and
/// body leave in one segment, so a `TCP_NODELAY` peer is never woken for
/// the 4-byte prefix alone.  Refuses what [`encode_frame`] refuses, before
/// any byte reaches `w`.
pub fn write_frame<W: Write, F: WireEncode>(w: &mut W, frame: &F) -> io::Result<()> {
    let mut bytes = Vec::new();
    encode_frame(&mut bytes, frame)?;
    w.write_all(&bytes)?;
    w.flush()
}

/// Splits the first complete frame off the front of `buf`: its body and
/// the bytes it spans, prefix included.  `Ok(None)` while the frame is
/// still incomplete; an error when the declared length exceeds
/// [`MAX_FRAME_LEN`], which no amount of further input can repair.  The
/// one length-prefix parser of the buffered readers — the daemon's
/// reactor sessions and the dialing side's connection.
pub fn split_frame(buf: &[u8]) -> Result<Option<(&[u8], usize)>, DecodeError> {
    let Some(&[a, b, c, d]) = buf.get(..4) else {
        return Ok(None);
    };
    let declared = u32::from_be_bytes([a, b, c, d]) as usize;
    if declared > MAX_FRAME_LEN {
        return Err(DecodeError::TooLarge {
            declared,
            limit: MAX_FRAME_LEN,
        });
    }
    Ok(buf.get(4..4 + declared).map(|body| (body, 4 + declared)))
}

/// Reads one length-prefixed frame body.  Returns `Ok(None)` on a clean end
/// of stream (the peer closed the connection between frames).
pub fn read_frame_body<R: Read>(r: &mut R) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before any length byte means the peer hung up politely.
    match r.read(&mut len_bytes) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_bytes[n..])?,
        Err(e) if e.kind() == io::ErrorKind::Interrupted => {
            r.read_exact(&mut len_bytes)?;
        }
        Err(e) => return Err(FrameError::Io(e)),
    }
    let len = u32::from_be_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::Decode(DecodeError::TooLarge {
            declared: len,
            limit: MAX_FRAME_LEN,
        }));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(Some(body))
}

/// Reads one [`ClientFrame`]; `Ok(None)` on clean end of stream.
pub fn read_client_frame<R: Read>(r: &mut R) -> Result<Option<ClientFrame>, FrameError> {
    match read_frame_body(r)? {
        None => Ok(None),
        Some(body) => Ok(Some(ClientFrame::from_wire_bytes(&body)?)),
    }
}

/// Reads one [`ServerFrame`]; `Ok(None)` on clean end of stream.
pub fn read_server_frame<R: Read>(r: &mut R) -> Result<Option<ServerFrame>, FrameError> {
    match read_frame_body(r)? {
        None => Ok(None),
        Some(body) => Ok(Some(ServerFrame::from_wire_bytes(&body)?)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::SessionKey;
    use crate::wire::MAX_SEQUENCE_LEN;
    use actyp_grid::MachineId;

    fn allocation() -> Allocation {
        Allocation {
            request: RequestId(9),
            machine: MachineId(4),
            machine_name: "hp-00004.upc.es".to_string(),
            execution_port: 7070,
            mount_port: 7071,
            shadow_uid: None,
            access_key: SessionKey::derive(RequestId(9), 0, 77),
            pool: "arch,==/hp".to_string(),
            pool_instance: 0,
            examined: 12,
        }
    }

    #[test]
    fn negotiation_picks_the_highest_common_version() {
        assert_eq!(negotiate(4, 4), Some(4));
        assert_eq!(negotiate(1, 99), Some(PROTOCOL_VERSION));
        assert_eq!(
            negotiate(MIN_SUPPORTED_VERSION, PROTOCOL_VERSION),
            Some(PROTOCOL_VERSION)
        );
        // A client that only speaks future versions is rejected.
        assert_eq!(negotiate(PROTOCOL_VERSION + 1, PROTOCOL_VERSION + 5), None);
        // A client that only speaks retired versions is rejected: v2 and
        // v3 each changed the StatsSnapshot layout (and v3 the delegation
        // reply layout), and a v3 client would wait for a `Submitted` no
        // v4 daemon sends.
        assert_eq!(negotiate(1, 1), None);
        assert_eq!(negotiate(2, 2), None);
        assert_eq!(negotiate(3, 3), None);
        assert_eq!(negotiate(1, 3), None);
        // An inverted range is rejected.
        assert_eq!(negotiate(5, 4), None);
    }

    #[test]
    fn frames_round_trip_through_a_stream() {
        let frames = vec![
            ClientFrame::Hello {
                min_version: 1,
                max_version: 1,
            },
            ClientFrame::Submit {
                corr: RequestId(1),
                query: "punch.rsrc.arch = sun\n".to_string(),
            },
            ClientFrame::Wait {
                corr: RequestId(2),
                ticket: 0,
                deadline_ms: Some(250),
            },
            ClientFrame::Release {
                corr: RequestId(3),
                allocation: allocation(),
            },
            ClientFrame::Halt { corr: RequestId(4) },
            ClientFrame::Delegate {
                corr: RequestId(5),
                query: "punch.rsrc.arch = hp\n".to_string(),
                ttl: 3,
                visited: vec!["purdue".to_string(), "upc".to_string()],
            },
            ClientFrame::SyncPools {
                corr: RequestId(6),
                domain: "purdue".to_string(),
                pools: vec!["arch,==/sun".to_string()],
                have: vec![AdvertVersion {
                    origin: "upc".to_string(),
                    epoch: 4,
                    seq: 17,
                }],
            },
            ClientFrame::AdvertDelta {
                corr: RequestId(7),
                domain: "purdue".to_string(),
                deltas: vec![AdvertDelta {
                    origin: "purdue".to_string(),
                    epoch: 2,
                    head: 6,
                    entries: vec![
                        AdvertEntry {
                            seq: 5,
                            pool: "arch,==/sun".to_string(),
                            alive: true,
                        },
                        AdvertEntry {
                            seq: 6,
                            pool: "arch,==/sgi".to_string(),
                            alive: false,
                        },
                    ],
                    full: false,
                }],
                have: vec![],
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        let mut cursor = &stream[..];
        for f in &frames {
            assert_eq!(read_client_frame(&mut cursor).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_client_frame(&mut cursor).unwrap(), None, "clean EOF");
    }

    #[test]
    fn server_frames_round_trip_through_a_stream() {
        let frames = vec![
            ServerFrame::HelloAck { version: 1 },
            ServerFrame::Submitted {
                corr: RequestId(1),
                ticket: 3,
            },
            ServerFrame::Outcome {
                corr: RequestId(2),
                outcome: Ok(vec![allocation()]),
            },
            ServerFrame::Outcome {
                corr: RequestId(3),
                outcome: Err(AllocationError::NoSuchResources),
            },
            ServerFrame::TimedOut { corr: RequestId(4) },
            ServerFrame::Error {
                corr: RequestId(5),
                error: AllocationError::Protocol("x".into()),
            },
            ServerFrame::Delegated {
                corr: RequestId(6),
                outcome: Ok(vec![allocation()]),
                ttl: 2,
                visited: vec!["purdue".to_string(), "upc".to_string()],
                deltas: vec![AdvertDelta {
                    origin: "upc".to_string(),
                    epoch: 1,
                    head: 1,
                    entries: vec![AdvertEntry {
                        seq: 1,
                        pool: "arch,==/hp".to_string(),
                        alive: true,
                    }],
                    full: true,
                }],
            },
            ServerFrame::Delegated {
                corr: RequestId(7),
                outcome: Err(AllocationError::TtlExpired),
                ttl: 0,
                visited: vec!["purdue".to_string()],
                deltas: vec![],
            },
            ServerFrame::PoolsSynced {
                corr: RequestId(8),
                domain: "upc".to_string(),
                pools: vec!["arch,==/hp".to_string(), "arch,==/sun".to_string()],
                deltas: vec![],
            },
            ServerFrame::AdvertAck {
                corr: RequestId(9),
                domain: "upc".to_string(),
                deltas: vec![AdvertDelta {
                    origin: "cern".to_string(),
                    epoch: 3,
                    head: 0,
                    entries: vec![],
                    full: false,
                }],
            },
        ];
        let mut stream = Vec::new();
        for f in &frames {
            write_frame(&mut stream, f).unwrap();
        }
        let mut cursor = &stream[..];
        for f in &frames {
            assert_eq!(read_server_frame(&mut cursor).unwrap().as_ref(), Some(f));
        }
        assert_eq!(read_server_frame(&mut cursor).unwrap(), None);
    }

    #[test]
    fn oversized_outgoing_frames_are_refused_before_any_byte_is_sent() {
        // A batch whose rendered queries together exceed MAX_FRAME_LEN.
        let frame = ClientFrame::SubmitBatch {
            corr: RequestId(1),
            queries: vec!["q".repeat(MAX_SEQUENCE_LEN - 1); 17],
        };
        let mut stream = Vec::new();
        let err = write_frame(&mut stream, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(stream.is_empty(), "nothing reached the stream");
    }

    /// Counts the `write` calls a frame costs the transport.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_frame_leaves_in_one_write() {
        let frames = [
            ClientFrame::Stats { corr: RequestId(1) },
            ClientFrame::Release {
                corr: RequestId(2),
                allocation: allocation(),
            },
        ];
        let mut wire = CountingWriter::default();
        for frame in &frames {
            write_frame(&mut wire, frame).unwrap();
        }
        assert_eq!(wire.writes, frames.len(), "prefix and body in one segment");
        let mut cursor = &wire.bytes[..];
        for frame in &frames {
            assert_eq!(
                read_client_frame(&mut cursor).unwrap().as_ref(),
                Some(frame)
            );
        }
    }

    #[test]
    fn split_frame_waits_for_the_whole_frame_and_refuses_giants() {
        let mut stream = Vec::new();
        encode_frame(&mut stream, &ClientFrame::Stats { corr: RequestId(3) }).unwrap();
        encode_frame(&mut stream, &ClientFrame::Halt { corr: RequestId(4) }).unwrap();
        let first = stream.len()
            - 4
            - ClientFrame::Halt { corr: RequestId(4) }
                .to_wire_bytes()
                .unwrap()
                .len();
        for cut in 0..first {
            assert_eq!(split_frame(&stream[..cut]).unwrap(), None, "cut at {cut}");
        }
        let (body, used) = split_frame(&stream).unwrap().unwrap();
        assert_eq!(used, first);
        assert_eq!(
            ClientFrame::from_wire_bytes(body).unwrap(),
            ClientFrame::Stats { corr: RequestId(3) }
        );
        let (body, _) = split_frame(&stream[used..]).unwrap().unwrap();
        assert_eq!(
            ClientFrame::from_wire_bytes(body).unwrap(),
            ClientFrame::Halt { corr: RequestId(4) }
        );
        let giant = ((MAX_FRAME_LEN as u32) + 1).to_be_bytes();
        assert!(matches!(
            split_frame(&giant),
            Err(DecodeError::TooLarge { .. })
        ));
    }

    #[test]
    fn a_refused_frame_leaves_the_buffer_as_it_was() {
        let mut out = vec![7u8; 3];
        let frame = ClientFrame::Delegate {
            corr: RequestId(1),
            query: "q".repeat(MAX_SEQUENCE_LEN + 1),
            ttl: 4,
            visited: Vec::new(),
        };
        let err = encode_frame(&mut out, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert_eq!(out, vec![7u8; 3]);
    }

    #[test]
    fn oversized_frame_lengths_are_rejected_before_allocation() {
        let mut stream = Vec::new();
        stream.extend_from_slice(&((MAX_FRAME_LEN as u32) + 1).to_be_bytes());
        let mut cursor = &stream[..];
        assert!(matches!(
            read_client_frame(&mut cursor),
            Err(FrameError::Decode(DecodeError::TooLarge { .. }))
        ));
    }

    #[test]
    fn a_frame_cut_mid_body_is_an_io_error() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &ClientFrame::Stats { corr: RequestId(0) }).unwrap();
        stream.truncate(stream.len() - 1);
        let mut cursor = &stream[..];
        assert!(matches!(
            read_client_frame(&mut cursor),
            Err(FrameError::Io(_))
        ));
    }

    #[test]
    fn over_cap_values_are_refused_at_the_frame_writer() {
        // A single over-cap string inside a frame is an *encode* failure,
        // caught before any byte is written.  On the pre-fix codec this
        // frame encoded fine and only the peer's decoder rejected it.
        let frame = ClientFrame::Delegate {
            corr: RequestId(1),
            query: "q".repeat(MAX_SEQUENCE_LEN + 1),
            ttl: 4,
            visited: Vec::new(),
        };
        let mut stream = Vec::new();
        let err = write_frame(&mut stream, &frame).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(stream.is_empty(), "nothing reached the stream");
        assert!(matches!(
            frame.to_wire_bytes(),
            Err(EncodeError::TooLong { .. })
        ));
    }

    #[test]
    fn frame_length_must_match_payload_exactly() {
        // A valid body with a spare byte appended inside the frame.
        let mut body = ClientFrame::Stats { corr: RequestId(7) }
            .to_wire_bytes()
            .unwrap();
        body.push(0xAB);
        let mut stream = Vec::new();
        stream.extend_from_slice(&(body.len() as u32).to_be_bytes());
        stream.extend_from_slice(&body);
        let mut cursor = &stream[..];
        assert!(matches!(
            read_client_frame(&mut cursor),
            Err(FrameError::Decode(DecodeError::TrailingBytes { .. }))
        ));
    }
}
