//! # actyp-proto — the ActYP resource-management wire protocol
//!
//! The paper's stages are *network* services: "queries propagate from one
//! stage to the next via TCP or UDP", and clients talk to the resource
//! manager over a socket.  This crate is the contract that makes the
//! repository's unified `ResourceManager` API a protocol rather than a
//! trait object:
//!
//! * [`wire`] — a hand-rolled, length-prefixed binary codec (no external
//!   serialisation dependency): [`wire::WireEncode`] / [`wire::WireDecode`]
//!   over big-endian integers, UTF-8 strings, options and sequences, with
//!   total (never-panicking) decoding and *symmetric* limits — every cap
//!   the decoder enforces is enforced at encode time too, so a value no
//!   peer could decode fails at the sender ([`wire::EncodeError`]).
//! * [`types`] — the client-visible data model shared by every deployment:
//!   [`RequestId`], [`StageAddress`] (with a `host:port` `FromStr` /
//!   `Display` round trip), [`SessionKey`], [`Allocation`], the
//!   [`AllocationError`] taxonomy (extended with [`AllocationError::Network`]
//!   and [`AllocationError::Protocol`] for the wire deployment) and
//!   [`StatsSnapshot`].
//! * [`frames`] — the protocol itself: [`ClientFrame`] / [`ServerFrame`]
//!   covering the full `ResourceManager` surface (submit, batch submit,
//!   wait-with-deadline, poll, release, stats, session shutdown, daemon
//!   halt), framed as `[u32 length][body]` with explicit version
//!   negotiation ([`ClientFrame::Hello`] → [`ServerFrame::HelloAck`]) and
//!   response correlation by [`RequestId`] so requests pipeline on one
//!   connection.  Version 2 adds the wide-area federation vocabulary:
//!   [`ClientFrame::Delegate`] / [`ServerFrame::Delegated`] carry a query,
//!   its remaining TTL and the visited-domain list between peered daemons,
//!   and [`ClientFrame::SyncPools`] / [`ServerFrame::PoolsSynced`]
//!   exchange pool advertisements so peers learn each other's pool names.
//!   Version 3 adds the anti-entropy gossip plane:
//!   [`ClientFrame::AdvertDelta`] / [`ServerFrame::AdvertAck`] exchange
//!   versioned advertisement-log deltas ([`AdvertDelta`], [`AdvertEntry`],
//!   [`AdvertVersion`]), and the same deltas piggyback on `Delegated` and
//!   `PoolsSynced` replies so directory news rides on traffic already
//!   flowing.
//!
//! The protocol deliberately carries queries in the native key/value *text*
//! form: the query language is the paper's client-facing interface, its
//! rendering round-trips through the parser, and it keeps the wire format
//! independent of the query crate's internal AST.
//!
//! Consumers: `actyp_pipeline::api::RemoteBackend` and the federation's
//! peer links (dialing side, both over `actyp_pipeline`'s `corr.rs`),
//! `actyp_pipeline::server` and the `ypd` daemon binary (serving side).

pub mod frames;
pub mod types;
pub mod wire;

pub use frames::{
    encode_frame, negotiate, read_client_frame, read_frame_body, read_server_frame, split_frame,
    write_frame, AdvertDelta, AdvertEntry, AdvertVersion, ClientFrame, FrameError, ServerFrame,
    WireOutcome, MAX_FRAME_LEN, MIN_SUPPORTED_VERSION, PROTOCOL_VERSION,
};
pub use types::{
    AddressParseError, Allocation, AllocationError, RequestId, RequestIdGenerator, SessionKey,
    StageAddress, StatsSnapshot,
};
pub use wire::{DecodeError, EncodeError, Reader, WireDecode, WireEncode, MAX_SEQUENCE_LEN};
