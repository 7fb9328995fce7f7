//! Property tests for the wire protocol: every frame round-trips through
//! the codec (`decode(encode(msg)) == msg`), encodings are canonical, and
//! truncated or corrupted byte strings produce decode *errors* — never
//! panics — which is what a daemon reading from untrusted sockets relies
//! on.

use proptest::prelude::*;

use actyp_grid::MachineId;
use actyp_proto::{
    AdvertDelta, AdvertEntry, AdvertVersion, Allocation, AllocationError, ClientFrame, EncodeError,
    RequestId, ServerFrame, SessionKey, StatsSnapshot, WireDecode, WireEncode, MAX_SEQUENCE_LEN,
};

fn text_strategy() -> impl Strategy<Value = String> {
    prop::collection::vec(
        prop::sample::select(vec![
            'a', 'z', 'A', '0', '9', ' ', '\n', ':', '=', '|', '.', '-', 'ü', '→',
        ]),
        0..16,
    )
    .prop_map(|chars| chars.into_iter().collect())
}

fn allocation_strategy() -> impl Strategy<Value = Allocation> {
    (
        (0u64..1 << 48, 0u64..10_000, text_strategy(), 1u16..65535),
        (
            prop::option::of(1000u32..9000),
            text_strategy(),
            text_strategy(),
            0u32..64,
            0usize..100_000,
        ),
    )
        .prop_map(
            |((request, machine, name, port), (shadow, key, pool, instance, examined))| {
                Allocation {
                    request: RequestId(request),
                    machine: MachineId(machine),
                    machine_name: name,
                    execution_port: port,
                    mount_port: port.wrapping_add(1),
                    shadow_uid: shadow,
                    access_key: SessionKey(key),
                    pool,
                    pool_instance: instance,
                    examined,
                }
            },
        )
}

fn error_strategy() -> impl Strategy<Value = AllocationError> {
    (0usize..12, text_strategy()).prop_map(|(variant, text)| match variant {
        0 => AllocationError::Parse(text),
        1 => AllocationError::Schema(text),
        2 => AllocationError::NoSuchResources,
        3 => AllocationError::NoneAvailable,
        4 => AllocationError::PolicyDenied,
        5 => AllocationError::ShadowAccountsExhausted,
        6 => AllocationError::TtlExpired,
        7 => AllocationError::UnknownAllocation,
        8 => AllocationError::UnknownTicket,
        9 => AllocationError::Internal(text),
        10 => AllocationError::Network(text),
        _ => AllocationError::Protocol(text),
    })
}

fn stats_strategy() -> impl Strategy<Value = StatsSnapshot> {
    (0u64..1 << 40).prop_map(|seed| StatsSnapshot {
        requests: seed,
        fragments: seed.wrapping_mul(3),
        allocations: seed / 2,
        failures: seed % 7,
        delegations: seed % 11,
        forwards: seed % 13,
        delegations_out: seed % 19,
        delegations_in: seed % 23,
        releases: seed / 3,
        records_examined: seed.wrapping_mul(17),
        in_flight: (seed % 1024) as usize,
        gossip_deltas_in: seed % 29,
        gossip_deltas_out: seed % 31,
        route_hits: seed % 37,
        route_misses: seed % 41,
        peer_redials: seed % 43,
        shard_contention: seed % 47,
        frames_batched: seed % 53,
        writes_coalesced: seed % 59,
    })
}

fn advert_version_strategy() -> impl Strategy<Value = AdvertVersion> {
    (text_strategy(), 0u64..1 << 20, 0u64..1 << 20).prop_map(|(origin, epoch, seq)| AdvertVersion {
        origin,
        epoch,
        seq,
    })
}

fn advert_delta_strategy() -> impl Strategy<Value = AdvertDelta> {
    (
        text_strategy(),
        0u64..1 << 20,
        0u64..1 << 20,
        prop::collection::vec((0u64..1 << 20, text_strategy(), prop::bool::ANY), 0..4),
        prop::bool::ANY,
    )
        .prop_map(|(origin, epoch, head, entries, full)| AdvertDelta {
            origin,
            epoch,
            head,
            entries: entries
                .into_iter()
                .map(|(seq, pool, alive)| AdvertEntry { seq, pool, alive })
                .collect(),
            full,
        })
}

/// Every [`ClientFrame`] variant, driven by a variant selector so each of
/// the ten shapes is generated.
fn client_frame_strategy() -> impl Strategy<Value = ClientFrame> {
    (
        (0u8..10, 0u64..1 << 32, text_strategy()),
        (
            prop::collection::vec(text_strategy(), 0..5),
            0u64..1 << 20,
            prop::option::of(0u64..100_000),
            allocation_strategy(),
        ),
        (
            prop::collection::vec(advert_delta_strategy(), 0..3),
            prop::collection::vec(advert_version_strategy(), 0..3),
        ),
    )
        .prop_map(
            |((variant, corr, query), (queries, ticket, deadline, allocation), (deltas, have))| {
                let corr = RequestId(corr);
                match variant {
                    0 => ClientFrame::Hello {
                        min_version: (corr.0 % 4) as u16,
                        max_version: (corr.0 % 4) as u16 + (ticket % 4) as u16,
                    },
                    1 => ClientFrame::Submit { corr, query },
                    2 => ClientFrame::Wait {
                        corr,
                        ticket,
                        deadline_ms: deadline,
                    },
                    3 => ClientFrame::Release { corr, allocation },
                    4 => ClientFrame::Stats { corr },
                    5 => ClientFrame::Shutdown { corr },
                    6 => ClientFrame::Halt { corr },
                    7 => ClientFrame::Delegate {
                        corr,
                        query,
                        ttl: (ticket % 32) as u32,
                        visited: queries,
                    },
                    8 => ClientFrame::SyncPools {
                        corr,
                        domain: query,
                        pools: queries,
                        have,
                    },
                    _ => ClientFrame::AdvertDelta {
                        corr,
                        domain: query,
                        deltas,
                        have,
                    },
                }
            },
        )
}

/// Every [`ServerFrame`] variant.
fn server_frame_strategy() -> impl Strategy<Value = ServerFrame> {
    (
        (0u8..11, 0u64..1 << 32, text_strategy()),
        (
            0u64..1 << 20,
            prop::collection::vec(allocation_strategy(), 0..3),
            error_strategy(),
            stats_strategy(),
        ),
        (
            prop::bool::ANY,
            prop::collection::vec(text_strategy(), 0..4),
            prop::collection::vec(advert_delta_strategy(), 0..3),
        ),
    )
        .prop_map(
            |(
                (variant, corr, message),
                (ticket, allocations, error, stats),
                (ok, names, deltas),
            )| {
                let corr = RequestId(corr);
                match variant {
                    0 => ServerFrame::HelloAck {
                        version: (ticket % 8) as u16,
                    },
                    1 => ServerFrame::HelloReject { message },
                    2 => ServerFrame::Submitted { corr, ticket },
                    3 => ServerFrame::Outcome {
                        corr,
                        outcome: if ok { Ok(allocations) } else { Err(error) },
                    },
                    4 => ServerFrame::Released { corr },
                    5 => ServerFrame::StatsReply { corr, stats },
                    6 => ServerFrame::Ack { corr },
                    7 => ServerFrame::Error { corr, error },
                    8 => ServerFrame::Delegated {
                        corr,
                        outcome: if ok { Ok(allocations) } else { Err(error) },
                        ttl: (ticket % 32) as u32,
                        visited: names,
                        deltas,
                    },
                    9 => ServerFrame::PoolsSynced {
                        corr,
                        domain: message,
                        pools: names,
                        deltas,
                    },
                    _ => ServerFrame::AdvertAck {
                        corr,
                        domain: message,
                        deltas,
                    },
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// decode(encode(frame)) == frame, for every client frame.
    #[test]
    fn client_frames_round_trip(frame in client_frame_strategy()) {
        let bytes = frame.to_wire_bytes().unwrap();
        prop_assert_eq!(ClientFrame::from_wire_bytes(&bytes).unwrap(), frame);
    }

    /// decode(encode(frame)) == frame, for every server frame.
    #[test]
    fn server_frames_round_trip(frame in server_frame_strategy()) {
        let bytes = frame.to_wire_bytes().unwrap();
        prop_assert_eq!(ServerFrame::from_wire_bytes(&bytes).unwrap(), frame);
    }

    /// Framed stream round trip: write_frame → read_*_frame is lossless.
    #[test]
    fn framed_stream_round_trip(
        client in client_frame_strategy(),
        server in server_frame_strategy(),
    ) {
        let mut stream = Vec::new();
        actyp_proto::write_frame(&mut stream, &client).unwrap();
        let mut cursor = &stream[..];
        prop_assert_eq!(
            actyp_proto::read_client_frame(&mut cursor).unwrap(),
            Some(client)
        );

        let mut stream = Vec::new();
        actyp_proto::write_frame(&mut stream, &server).unwrap();
        let mut cursor = &stream[..];
        prop_assert_eq!(
            actyp_proto::read_server_frame(&mut cursor).unwrap(),
            Some(server)
        );
    }

    /// Every strict prefix of a valid encoding fails to decode (no panic,
    /// no silent acceptance).
    #[test]
    fn truncated_client_frames_error_cleanly(
        frame in client_frame_strategy(),
        cut_seed in 0usize..10_000,
    ) {
        let bytes = frame.to_wire_bytes().unwrap();
        let cut = cut_seed % bytes.len();
        prop_assert!(ClientFrame::from_wire_bytes(&bytes[..cut]).is_err());
    }

    /// Same for server frames.
    #[test]
    fn truncated_server_frames_error_cleanly(
        frame in server_frame_strategy(),
        cut_seed in 0usize..10_000,
    ) {
        let bytes = frame.to_wire_bytes().unwrap();
        let cut = cut_seed % bytes.len();
        prop_assert!(ServerFrame::from_wire_bytes(&bytes[..cut]).is_err());
    }

    /// Garbage bytes never panic the decoder, and anything it *does*
    /// accept re-encodes to exactly the input (the encoding is canonical).
    #[test]
    fn garbage_never_panics_and_accepts_are_canonical(
        bytes in prop::collection::vec(0u16..256, 0..64)
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        if let Ok(frame) = ClientFrame::from_wire_bytes(&bytes) {
            prop_assert_eq!(frame.to_wire_bytes().unwrap(), bytes.clone());
        }
        if let Ok(frame) = ServerFrame::from_wire_bytes(&bytes) {
            prop_assert_eq!(frame.to_wire_bytes().unwrap(), bytes);
        }
    }

    /// Single-byte corruption anywhere in a frame never panics the decoder:
    /// it either still decodes (the flip hit a payload byte) or errors.
    #[test]
    fn corrupted_frames_never_panic(
        frame in client_frame_strategy(),
        position_seed in 0usize..10_000,
        flip in 1u16..256,
    ) {
        let mut bytes = frame.to_wire_bytes().unwrap();
        let position = position_seed % bytes.len();
        bytes[position] ^= flip as u8;
        let _ = ClientFrame::from_wire_bytes(&bytes);
    }
}

// At-cap payloads are megabyte-sized, so these properties run fewer cases.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// A frame carrying a string *exactly* at the codec cap encodes and
    /// round-trips — the encode-side check is not off by one.
    #[test]
    fn at_cap_strings_round_trip_inside_frames(
        corr in 0u64..1 << 32,
        ttl in 0u32..16,
        byte in prop::sample::select(vec!['a', 'q', '0']),
    ) {
        let frame = ClientFrame::Delegate {
            corr: RequestId(corr),
            query: byte.to_string().repeat(MAX_SEQUENCE_LEN),
            ttl,
            visited: vec!["purdue".to_string()],
        };
        let bytes = frame.to_wire_bytes().unwrap();
        prop_assert_eq!(ClientFrame::from_wire_bytes(&bytes).unwrap(), frame);
    }

    /// Any frame carrying an over-cap string fails at *encode* time with
    /// `EncodeError::TooLong` — the asymmetry regression: the pre-fix codec
    /// encoded these into bytes every conforming decoder rejects.
    #[test]
    fn over_cap_strings_are_rejected_at_encode(
        corr in 0u64..1 << 32,
        excess in 1usize..64,
        variant in 0u8..3,
    ) {
        let oversized = "q".repeat(MAX_SEQUENCE_LEN + excess);
        let corr = RequestId(corr);
        let frame = match variant {
            0 => ClientFrame::Submit { corr, query: oversized },
            1 => ClientFrame::Delegate {
                corr,
                query: oversized,
                ttl: 4,
                visited: Vec::new(),
            },
            _ => ClientFrame::Delegate {
                corr,
                query: String::new(),
                ttl: 4,
                visited: vec![String::new(), oversized],
            },
        };
        prop_assert!(matches!(
            frame.to_wire_bytes(),
            Err(EncodeError::TooLong { .. })
        ));
    }
}
