//! Property tests for the network-RAM layer: wire-format robustness and
//! the `sci_memcpy` transfer planner.

use proptest::prelude::*;

use perseas_rnram::{plan_transfer, RemoteMemory, SimRemote, TransferStrategy};

mod wire {
    use super::*;
    use perseas_rnram::SegmentId;

    proptest! {
        /// Decoding arbitrary bytes never panics, whatever it returns.
        #[test]
        fn decoders_are_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
            use perseas_rnram::{RnError};
            // The protocol module is internal; exercise it through the
            // public TCP server by feeding a raw frame.
            // (Request/Response decode totality is covered indirectly:
            // a malformed frame must yield an error response or a clean
            // protocol error, never a panic.)
            let server = perseas_rnram::server::Server::bind("fuzz", "127.0.0.1:0")
                .unwrap()
                .start();
            let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
            use std::io::Write;
            // Frame: length prefix + body + crc over body.
            let len = (bytes.len() as u32).to_le_bytes();
            let crc = bitwise_crc32(&bytes).to_le_bytes();
            stream.write_all(&len).unwrap();
            stream.write_all(&bytes).unwrap();
            stream.write_all(&crc).unwrap();
            // Whatever happens, the server must stay alive for a valid
            // client afterwards.
            drop(stream);
            let mut c = perseas_rnram::TcpRemote::connect(server.addr()).unwrap();
            let seg = c.remote_malloc(8, 0).unwrap();
            prop_assert_eq!(seg.id, seg.id);
            server.shutdown();
            let _ = RnError::TagNotFound(0); // keep the import used
            let _ = SegmentId::from_raw(0);
        }
    }
}

/// The test oracle: IEEE CRC-32 one bit at a time, straight from the
/// polynomial. Deliberately shares nothing with `perseas_sci::crc32`.
fn bitwise_crc32(data: &[u8]) -> u32 {
    !bitwise_update(!0, data)
}

/// The oracle's running register, from any start state.
fn bitwise_update(mut crc: u32, data: &[u8]) -> u32 {
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    crc
}

/// The CRC-32 every layer shares must be the function the bitwise oracle
/// computes, at every length, alignment, split and start state, whichever
/// of its two kernels (tables, carry-less folding) `update` picks.
mod crc_equivalence {
    use super::*;
    use perseas_sci::crc32;

    /// `len` pseudo-random bytes starting `align` bytes into an allocation.
    fn buffer(seed: u64, align: usize, len: usize) -> Vec<u8> {
        let mut x = seed | 1;
        (0..align + len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn check_values() {
        assert_eq!(crc32::checksum(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32::checksum(b""), 0);
        assert_eq!(perseas_rnram::protocol::crc32(b"123456789"), 0xCBF4_3926);
    }

    /// Every length around the 16-byte step and its tail, the folding
    /// kernel's threshold and its fold-by-4 and fold-by-1 loops, at every
    /// alignment within a step.
    #[test]
    fn short_buffers_match_the_oracle() {
        for align in 0..16 {
            for len in 0..=600 {
                let buf = buffer(len as u64 * 31 + align as u64, align, len);
                let data = &buf[align..];
                assert_eq!(
                    crc32::checksum(data),
                    bitwise_crc32(data),
                    "len {len} align {align}"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn table_crc_matches_the_oracle_whole_and_in_parts(
            seed in any::<u64>(),
            len in 0usize..=70_000,
            align in 0usize..64,
            cuts in prop::collection::vec(any::<u32>(), 0..=3),
            start in any::<u32>(),
        ) {
            let buf = buffer(seed, align, len);
            let data = &buf[align..];
            let want = bitwise_crc32(data);
            prop_assert_eq!(crc32::checksum(data), want);
            prop_assert_eq!(perseas_rnram::protocol::crc32(data), want);
            prop_assert_eq!(crc32::update(start, data), bitwise_update(start, data));

            // A record: the payload part starts from the register the
            // 32-byte header left, not from `INIT`.
            let (header, payload) = data.split_at(len.min(32));
            prop_assert_eq!(crc32::checksum_parts(&[header, payload]), want);

            // Up to three cut points make up to four parts, empty ones
            // included.
            let mut cuts: Vec<usize> = cuts.iter().map(|&c| c as usize % (len + 1)).collect();
            cuts.sort_unstable();
            let mut parts = Vec::new();
            let mut from = 0;
            for cut in cuts {
                parts.push(&data[from..cut]);
                from = cut;
            }
            parts.push(&data[from..]);
            prop_assert_eq!(crc32::checksum_parts(&parts), want);
            let state = parts.iter().fold(crc32::INIT, |s, p| crc32::update(s, p));
            prop_assert_eq!(crc32::finish(state), want);
        }
    }
}

proptest! {
    /// The transfer plan always covers the requested range, stays inside
    /// the segment, and aligned plans sit on 64-byte boundaries except
    /// where clamped by the segment end.
    #[test]
    fn plans_cover_and_align(
        base in (0u64..1_000).prop_map(|b| b * 64),
        seg_len in 64usize..10_000,
        offset in 0usize..9_000,
        len in 1usize..4_096,
    ) {
        prop_assume!(offset + len <= seg_len);
        let plan = plan_transfer(base, offset, len, seg_len);
        prop_assert!(plan.offset <= offset);
        prop_assert!(plan.offset + plan.len >= offset + len);
        prop_assert!(plan.offset + plan.len <= seg_len);
        if plan.strategy == TransferStrategy::Aligned {
            prop_assert_eq!((base as usize + plan.offset) % 64, 0);
            let end = base as usize + plan.offset + plan.len;
            prop_assert!(end.is_multiple_of(64) || plan.offset + plan.len == seg_len);
        } else {
            prop_assert_eq!((plan.offset, plan.len), (offset, len));
        }
    }

    /// Issuing the plan against a mirror that already matches the local
    /// image leaves the mirror byte-identical to the updated local image.
    #[test]
    fn mirror_copy_is_exact(
        seg_len in 64usize..1_024,
        offset in 0usize..1_000,
        len in 1usize..256,
        fill in any::<u8>(),
    ) {
        prop_assume!(offset + len <= seg_len);
        let mut remote = SimRemote::new("prop");
        let seg = remote.remote_malloc(seg_len, 0).unwrap();
        let mut local = vec![0xAB; seg_len];
        remote.remote_write(seg.id, 0, &local).unwrap();

        local[offset..offset + len].fill(fill);
        perseas_rnram::mirror_copy(&mut remote, seg.id, seg.base_addr, &local, offset, len)
            .unwrap();

        let mut got = vec![0u8; seg_len];
        remote.remote_read(seg.id, 0, &mut got).unwrap();
        prop_assert_eq!(got, local);
    }

    /// The aligned plan never issues more SCI packets than the naive
    /// store (the whole point of the Section 4 optimisation).
    #[test]
    fn aligned_never_costs_more(
        offset in 0usize..2_000,
        len in 1usize..1_024,
    ) {
        use perseas_sci::{remote_write_latency, SciParams};
        let seg_len = 4_096;
        prop_assume!(offset + len <= seg_len);
        let p = SciParams::dolphin_1998();
        let plan = plan_transfer(0, offset, len, seg_len);
        let naive = remote_write_latency(&p, offset as u64, len);
        let planned = remote_write_latency(&p, plan.offset as u64, plan.len);
        prop_assert!(
            planned <= naive,
            "plan {plan:?} slower: {planned} > {naive}"
        );
    }
}

/// Transport fuzz battery (ISSUE 4): random, truncated, and bit-flipped
/// frames against the decoder and the live server. The decoder must be
/// total (typed `Err`, never a panic), length fields may never reach past
/// the frame, and the server must survive every hostile frame — answering
/// a typed error or dropping the connection, but staying up for the next
/// well-behaved client.
mod frame_fuzz {
    use super::*;
    use perseas_rnram::protocol::{crc32, Request, Response};
    use std::io::Write as _;

    /// Any request a client can legitimately encode, including the
    /// session `Mux` wrapping and the `Seq` wrapping the server still
    /// answers.
    fn arb_request() -> impl Strategy<Value = Request> {
        let plain = prop_oneof![
            (any::<u64>(), any::<u64>()).prop_map(|(len, tag)| Request::Malloc { len, tag }),
            any::<u64>().prop_map(|seg| Request::Free { seg }),
            (
                any::<u64>(),
                any::<u64>(),
                prop::collection::vec(any::<u8>(), 0..64)
            )
                .prop_map(|(seg, offset, data)| Request::Write { seg, offset, data }),
            (any::<u64>(), any::<u64>(), any::<u64>())
                .prop_map(|(seg, offset, len)| Request::Read { seg, offset, len }),
            any::<u64>().prop_map(|tag| Request::Connect { tag }),
            any::<u64>().prop_map(|seg| Request::Info { seg }),
            prop::collection::vec(
                (
                    any::<u64>(),
                    any::<u64>(),
                    prop::collection::vec(any::<u8>(), 0..32)
                ),
                0..4
            )
            .prop_map(|ranges| Request::WriteV { ranges }),
            Just(Request::Name),
            Just(Request::Ping),
        ]
        .boxed();
        (0u8..3, any::<u64>(), any::<u64>(), plain).prop_map(|(wrap, seq, session, req)| match wrap
        {
            1 => Request::Seq {
                seq,
                inner: Box::new(req),
            },
            2 => Request::Mux {
                session,
                seq,
                inner: Box::new(req),
            },
            _ => req,
        })
    }

    /// Sends `body` as one correctly framed message and hangs up, then
    /// proves the server survived by running a real operation on a fresh
    /// connection.
    fn poke_server_with(addr: std::net::SocketAddr, body: &[u8]) {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .write_all(&(body.len() as u32).to_le_bytes())
            .unwrap();
        stream.write_all(body).unwrap();
        stream.write_all(&crc32(body).to_le_bytes()).unwrap();
        drop(stream);
    }

    fn server_is_alive(addr: std::net::SocketAddr) {
        let mut c = perseas_rnram::TcpRemote::connect_pipelined(addr).unwrap();
        let seg = c.remote_malloc(8, 0).unwrap();
        c.remote_write(seg.id, 0, &[7; 8]).unwrap();
        c.flush().unwrap();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Both decoders are total over arbitrary bytes: any outcome but
        /// a panic.
        #[test]
        fn decoders_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
            let _ = Request::decode(&bytes);
            let _ = Response::decode(&bytes);
        }

        /// Every strict truncation of a valid request either decodes to
        /// a plain `Write` prefix (the one variant whose payload is the
        /// frame remainder — the frame CRC guards it on the wire) or is
        /// rejected with a typed error.
        #[test]
        fn truncations_are_rejected_or_benign(req in arb_request(), cut in 0usize..512) {
            let full = req.encode();
            prop_assume!(!full.is_empty());
            let cut = cut % full.len();
            match Request::decode(&full[..cut]) {
                Err(_) => {}
                // A `Write`'s payload is the frame remainder, so cutting
                // its tail yields a shorter, still-valid write (the wire
                // CRC is what protects it in flight). Everything else has
                // explicit lengths and must refuse its truncations.
                Ok(Request::Write { .. }) => {}
                Ok(Request::Seq { inner, .. }) | Ok(Request::Mux { inner, .. }) => {
                    prop_assert!(
                        matches!(*inner, Request::Write { .. }),
                        "truncated frame decoded as a wrapper around {inner:?}"
                    );
                }
                Ok(other) => prop_assert!(false, "truncated frame decoded as {other:?}"),
            }
        }

        /// Single bit flips anywhere in the body never panic the decoder,
        /// and a live server fed the flipped frame keeps serving.
        #[test]
        fn bit_flips_never_panic(req in arb_request(), bit in any::<u64>()) {
            let mut body = req.encode();
            let bit = (bit as usize) % (body.len() * 8);
            body[bit / 8] ^= 1 << (bit % 8);
            let decoded = Request::decode(&body);

            // A flip can legitimately turn the opcode into `Shutdown`;
            // feeding that to the server would stop it by design, which
            // is not the robustness property under test.
            let is_shutdown = match &decoded {
                Ok(Request::Shutdown) => true,
                Ok(Request::Seq { inner, .. }) | Ok(Request::Mux { inner, .. }) => {
                    matches!(**inner, Request::Shutdown)
                }
                _ => false,
            };
            prop_assume!(!is_shutdown);

            let server = perseas_rnram::server::Server::bind("flip", "127.0.0.1:0")
                .unwrap()
                .start();
            poke_server_with(server.addr(), &body);
            server_is_alive(server.addr());
            server.shutdown();
        }

        /// A frame whose CRC does not match its (corrupted) body is
        /// refused at the framing layer without killing the server.
        #[test]
        fn stale_crc_frames_are_dropped(req in arb_request(), flip in any::<u64>()) {
            let body = req.encode();
            let server = perseas_rnram::server::Server::bind("crc", "127.0.0.1:0")
                .unwrap()
                .start();
            let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
            stream.write_all(&(body.len() as u32).to_le_bytes()).unwrap();
            // Corrupt the body after computing the CRC of the original.
            let crc = crc32(&body).to_le_bytes();
            let mut sent = body.clone();
            if !sent.is_empty() {
                let bit = (flip as usize) % (sent.len() * 8);
                sent[bit / 8] ^= 1 << (bit % 8);
            }
            stream.write_all(&sent).unwrap();
            stream.write_all(&crc).unwrap();
            drop(stream);
            server_is_alive(server.addr());
            server.shutdown();
        }

        /// Length fields that reach past the frame are rejected: a
        /// vectored write claiming more ranges or payload than the frame
        /// holds must never decode.
        #[test]
        fn lying_length_fields_are_rejected(
            count_lie in 1u64..1_000_000,
            len_lie in 1u64..1_000_000,
            data in prop::collection::vec(any::<u8>(), 0..32),
        ) {
            // Range-count lie: claims `count_lie` extra ranges.
            let real = Request::WriteV {
                ranges: vec![(1, 0, data.clone())],
            };
            let mut body = real.encode();
            let claimed = 1u64 + count_lie;
            body[1..9].copy_from_slice(&claimed.to_le_bytes());
            prop_assert!(Request::decode(&body).is_err(), "count lie accepted");

            // Payload-length lie: the single range claims more bytes than
            // the frame carries.
            let mut body = real.encode();
            let len_off = 1 + 8 + 16; // op, count, (seg, offset)
            let claimed = data.len() as u64 + len_lie;
            body[len_off..len_off + 8].copy_from_slice(&claimed.to_le_bytes());
            prop_assert!(Request::decode(&body).is_err(), "length lie accepted");
        }

        /// A frame advertising more bytes than the peer ever sends must
        /// not wedge or kill the server: the connection dies, the server
        /// lives.
        #[test]
        fn truncated_wire_frames_do_not_wedge_the_server(
            claim in 1u32..4_096,
            sent in prop::collection::vec(any::<u8>(), 0..64),
        ) {
            prop_assume!((sent.len() as u32) < claim);
            let server = perseas_rnram::server::Server::bind("short", "127.0.0.1:0")
                .unwrap()
                .start();
            let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
            stream.write_all(&claim.to_le_bytes()).unwrap();
            stream.write_all(&sent).unwrap();
            drop(stream); // EOF mid-frame
            server_is_alive(server.addr());
            server.shutdown();
        }

        /// Session frames with arbitrary session ids, seqs, and inner
        /// requests — including hostile nested wrappings — are served or
        /// refused with a typed error, never fatally (ISSUE 8).
        #[test]
        fn random_session_frames_never_kill_the_server(
            session in any::<u64>(),
            seq in any::<u64>(),
            req in arb_request(),
        ) {
            let body = perseas_rnram::protocol::encode_mux(session, seq, &req);
            let server = perseas_rnram::server::Server::bind("sess", "127.0.0.1:0")
                .unwrap()
                .start();
            poke_server_with(server.addr(), &body);
            server_is_alive(server.addr());
            server.shutdown();
        }

        /// Truncating a mux frame never smears it into a *different*
        /// session: the fixed-width mux header either survives the cut
        /// intact or the frame is refused. (Past the header the usual
        /// `Write`-remainder exception applies — the wire CRC guards it.)
        #[test]
        fn truncated_session_frames_keep_their_identity(
            session in any::<u64>(),
            seq in any::<u64>(),
            req in arb_request(),
            cut in 0usize..512,
        ) {
            let full = perseas_rnram::protocol::encode_mux(session, seq, &req);
            let cut = cut % full.len();
            match Request::decode(&full[..cut]) {
                Err(_) => {}
                Ok(Request::Mux { session: s, seq: q, inner }) => {
                    prop_assert_eq!(s, session, "truncation moved the frame across sessions");
                    prop_assert_eq!(q, seq, "truncation renumbered the frame");
                    prop_assert!(
                        matches!(*inner, Request::Write { .. }),
                        "truncated mux frame decoded as {inner:?}"
                    );
                }
                Ok(other) => prop_assert!(false, "truncated mux frame decoded as {other:?}"),
            }
        }
    }

    /// Nested `Seq` frames and oversized frame claims are refused — the
    /// two fixed hostile shapes the sweep above cannot reliably hit.
    #[test]
    fn fixed_hostile_shapes_are_refused() {
        let nested = Request::Seq {
            seq: 1,
            inner: Box::new(Request::Seq {
                seq: 2,
                inner: Box::new(Request::Ping),
            }),
        };
        assert!(
            Request::decode(&nested.encode()).is_err(),
            "nested seq accepted"
        );

        let server = perseas_rnram::server::Server::bind("huge", "127.0.0.1:0")
            .unwrap()
            .start();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        // A length prefix beyond MAX_FRAME: the server must refuse to
        // allocate and drop the connection.
        let claim = (perseas_rnram::protocol::MAX_FRAME as u32).saturating_add(1);
        stream.write_all(&claim.to_le_bytes()).unwrap();
        drop(stream);
        server_is_alive(server.addr());
        server.shutdown();
    }
}

/// Session-multiplexing property battery (ISSUE 8), driven through the
/// public [`SessionMux`] API: sessions interleaved on one socket never
/// observe each other's lanes, and a session dying with its window in
/// flight takes down only itself.
mod session_mux_fuzz {
    use super::*;
    use perseas_rnram::SessionMux;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Three sessions interleave posted writes over one socket into
        /// their own segments; after per-session flush barriers every
        /// segment matches the per-session model exactly.
        #[test]
        fn interleaved_sessions_keep_their_lanes(
            script in prop::collection::vec((0usize..3, 0usize..16, any::<u8>()), 1..24),
        ) {
            let server = perseas_rnram::server::Server::bind("lanes", "127.0.0.1:0")
                .unwrap()
                .start();
            let mux = SessionMux::connect(server.addr()).unwrap();
            let mut sessions = Vec::new();
            let mut model = [[0u8; 16]; 3];
            for i in 0..3u64 {
                let mut s = mux.session();
                let seg = s.remote_malloc(16, i).unwrap();
                s.remote_write(seg.id, 0, &[0; 16]).unwrap();
                sessions.push((s, seg.id));
            }
            for &(who, offset, value) in &script {
                let (s, seg) = &mut sessions[who];
                s.remote_write(*seg, offset, &[value]).unwrap();
                model[who][offset] = value;
            }
            for (who, (s, seg)) in sessions.iter_mut().enumerate() {
                s.flush().unwrap();
                let mut got = [0u8; 16];
                s.remote_read(*seg, 0, &mut got).unwrap();
                prop_assert_eq!(got, model[who], "session {} lane corrupted", who);
            }
            server.shutdown();
        }

        /// A session dropped with posted-but-unflushed writes is the only
        /// casualty: the surviving session's window, segment, and RPCs
        /// are untouched, and the server keeps serving.
        #[test]
        fn a_session_dying_mid_window_strands_only_itself(
            doomed_posts in 1usize..12,
            survivor_value in any::<u8>(),
        ) {
            let server = perseas_rnram::server::Server::bind("doom", "127.0.0.1:0")
                .unwrap()
                .start();
            let mux = SessionMux::connect(server.addr()).unwrap();
            let mut doomed = mux.session();
            let mut survivor = mux.session();
            let dseg = doomed.remote_malloc(32, 0).unwrap();
            let sseg = survivor.remote_malloc(32, 1).unwrap();
            for i in 0..doomed_posts {
                doomed.remote_write(dseg.id, i % 32, &[0xDD]).unwrap();
            }
            prop_assert!(doomed.in_flight() > 0);
            drop(doomed); // dies mid-window
            survivor.remote_write(sseg.id, 0, &[survivor_value]).unwrap();
            survivor.flush().unwrap();
            let mut got = [0u8; 1];
            survivor.remote_read(sseg.id, 0, &mut got).unwrap();
            prop_assert_eq!(got[0], survivor_value);
            prop_assert_eq!(mux.open_sessions(), 1);
            server.shutdown();
        }
    }
}

#[test]
fn hostile_lengths_do_not_kill_the_server() {
    use perseas_rnram::{server::Server, RnError, TcpRemote};
    let server = Server::bind("hostile", "127.0.0.1:0").unwrap().start();
    let mut c = TcpRemote::connect(server.addr()).unwrap();
    let seg = c.remote_malloc(16, 0).unwrap();

    // A read far beyond any segment (and beyond addressable memory).
    let mut tiny = [0u8; 4];
    let err = c
        .remote_read(seg.id, usize::MAX - 8, &mut tiny)
        .unwrap_err();
    assert!(matches!(err, RnError::Remote(_)));

    // An absurd malloc must be refused, not attempted.
    let err = c.remote_malloc(usize::MAX, 0).unwrap_err();
    assert!(matches!(err, RnError::Remote(_)));

    // The server is still healthy.
    c.remote_write(seg.id, 0, &[1; 16]).unwrap();
    server.shutdown();
}
