//! Property-based integration tests (proptest): structural invariants that
//! must hold for *arbitrary* inputs across the workspace's data paths.

use gsp_coding::bits::{pack_bits, unpack_bits};
use gsp_coding::interleave::{prime_interleaver, Interleaver};
use gsp_coding::{Crc, CrcKind};
use gsp_fpga::bitstream::Bitstream;
use gsp_netproto::ip::{IpPacket, IpProto, UdpDatagram};
use gsp_netproto::ipsec::SecurityAssociation;
use gsp_netproto::tcp::Segment;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bits_pack_roundtrip(bits in proptest::collection::vec(0u8..2, 0..500)) {
        let packed = pack_bits(&bits);
        prop_assert_eq!(unpack_bits(&packed, bits.len()), bits);
    }

    #[test]
    fn crc_detects_any_single_flip(
        bits in proptest::collection::vec(0u8..2, 1..200),
        pos_frac in 0.0f64..1.0,
    ) {
        let crc = Crc::new(CrcKind::Crc16);
        let block = crc.attach(&bits);
        let pos = ((block.len() - 1) as f64 * pos_frac) as usize;
        let mut bad = block.clone();
        bad[pos] ^= 1;
        prop_assert!(crc.check(&block).is_some());
        prop_assert!(crc.check(&bad).is_none());
    }

    #[test]
    fn prime_interleaver_always_a_permutation(k in 40usize..1200) {
        let il = prime_interleaver(k);
        prop_assert_eq!(il.len(), k);
        // Interleaver::new already validates; additionally verify inverse.
        let data: Vec<u32> = (0..k as u32).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        il.interleave(&data, &mut a);
        il.deinterleave(&a, &mut b);
        prop_assert_eq!(b, data);
    }

    #[test]
    fn block_interleaver_roundtrip(rows in 1usize..20, cols in 1usize..20) {
        let n = rows * cols;
        let il = Interleaver::block(n, cols);
        let data: Vec<u16> = (0..n as u16).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        il.interleave(&data, &mut a);
        il.deinterleave(&a, &mut b);
        prop_assert_eq!(b, data);
    }

    #[test]
    fn bitstream_roundtrip_any_geometry(
        design in 0u32..10_000,
        frames in 1usize..24,
        frame_bytes in 1usize..200,
        fill in 0u8..=255,
    ) {
        let payload: Vec<Vec<u8>> = (0..frames)
            .map(|f| (0..frame_bytes).map(|b| fill ^ (f as u8) ^ (b as u8)).collect())
            .collect();
        let bs = Bitstream::new(design, "prop-device", payload);
        let back = Bitstream::deserialise(&bs.serialise()).unwrap();
        prop_assert_eq!(back, bs);
    }

    #[test]
    fn ip_udp_roundtrip(
        src in any::<u32>(),
        dst in any::<u32>(),
        sport in any::<u16>(),
        dport in any::<u16>(),
        payload in proptest::collection::vec(any::<u8>(), 0..800),
    ) {
        let pkt = IpPacket {
            src,
            dst,
            proto: IpProto::Udp,
            payload: UdpDatagram {
                src_port: sport,
                dst_port: dport,
                payload: bytes::Bytes::from(payload.clone()),
            }
            .encode(),
        };
        let raw = pkt.encode();
        let ip = IpPacket::decode(&raw).unwrap();
        let udp = UdpDatagram::decode(&ip.payload).unwrap();
        prop_assert_eq!(&udp.payload[..], &payload[..]);
        prop_assert_eq!((ip.src, ip.dst), (src, dst));
    }

    #[test]
    fn tcp_segment_roundtrip(
        seq in any::<u32>(),
        ack in any::<u32>(),
        flags in 0u8..8,
        payload in proptest::collection::vec(any::<u8>(), 0..600),
    ) {
        let seg = Segment {
            src_port: 1,
            dst_port: 2,
            seq,
            ack,
            flags,
            payload: bytes::Bytes::from(payload),
        };
        prop_assert_eq!(Segment::decode(&seg.encode()), Some(seg));
    }

    #[test]
    fn esp_roundtrip_any_payload(
        key in 1u64..,
        spi in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let mut tx = SecurityAssociation::new(spi, key);
        let mut rx = SecurityAssociation::new(spi, key);
        let wire = tx.protect(&payload);
        prop_assert_eq!(rx.unprotect(&wire), Some(payload));
    }

    #[test]
    fn viterbi_inverts_encoder_noiselessly(
        bits in proptest::collection::vec(0u8..2, 1..150),
    ) {
        use gsp_coding::{ConvCode, ConvEncoder, ViterbiDecoder};
        use gsp_coding::bits::bits_to_llrs;
        let code = ConvCode::umts_half();
        let coded = ConvEncoder::new(code.clone()).encode_block(&bits);
        let mut dec = ViterbiDecoder::new(code);
        prop_assert_eq!(dec.decode_block(&bits_to_llrs(&coded, 2.0)), bits);
    }

    #[test]
    fn recycled_engine_reports_match_fresh_ones(
        seed in any::<u64>(),
        workers in 1usize..=4,
        noisy in any::<bool>(),
    ) {
        // The reused-workspace pattern, pipeline-engine edition: a
        // long-lived engine writing into a recycled ChainReport (switch
        // scratch reset + swapped, bit/outcome buffers reused) must stay
        // bitwise identical to a fresh engine filling a fresh report.
        use gsp_payload::chain::ChainConfig;
        use gsp_payload::pipeline::PipelineEngine;
        let cfg = ChainConfig {
            active_carriers: 2,
            info_bits: 32,
            esn0_db: noisy.then_some(9.0),
            ..ChainConfig::default()
        };
        let mut engine = PipelineEngine::with_workers(cfg.clone(), workers);
        let mut recycled = engine.run_frame_at(seed, 3); // dirty the report
        engine.run_frame_into(seed ^ 1, 4, &mut recycled);
        let fresh = PipelineEngine::with_workers(cfg, 1).run_frame_at(seed ^ 1, 4);
        prop_assert_eq!(recycled, fresh);
    }

    #[test]
    fn turbo_inverts_encoder_noiselessly(
        seed in any::<u64>(),
        k in 40usize..200,
    ) {
        use gsp_coding::{TurboCode, TurboDecoder};
        use gsp_coding::bits::bits_to_llrs;
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let bits: Vec<u8> = (0..k).map(|_| rng.gen_range(0..2u8)).collect();
        let code = TurboCode::new(k);
        let coded = code.encode_block(&bits);
        let mut dec = TurboDecoder::new(code);
        prop_assert_eq!(dec.decode_block(&bits_to_llrs(&coded, 2.0), 2), bits);
    }
}
