//! The payload's steady state. Once its buffers have grown, a downlink Tx
//! chain builds a burst without touching the heap, and the ground
//! receiver's only allocation is the payload of the packet it returns.
//! On the uplink, a warm pipeline frame allocates only the payloads of
//! the packets it regenerates.

use gsp_payload::chain::ChainConfig;
use gsp_payload::pipeline::PipelineEngine;
use gsp_payload::switch::BasebandPacket;
use gsp_payload::txchain::{DownlinkConfig, GroundReceiver, TxChain};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads,
    /// so a global count would see its neighbours).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAlloc;

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter bump, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|a| a.set(a.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn warm_downlink_burst_allocates_only_the_received_payload() {
    let cfg = DownlinkConfig::default();
    let mut tx = TxChain::new(cfg.clone());
    let mut rx = GroundReceiver::new(cfg);
    let pkt = BasebandPacket {
        source: 3,
        dest_beam: 1,
        class: 0,
        born_tick: 0,
        data: (0..32u8).map(|b| b.wrapping_mul(37)).collect(),
    };
    let mut wave = Vec::new();
    tx.transmit_into(&pkt, &mut wave);
    assert!(rx.receive(&wave).is_some(), "warm-up burst decodes");
    for _ in 0..3 {
        let before = allocs();
        tx.transmit_into(&pkt, &mut wave);
        assert_eq!(allocs() - before, 0, "transmit_into");
        let before = allocs();
        let got = rx.receive(&wave);
        assert_eq!(allocs() - before, 1, "receive");
        assert_eq!(got.expect("decoded").data, pkt.data);
    }
}

#[test]
fn warm_uplink_frame_allocates_one_payload_per_clean_packet() {
    // A one-worker engine steps every lane half and DEMUX range inline on
    // this thread, so the count covers the whole frame: the Tx tables,
    // the DEMUX range, the lanes' buffers and the recycled report are
    // all reused, and the only allocation left is each CRC-clean
    // packet's payload, which escapes into the report's switch.
    let cfg = ChainConfig {
        esn0_db: Some(12.0),
        ..ChainConfig::default()
    };
    let mut engine = PipelineEngine::with_workers(cfg, 1);
    let mut report = engine.run_frame(0);
    for seed in 1..3 {
        engine.run_frame_into(seed, seed, &mut report);
    }
    for seed in 3..9 {
        let before = allocs();
        engine.run_frame_into(seed, seed, &mut report);
        let spent = allocs() - before;
        let clean = report.carriers.iter().filter(|c| c.crc_ok).count() as u64;
        assert!(clean > 0, "seed {seed}: a 12 dB frame decodes");
        assert_eq!(spent, clean, "seed {seed}");
    }
}
