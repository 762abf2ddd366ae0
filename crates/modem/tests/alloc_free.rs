//! The TDMA burst modem's steady state touches the heap not at all: once
//! its buffers have grown, `modulate_into` and `demodulate_into` (block
//! matched filter with its padded scratch, timing recovery, UW sync, both
//! carrier passes) reuse them on every later burst of the same format.

use gsp_modem::framing::BurstFormat;
use gsp_modem::tdma::{
    TdmaBurstDemodulator, TdmaBurstModulator, TdmaConfig, TdmaDemodResult, TimingRecoveryKind,
};
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
fn warm_burst_modem_allocates_nothing() {
    let format = BurstFormat::standard(24, 24, 200);
    let bits: Vec<u8> = (0..format.payload_bits())
        .map(|i| ((i * 11) % 5 < 2) as u8)
        .collect();
    for timing in [TimingRecoveryKind::Gardner, TimingRecoveryKind::OerderMeyr] {
        let cfg = TdmaConfig::new(format.clone(), timing);
        let modulator = TdmaBurstModulator::new(cfg.clone());
        let mut demod = TdmaBurstDemodulator::new(cfg);
        let (mut syms, mut wave) = (Vec::new(), Vec::new());
        let mut out = TdmaDemodResult::default();
        modulator.modulate_into(&bits, &mut syms, &mut wave);
        assert!(demod.demodulate_into(&wave, &mut out), "{timing:?}");
        let before = allocs();
        for _ in 0..4 {
            modulator.modulate_into(&bits, &mut syms, &mut wave);
            assert!(demod.demodulate_into(&wave, &mut out), "{timing:?}");
        }
        assert_eq!(allocs() - before, 0, "{timing:?}");
        assert_eq!(out.bits, bits, "{timing:?}");
    }
}
