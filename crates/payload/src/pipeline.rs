//! The reusable Fig. 2 pipeline engine: per-carrier Tx synthesis, the
//! DEMUX in block ranges, and DEMOD → DECOD → CRC stepped on one
//! [`Pool`], with cross-frame software pipelining.
//!
//! [`crate::chain::run_mf_tdma_frame`] builds the whole chain from scratch
//! for every frame. This module keeps all of that state alive in a
//! [`PipelineEngine`] instead:
//!
//! * each active carrier owns a **Tx lane** (burst codec, modulator, and
//!   an upconversion from two exact tables: the ×M Farrow weights and the
//!   carrier's LO samples) and an **Rx lane** (burst demodulator, burst
//!   codec) that persist across frames;
//! * the polyphase DEMUX is split into one contiguous **block range** per
//!   worker, each with its own channelizer; a range depends only on its
//!   blocks and the 11 before them, so the ranges together equal one
//!   serial pass bit for bit;
//! * a lane half or DEMUX range travels to the pool *by value*, together
//!   with the frame I/O it works on, and comes back in send order.
//!   Between public calls every lane and range is home in the engine.
//!   With `workers > 1` the pool's threads are spawned once in
//!   [`PipelineEngine::with_workers`] and joined on drop; with one worker
//!   the pool steps each item inline;
//! * Tx burst synthesis, the DEMUX *and* the per-carrier receive chain
//!   run on the pool, with only bit drawing, carrier summation, ADC
//!   noise, the DEMUX's copy and scatter, and switch ingress left on the
//!   engine thread;
//! * every run follows one FIFO schedule. Per frame `i`: receive
//!   Tx(`i`), sum and noise frame `i`, send its DEMUX ranges, send
//!   Tx(`i+1`), receive Rx(`i-1`) and retire it, receive the DEMUX ranges
//!   and scatter them, then send Rx(`i`). While the engine retires frame
//!   `i-1` the pool holds DEMUX(`i`) and Tx(`i+1`), so steady-state
//!   throughput approaches `max(serial_ns, parallel_ns / workers)` per
//!   frame instead of their sum. A single frame is the one-frame case of
//!   the same schedule;
//! * per-stage counters accumulate in [`PipelineStats`].
//!
//! # Determinism
//!
//! A frame's [`ChainReport`] is **bitwise identical** for any worker
//! count, and whether frames are run one at a time or as a batch:
//!
//! * everything that consumes randomness — information bits and ADC
//!   noise — runs serially on one per-frame `StdRng` on the engine
//!   thread, in carrier order;
//! * each Tx lane synthesizes its burst into a **lane-private** buffer;
//!   the engine sums those buffers into the composite serially in carrier
//!   order, so the float additions happen in exactly the serial order no
//!   matter which worker finished first;
//! * each lane half is home before it is sent again, so it runs its
//!   frames in frame order on whichever worker holds it, touching only
//!   its own state and the frame I/O. The pool returns items in send
//!   order, so results land by position — scheduling can reorder
//!   *completion*, never *content*;
//! * each DEMUX range computes a disjoint run of output blocks from the
//!   same composite, with every input its blocks depend on, and the
//!   engine scatters its slab by block position;
//! * the switch ingests CRC-clean packets serially in carrier order, and
//!   all counters are folded in frame order when a frame retires.

use crate::chain::{burst_link, CarrierOutcome, ChainConfig, ChainReport, CHANNELS};
use crate::pool::{self, Pool};
use crate::switch::{BasebandPacket, PacketSwitch};
use gsp_channel::awgn::AwgnChannel;
use gsp_coding::{kernels as trellis_kernels, BurstCodec};
use gsp_dsp::channelizer::PolyphaseChannelizer;
use gsp_dsp::nco::Nco;
use gsp_dsp::resample::FarrowUpsampler;
use gsp_dsp::Cpx;
use gsp_dsp::{kernels as cpx_kernels, measure::count_bit_errors};
use gsp_modem::tdma::{TdmaBurstDemodulator, TdmaBurstModulator, TdmaDemodResult};
use gsp_telemetry::{Counter, Gauge, Histogram, Registry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Frames in flight at once: frame `i-1` in receive, frame `i` in the
/// serial stages, frame `i+1` in Tx synthesis.
const SLOTS: usize = 3;

/// Every lane half is back in the engine between public calls.
const HOME: &str = "lane half home between calls";

/// Accumulated per-stage counters across every frame an engine has run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Frames processed.
    pub frames: u64,
    /// Composite (ADC-rate) samples processed.
    pub composite_samples: u64,
    /// Bursts whose unique word was not found.
    pub uw_misses: u64,
    /// Bursts that demodulated but failed the CRC after decoding.
    pub crc_failures: u64,
    /// Packets the switch accepted and forwarded.
    pub packets_forwarded: u64,
    /// Packets the switch dropped on a full beam queue.
    pub packets_dropped_overflow: u64,
    /// Packets the switch dropped for want of a route.
    pub packets_dropped_no_route: u64,
    /// Nanoseconds in the *serial* Tx residue: information-bit drawing,
    /// carrier summation into the composite and ADC noise. (Per-lane
    /// burst synthesis moved to the pool — see
    /// [`PipelineStats::tx_synth_ns`].)
    pub tx_ns: u64,
    /// Nanoseconds in per-lane burst synthesis (CRC attach, conv encode,
    /// modulate, upsample, mix), summed across lanes — CPU time, not wall
    /// time, when workers > 1.
    pub tx_synth_ns: u64,
    /// Nanoseconds in the polyphase DEMUX: its block ranges' run time
    /// summed across workers (CPU time, not wall time, when workers > 1),
    /// plus the engine's copy into and scatter out of them.
    pub demux_ns: u64,
    /// Frames whose DEMUX produced a block count different from the
    /// expected `ceil(composite / channels)` — formerly a
    /// `debug_assert`, now a real counter (see [`ChainReport::demux_ok`]).
    pub demux_errors: u64,
    /// Nanoseconds in burst demodulation, summed across lanes (CPU time,
    /// not wall time, when workers > 1).
    pub demod_ns: u64,
    /// Nanoseconds in FEC decoding + CRC, summed across lanes.
    pub decode_ns: u64,
    /// Nanoseconds in switch ingress.
    pub switch_ns: u64,
}

/// Derives the seed of frame `i` of a batched run from the run `seed`
/// (SplitMix64-mixed so distinct `(seed, i)` pairs cannot collide).
pub fn frame_seed(seed: u64, i: usize) -> u64 {
    seed ^ rand::splitmix64_mix(0xF2A3_0000_0000_0000 ^ i as u64)
}

/// A fault an FDIR injector can impose on one carrier lane (the live
/// manifestation of an SEU landing in lane state — see `gsp-fdir`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneFault {
    /// The lane's receive half stops running: its watchdog heartbeat
    /// freezes and every burst on the carrier is lost.
    Stall,
    /// The lane keeps running but its CRC checker is corrupted: every
    /// burst decodes and then fails the check.
    CorruptCrc,
}

/// One lane's liveness counters, as sampled by an FDIR watchdog.
///
/// `heartbeats` advances once per completed receive pass and freezes
/// while the lane is stalled; `crc_failures` counts bursts that
/// demodulated but failed the CRC. Both are cumulative since engine
/// construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneHealth {
    /// Receive passes completed.
    pub heartbeats: u64,
    /// Bursts that demodulated but failed the CRC on this lane.
    pub crc_failures: u64,
}

/// Per-lane, per-frame I/O that travels to the pool with the lane half
/// working on it: ground-truth bits and the synthesized burst with the Tx
/// half, channel samples, outcome and packet with the Rx half. Boxed so a
/// pool item moves a pointer, not kilobytes; the buffers reach
/// steady-state capacity after the first frame (or at construction, via
/// pre-warm) and are never reallocated.
struct LaneIo {
    /// Ground-truth information bits (drawn serially by the engine).
    info: Vec<u8>,
    /// The lane's burst, upsampled to composite rate and mixed onto its
    /// carrier — summed into the composite by the engine, in lane order.
    upsampled: Vec<Cpx>,
    /// The lane's channel samples out of the DEMUX.
    samples: Vec<Cpx>,
    /// Per-frame Rx output.
    outcome: Option<CarrierOutcome>,
    /// Per-frame Rx output: the CRC-clean packet, if any.
    packet: Option<BasebandPacket>,
    tx_ns: u64,
    demod_ns: u64,
    decode_ns: u64,
}

impl LaneIo {
    fn with_capacity(info: usize, upsampled: usize, samples: usize) -> Box<Self> {
        Box::new(LaneIo {
            info: Vec::with_capacity(info),
            upsampled: Vec::with_capacity(upsampled),
            samples: Vec::with_capacity(samples),
            outcome: None,
            packet: None,
            tx_ns: 0,
            demod_ns: 0,
            decode_ns: 0,
        })
    }
}

/// One carrier's long-lived transmit state.
struct TxLane {
    codec: BurstCodec,
    /// Upsampling ×M on its exact µ table.
    upsampler: FarrowUpsampler,
    /// The carrier's local oscillator, tabulated: the burst's output `n`
    /// is mixed with `lo[n % lo.len()]` (see [`Nco::table`]).
    lo: Vec<Cpx>,
    modulator: TdmaBurstModulator,
    /// Tx scratch: the coded block.
    coded: Vec<u8>,
    /// Tx scratch: the assembled burst symbols before pulse shaping.
    syms: Vec<Cpx>,
    /// Tx scratch: this carrier's modulated burst.
    wave: Vec<Cpx>,
}

impl TxLane {
    /// Synthesizes the lane's burst from `io.info`: encode → modulate →
    /// upsample ×M → mix onto the carrier centre, into `io.upsampled`.
    /// Touches only lane-local state and `io`, so it is safe on any
    /// worker; the engine later sums the per-lane buffers in carrier
    /// order, reproducing the serial accumulation bit for bit.
    fn synth(&mut self, io: &mut LaneIo) {
        self.codec.encode_into(&io.info, &mut self.coded);
        self.modulator
            .modulate_into(&self.coded, &mut self.syms, &mut self.wave);
        self.upsampler
            .upsample_mix(&self.wave, &self.lo, &mut io.upsampled);
    }
}

/// One carrier's long-lived receive state.
struct RxLane {
    carrier: usize,
    demod: TdmaBurstDemodulator,
    codec: BurstCodec,
    beams: usize,
    /// Rx scratch: the demodulator's reusable result slot.
    demod_out: TdmaDemodResult,
    /// Rx scratch: the decoded information bits.
    decoded: Vec<u8>,
    /// Injected fault, if any (see [`LaneFault`]).
    fault: Option<LaneFault>,
    /// Watchdog counters (heartbeats freeze while stalled).
    health: LaneHealth,
}

impl RxLane {
    /// Demodulate, decode, CRC-check one channel's samples (`io.samples`
    /// against ground truth `io.info`). Touches only lane-local state,
    /// and — via the demodulator's and decoder's `_into` entry points —
    /// no heap in steady state (the CRC-clean packet handed to the switch
    /// is the one escaping allocation).
    fn receive(&mut self, io: &mut LaneIo) {
        io.packet = None;
        io.demod_ns = 0;
        io.decode_ns = 0;
        let bits = io.info.len();
        let mut outcome = CarrierOutcome {
            carrier: self.carrier,
            detected: false,
            crc_ok: false,
            bit_errors: bits,
            bits,
        };
        if self.fault == Some(LaneFault::Stall) {
            // Stalled lane: the receive half never runs, so the burst is
            // lost and the heartbeat counter freezes — exactly what a
            // watchdog deadline is there to catch. (The Tx half already
            // ran, so the RNG draw sequence is unchanged.)
            io.outcome = Some(outcome);
            return;
        }

        let t0 = Instant::now();
        outcome.detected = self.demod.demodulate_into(&io.samples, &mut self.demod_out);
        io.demod_ns = t0.elapsed().as_nanos() as u64;

        let t1 = Instant::now();
        if outcome.detected {
            outcome.crc_ok = self
                .codec
                .decode_into(&self.demod_out.llrs, &mut self.decoded)
                && self.fault != Some(LaneFault::CorruptCrc);
            outcome.bit_errors = count_bit_errors(&self.decoded, &io.info);
            if outcome.crc_ok {
                io.packet = Some(BasebandPacket {
                    source: self.carrier as u16,
                    dest_beam: (self.carrier % self.beams) as u8,
                    class: 0,
                    // Stamped with the engine's frame tick in the serial
                    // ingress section (the lane does not know it).
                    born_tick: 0,
                    data: gsp_coding::bits::pack_bits(&self.decoded),
                });
            } else {
                self.health.crc_failures += 1;
            }
        }
        io.decode_ns = t1.elapsed().as_nanos() as u64;
        self.health.heartbeats += 1;
        io.outcome = Some(outcome);
    }
}

/// One contiguous range of a frame's DEMUX blocks on its own
/// channelizer. Output block `n` depends only on composite blocks
/// `n - 11 ..= n` (the channelizer is reset every frame), so ranges run
/// independently and their slabs together equal one serial pass, bit for
/// bit.
struct DemuxRange {
    channelizer: PolyphaseChannelizer,
    /// The composite samples the range reads: the whole composite for the
    /// first range (moved in, not copied), a copy of its blocks and their
    /// history for the others.
    input: Vec<Cpx>,
    /// The range's first block within `input`.
    first: usize,
    /// The range's first block within the frame.
    block: usize,
    /// Blocks in the range.
    blocks: usize,
    /// Frames-major output: `M` channel samples per block produced.
    slab: Vec<Cpx>,
    /// Blocks the channelizer produced.
    produced: usize,
    /// Nanoseconds the channelizer ran.
    ns: u64,
}

/// One lane half or DEMUX range out on the pool, with the frame I/O it
/// works on.
enum LaneWork {
    Tx(Box<TxLane>, Box<LaneIo>),
    Rx(Box<RxLane>, Box<LaneIo>),
    Demux(Box<DemuxRange>),
}

impl LaneWork {
    /// The pool step: synthesize, receive or channelize, touching only
    /// this item.
    fn run(&mut self) {
        match self {
            LaneWork::Tx(lane, io) => {
                let t0 = Instant::now();
                lane.synth(io);
                io.tx_ns = t0.elapsed().as_nanos() as u64;
            }
            LaneWork::Rx(lane, io) => lane.receive(io),
            LaneWork::Demux(range) => {
                let t0 = Instant::now();
                range.slab.clear();
                range.produced = range.channelizer.process_range(
                    &range.input,
                    range.first,
                    range.blocks,
                    &mut range.slab,
                );
                range.ns = t0.elapsed().as_nanos() as u64;
            }
        }
    }
}

/// Per-slot state of one in-flight frame.
struct FrameSlot {
    /// One I/O buffer per lane; `None` while it is out on the pool.
    ios: Vec<Option<Box<LaneIo>>>,
    /// The frame's RNG, carried from bit drawing to ADC noise so the draw
    /// sequence matches the historical serial code.
    rng: Option<StdRng>,
    /// Engine-thread wall time spent on this frame so far, waits for its
    /// lane halves included and other frames' stages excluded.
    frame_ns: u64,
    /// Serial Tx nanoseconds so far (bit draw + summation + noise).
    tx_serial_ns: u64,
    /// DEMUX nanoseconds: the ranges' summed CPU time plus the engine's
    /// copy and scatter.
    demux_ns: u64,
    /// Channel blocks the DEMUX produced.
    produced: usize,
    /// Channel blocks the DEMUX should have produced.
    expected: usize,
    composite_len: usize,
}

/// The engine's metric handles, all no-op until
/// [`PipelineEngine::set_telemetry`] installs live ones.
///
/// Everything recorded here is an order-independent sum or a per-burst
/// observation: telemetry is observed, never consulted, so an enabled
/// engine stays bitwise identical to a disabled one at any worker count
/// (asserted by `tests/tests/telemetry_plane.rs`).
#[derive(Clone, Debug, Default)]
struct EngineTelemetry {
    /// Whether the handles are live (gates the extra wall-clock reads).
    enabled: bool,
    /// `payload.frame.ns` — engine-thread wall time spent on one frame:
    /// its serial stages plus its waits for the pool, excluding the
    /// neighbouring frames' stages it overlaps. With one worker this is
    /// the whole frame.
    frame_ns: Histogram,
    /// `payload.tx.ns` — serial Tx residue (bit draw + sum + noise), per
    /// frame.
    tx_ns: Histogram,
    /// `payload.tx.synth.ns` — per-lane burst synthesis.
    tx_synth_ns: Histogram,
    /// `payload.demux.ns` — polyphase DEMUX, per frame (summed across
    /// its block ranges).
    demux_ns: Histogram,
    /// `payload.demod.ns` — burst demodulation, per carrier lane.
    demod_ns: Histogram,
    /// `payload.decode.ns` — FEC decode + CRC, per carrier lane.
    decode_ns: Histogram,
    /// `payload.switch.ns` — serial switch ingress stage, per frame.
    switch_ns: Histogram,
    frames: Counter,
    composite_samples: Counter,
    uw_misses: Counter,
    crc_failures: Counter,
    /// `payload.demux.errors` — frames whose DEMUX block count was off.
    demux_errors: Counter,
    packets_forwarded: Counter,
    packets_dropped_overflow: Counter,
    packets_dropped_no_route: Counter,
    /// `payload.workers` — configured worker count.
    workers: Gauge,
    /// `payload.workers.utilization` — summed pool CPU time (lane halves
    /// and DEMUX ranges) over `workers` × wall time of the last
    /// `run_frame*`/`run_frames` call.
    utilization: Gauge,
    /// `payload.pool.queue_depth` — lane halves sent to the pool and not
    /// yet received, right after an Rx send.
    queue_depth: Gauge,
}

/// Reusable Fig. 2 payload pipeline on a persistent worker pool.
pub struct PipelineEngine {
    cfg: ChainConfig,
    workers: usize,
    /// Each carrier's Tx half; `None` only while it is out on the pool.
    tx: Vec<Option<Box<TxLane>>>,
    /// Each carrier's Rx half; `None` only while it is out on the pool.
    rx: Vec<Option<Box<RxLane>>>,
    pool: Pool<LaneWork>,
    /// Samples per modulated burst (fixed by the burst format).
    burst_len: usize,
    /// One DEMUX range per worker, splitting the frame's blocks into
    /// contiguous runs; `None` only while it is out on the pool.
    demux: Vec<Option<Box<DemuxRange>>>,
    stats: PipelineStats,
    /// Per-frame scratch: the FDM composite at ADC rate (out on the pool
    /// with the first DEMUX range while it runs).
    composite: Vec<Cpx>,
    /// In-flight frame slots (frame `i` uses slot `i % SLOTS`).
    slots: Vec<FrameSlot>,
    /// Reusable switch scratch: reset + swapped with the outgoing
    /// report's switch each frame, so steady-state ingress allocates
    /// nothing (PR 3's hot-path guarantee, restored).
    switch: PacketSwitch,
    /// Lane CPU ns accumulated since the current public call began.
    busy_ns: u64,
    tel: EngineTelemetry,
}

impl PipelineEngine {
    /// Engine with one worker per available CPU (at most one per carrier).
    pub fn new(cfg: ChainConfig) -> Self {
        Self::with_workers(cfg, pool::cores())
    }

    /// Engine with an explicit worker count (`1` = fully serial, no pool
    /// threads). Workers beyond one per active carrier are clamped.
    ///
    /// Construction pre-warms every lane — survivor matrices, demodulator
    /// workspaces, modulation scratch and the per-slot I/O buffers are
    /// sized here — so first-frame latency matches steady state instead
    /// of spiking on cold allocations.
    pub fn with_workers(cfg: ChainConfig, workers: usize) -> Self {
        assert!(cfg.active_carriers <= CHANNELS);
        assert!(workers >= 1);
        let m = CHANNELS;
        let n = cfg.active_carriers;
        // Resolve the receive chain's compute-kernel handles once; every
        // lane (and the shared channelizer) is pinned to the same backend
        // so a frame's report never depends on which lane ran where.
        let cpx_k = cfg
            .kernel_backend
            .map_or_else(cpx_kernels::active, cpx_kernels::for_backend);
        let trellis_k = cfg.kernel_backend.map(trellis_kernels::for_backend);
        let (codec, tdma_cfg) = burst_link(cfg.info_bits, cfg.timing, trellis_k);
        let modulator = TdmaBurstModulator::new(tdma_cfg.clone());
        let burst_len = modulator.modulate(&vec![0u8; codec.coded_len()]).len();
        let guard = 64 * m;
        let composite_len = burst_len * m + 2 * guard;
        let blocks = composite_len / m;

        let upsampler = FarrowUpsampler::new(m);
        let upsampled_len = upsampler.output_len(burst_len);
        let mut tx: Vec<Box<TxLane>> = (0..n)
            .map(|k| {
                let carrier = Nco::from_step(std::f64::consts::TAU * k as f64 / m as f64);
                Box::new(TxLane {
                    codec: codec.clone(),
                    upsampler: upsampler.clone(),
                    lo: carrier.table(m, upsampled_len),
                    modulator: modulator.clone(),
                    coded: Vec::new(),
                    syms: Vec::new(),
                    wave: Vec::new(),
                })
            })
            .collect();
        let mut rx: Vec<Box<RxLane>> = (0..n)
            .map(|k| {
                Box::new(RxLane {
                    carrier: k,
                    demod: TdmaBurstDemodulator::with_kernels(tdma_cfg.clone(), cpx_k),
                    codec: codec.clone(),
                    beams: cfg.beams,
                    demod_out: TdmaDemodResult::default(),
                    decoded: Vec::with_capacity(cfg.info_bits),
                    fault: None,
                    health: LaneHealth::default(),
                })
            })
            .collect();

        // Pre-warm: run one throwaway burst through each Tx lane (sizes
        // the encode/modulate/upsample scratch; each codec sized its
        // decoder when it was built), and push one zero block through
        // each demodulator (sizes its matched-filter and symbol buffers;
        // telemetry handles are still no-op, and lane heartbeats are
        // untouched, so nothing observable changes).
        let mut warm = LaneIo::with_capacity(cfg.info_bits, 0, blocks);
        warm.info = vec![0u8; cfg.info_bits];
        warm.samples = vec![Cpx::ZERO; blocks];
        for (tx, rx) in tx.iter_mut().zip(&mut rx) {
            tx.synth(&mut warm);
            let _ = rx.demod.demodulate_into(&warm.samples, &mut rx.demod_out);
        }

        let workers = workers.min(n.max(1));
        // One DEMUX range per worker. The composite length is fixed, so
        // are the ranges: range `r` covers blocks `r·B/w .. (r+1)·B/w`,
        // and every range but the first reads a copy of its blocks plus
        // the history before them.
        let channelizer = PolyphaseChannelizer::with_kernels(m, 12, cpx_k);
        let history = channelizer.history_blocks();
        let demux = (0..workers)
            .map(|r| {
                let (lo, hi) = (r * blocks / workers, (r + 1) * blocks / workers);
                let first = lo.min(history);
                let copied = if r == 0 { 0 } else { (first + hi - lo) * m };
                Some(Box::new(DemuxRange {
                    channelizer: channelizer.clone(),
                    input: Vec::with_capacity(copied),
                    first,
                    block: lo,
                    blocks: hi - lo,
                    slab: Vec::with_capacity((hi - lo) * m),
                    produced: 0,
                    ns: 0,
                }))
            })
            .collect();
        let slots = (0..SLOTS)
            .map(|_| FrameSlot {
                ios: (0..n)
                    .map(|_| Some(LaneIo::with_capacity(cfg.info_bits, upsampled_len, blocks)))
                    .collect(),
                rng: None,
                frame_ns: 0,
                tx_serial_ns: 0,
                demux_ns: 0,
                produced: 0,
                expected: 0,
                composite_len: 0,
            })
            .collect();

        PipelineEngine {
            workers,
            tx: tx.into_iter().map(Some).collect(),
            rx: rx.into_iter().map(Some).collect(),
            pool: Pool::new(workers, LaneWork::run),
            burst_len,
            demux,
            stats: PipelineStats::default(),
            composite: Vec::with_capacity(composite_len),
            slots,
            switch: PacketSwitch::new(cfg.beams, cfg.switch_queue_limit),
            busy_ns: 0,
            tel: EngineTelemetry::default(),
            cfg,
        }
    }

    /// Registers the engine's metrics on `registry` and starts recording
    /// into them: per-stage latency histograms (`payload.tx.ns`,
    /// `payload.tx.synth.ns`, `payload.demux.ns`, per-lane
    /// `payload.demod.ns` / `payload.decode.ns`, `payload.switch.ns`,
    /// `payload.frame.ns`), outcome counters (`payload.frames`,
    /// `payload.uw_misses`, `payload.crc.failures`,
    /// `payload.demux.errors`, `payload.packets.*`) and worker gauges
    /// (`payload.workers`, `payload.workers.utilization`,
    /// `payload.pool.queue_depth`). The lanes' burst demodulators
    /// register their `modem.tdma.*` counters on the same registry.
    ///
    /// Telemetry is observed, never consulted: frame reports stay bitwise
    /// identical whether `registry` is live, no-op, or never installed.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.tel = EngineTelemetry {
            enabled: registry.enabled(),
            frame_ns: registry.histogram_ns("payload.frame.ns"),
            tx_ns: registry.histogram_ns("payload.tx.ns"),
            tx_synth_ns: registry.histogram_ns("payload.tx.synth.ns"),
            demux_ns: registry.histogram_ns("payload.demux.ns"),
            demod_ns: registry.histogram_ns("payload.demod.ns"),
            decode_ns: registry.histogram_ns("payload.decode.ns"),
            switch_ns: registry.histogram_ns("payload.switch.ns"),
            frames: registry.counter("payload.frames"),
            composite_samples: registry.counter("payload.composite_samples"),
            uw_misses: registry.counter("payload.uw_misses"),
            crc_failures: registry.counter("payload.crc.failures"),
            demux_errors: registry.counter("payload.demux.errors"),
            packets_forwarded: registry.counter("payload.packets.forwarded"),
            packets_dropped_overflow: registry.counter("payload.packets.dropped_overflow"),
            packets_dropped_no_route: registry.counter("payload.packets.dropped_no_route"),
            workers: registry.gauge("payload.workers"),
            utilization: registry.gauge("payload.workers.utilization"),
            queue_depth: registry.gauge("payload.pool.queue_depth"),
        };
        self.tel.workers.set(self.workers as f64);
        for lane in &mut self.rx {
            lane.as_mut().expect(HOME).demod.set_telemetry(registry);
        }
    }

    /// The engine's chain configuration.
    pub fn config(&self) -> &ChainConfig {
        &self.cfg
    }

    /// Worker count (clamped to the active carrier count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Accumulated per-stage counters since construction (or the last
    /// [`PipelineEngine::reset_stats`]).
    pub fn stats(&self) -> PipelineStats {
        self.stats
    }

    /// Zeroes the accumulated counters.
    pub fn reset_stats(&mut self) {
        self.stats = PipelineStats::default();
    }

    fn set_fault(&mut self, carrier: usize, fault: Option<LaneFault>) {
        if let Some(lane) = self.rx.get_mut(carrier) {
            lane.as_mut().expect(HOME).fault = fault;
        }
    }

    /// Imposes `fault` on carrier lane `carrier` (no-op out of range).
    /// The fault persists across frames until [`Self::clear_lane_fault`].
    pub fn inject_lane_fault(&mut self, carrier: usize, fault: LaneFault) {
        self.set_fault(carrier, Some(fault));
    }

    /// Clears any injected fault on lane `carrier` — the recovery side of
    /// an FDIR lane reset (no-op out of range).
    pub fn clear_lane_fault(&mut self, carrier: usize) {
        self.set_fault(carrier, None);
    }

    /// Watchdog counters for lane `carrier` (default-zero out of range).
    pub fn lane_health(&self, carrier: usize) -> LaneHealth {
        self.rx.get(carrier).map_or(LaneHealth::default(), |lane| {
            lane.as_ref().expect(HOME).health
        })
    }

    /// Queues `packets` into the frame switch ahead of the next frame's
    /// own lane traffic — the hot-swap replay path. Preloaded packets
    /// ride the next frame's switch accounting (forwarded / overflow /
    /// no-route) and leave in that frame's report, exactly as if the
    /// lanes had regenerated them, so a waveform brought up mid-soak can
    /// absorb its predecessor's undrained queues without inventing a
    /// side channel around the switch.
    pub fn preload_ingress(&mut self, packets: impl IntoIterator<Item = BasebandPacket>) {
        for pkt in packets {
            self.switch.ingress(pkt);
        }
    }

    /// Quiesces the engine at a frame boundary: every entry point returns
    /// with all lanes home and no frame in flight, so this only has to
    /// hand back whatever a replay preloaded but never ran — the hot-swap
    /// controller's guarantee that deactivating a personality strands no
    /// ingress.
    pub fn quiesce(&mut self) -> Vec<BasebandPacket> {
        let mut held = Vec::new();
        for beam in 0..self.switch.beams() {
            held.append(&mut self.switch.drain_beam(beam));
        }
        held
    }

    /// An empty report shell shaped for this engine (recycled by
    /// [`PipelineEngine::run_frame_into`] callers to keep the hot loop
    /// allocation-free).
    fn empty_report(&self) -> ChainReport {
        ChainReport {
            carriers: Vec::new(),
            packets_forwarded: 0,
            packets_dropped_overflow: 0,
            packets_dropped_no_route: 0,
            composite_samples: 0,
            switch: PacketSwitch::new(self.cfg.beams, self.cfg.switch_queue_limit),
            info_bits: Vec::new(),
            demux_produced: 0,
            demux_expected: 0,
        }
    }

    /// Starts the frame in `slot`: draws every lane's information bits
    /// (serially, in carrier order, on the frame's own RNG) and sends
    /// each Tx half to the pool with its I/O.
    fn send_tx(&mut self, slot: usize, seed: u64) {
        let t0 = Instant::now();
        let info_bits = self.cfg.info_bits;
        let mut rng = StdRng::seed_from_u64(seed);
        let sl = &mut self.slots[slot];
        for io in sl.ios.iter_mut() {
            let io = io.as_mut().expect("frame slot home");
            io.info.clear();
            io.info
                .extend((0..info_bits).map(|_| rng.gen_range(0..2u8)));
        }
        sl.tx_serial_ns = t0.elapsed().as_nanos() as u64;
        sl.rng = Some(rng);
        for (lane, io) in self.tx.iter_mut().zip(sl.ios.iter_mut()) {
            let io = io.take().expect("frame slot home");
            self.pool.send(LaneWork::Tx(lane.take().expect(HOME), io));
        }
        sl.frame_ns = t0.elapsed().as_nanos() as u64;
    }

    /// Receives the lane halves sent for the frame in `slot` and puts each
    /// one, and its I/O, home. The pool returns items in send order, so
    /// the `k`-th item back is lane `k`'s.
    fn recv_lanes(&mut self, slot: usize) {
        let t0 = Instant::now();
        let sl = &mut self.slots[slot];
        for (k, io) in sl.ios.iter_mut().enumerate() {
            *io = Some(match self.pool.recv() {
                LaneWork::Tx(lane, io) => {
                    self.tx[k] = Some(lane);
                    io
                }
                LaneWork::Rx(lane, io) => {
                    self.rx[k] = Some(lane);
                    io
                }
                LaneWork::Demux(_) => unreachable!("the pool returns items in send order"),
            });
        }
        sl.frame_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Sums the synthesized bursts into the composite in carrier order
    /// (bitwise identical to the old serial accumulation) and applies ADC
    /// noise on the frame's RNG: the serial Tx residue.
    fn compose(&mut self, slot: usize) {
        let t0 = Instant::now();
        let m = CHANNELS;
        let guard = 64 * m;
        let composite_len = self.burst_len * m + 2 * guard;
        let sl = &mut self.slots[slot];

        self.composite.clear();
        self.composite.resize(composite_len, Cpx::ZERO);
        for io in sl.ios.iter() {
            let io = io.as_ref().expect("tx received");
            for (i, s) in io.upsampled.iter().enumerate() {
                if guard + i < composite_len {
                    self.composite[guard + i] += *s;
                }
            }
        }
        let rng = sl.rng.take();
        if let Some(db) = self.cfg.esn0_db {
            // Per-carrier Es/N0 calibration: the channelizer passes an
            // on-centre carrier with unit gain while keeping only the
            // channel's share of the composite noise (measured noise
            // bandwidth ≈ 1.1/m of the prototype), so composite noise
            // is 1.1·m times the per-channel target.
            let mut rng = rng.expect("send_tx seeded the frame RNG");
            let mut ch = AwgnChannel::from_esn0_db(db - 10.0 * (1.1 * m as f64).log10());
            ch.apply(&mut self.composite, &mut rng);
        }
        sl.expected = composite_len.div_ceil(m);
        sl.composite_len = composite_len;
        sl.tx_serial_ns += t0.elapsed().as_nanos() as u64;
        sl.frame_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Sends the frame's DEMUX ranges to the pool: the first takes the
    /// composite itself, each other one a copy of its blocks and their
    /// history.
    fn send_demux(&mut self, slot: usize) {
        let t0 = Instant::now();
        let m = CHANNELS;
        let blocks = self.composite.len() / m;
        let sl = &mut self.slots[slot];
        for io in sl.ios.iter_mut() {
            let samples = &mut io.as_mut().expect("tx received").samples;
            samples.clear();
            samples.resize(blocks, Cpx::ZERO);
        }
        for range in self.demux.iter_mut().skip(1) {
            let range = range.as_mut().expect(HOME);
            let window = (range.block - range.first) * m..(range.block + range.blocks) * m;
            range.input.clear();
            range.input.extend_from_slice(&self.composite[window]);
        }
        let first = self.demux[0].as_mut().expect(HOME);
        std::mem::swap(&mut first.input, &mut self.composite);
        sl.demux_ns = t0.elapsed().as_nanos() as u64;
        for range in &mut self.demux {
            self.pool.send(LaneWork::Demux(range.take().expect(HOME)));
        }
        sl.frame_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Receives the frame's DEMUX ranges, takes the composite back, and
    /// scatters each range's slab straight into the lanes' sample buffers
    /// (lane `k` demodulates channel `k`; inactive channels are
    /// discarded). The DEMUX time is the ranges' summed CPU time plus the
    /// engine's copy and scatter.
    fn recv_demux(&mut self, slot: usize) {
        let t0 = Instant::now();
        let m = CHANNELS;
        let sl = &mut self.slots[slot];
        let mut produced = 0;
        for (r, home) in self.demux.iter_mut().enumerate() {
            let LaneWork::Demux(mut range) = self.pool.recv() else {
                unreachable!("the pool returns items in send order");
            };
            let t_scatter = Instant::now();
            if r == 0 {
                std::mem::swap(&mut range.input, &mut self.composite);
            }
            for (k, io) in sl.ios.iter_mut().enumerate() {
                let samples = &mut io.as_mut().expect("tx received").samples[range.block..];
                for (s, out) in samples.iter_mut().zip(range.slab.chunks_exact(m)) {
                    *s = out[k];
                }
            }
            produced += range.produced;
            self.busy_ns += range.ns;
            sl.demux_ns += range.ns + t_scatter.elapsed().as_nanos() as u64;
            *home = Some(range);
        }
        // Formerly `debug_assert_eq!(produced, blocks)`, which vanished
        // in release builds and let a short composite decode zero-padded
        // garbage silently. Now it is bookkeeping that `retire` turns
        // into a counter and report field.
        sl.produced = produced;
        sl.frame_ns += t0.elapsed().as_nanos() as u64;
    }

    /// Sends each Rx half to the pool with its channel samples.
    fn send_rx(&mut self, slot: usize) {
        let t0 = Instant::now();
        let sl = &mut self.slots[slot];
        for (lane, io) in self.rx.iter_mut().zip(sl.ios.iter_mut()) {
            let io = io.take().expect("tx received");
            self.pool.send(LaneWork::Rx(lane.take().expect(HOME), io));
        }
        sl.frame_ns += t0.elapsed().as_nanos() as u64;
        if self.tel.enabled {
            let in_flight = self
                .slots
                .iter()
                .flat_map(|s| &s.ios)
                .filter(|io| io.is_none())
                .count();
            self.tel.queue_depth.set(in_flight as f64);
        }
    }

    /// Receives the frame in `slot` back from the pool, ingests CRC-clean
    /// packets into the (reused) switch serially in carrier order, folds
    /// every counter in frame order, and assembles the report into
    /// `report` (whose buffers are recycled).
    fn retire(&mut self, slot: usize, tick: u64, report: &mut ChainReport) {
        self.recv_lanes(slot);
        let t_switch = Instant::now();
        let n = self.rx.len();
        report.carriers.clear();
        report.info_bits.truncate(n);
        report.carriers.reserve(n);
        report.info_bits.reserve(n);
        let sl = &mut self.slots[slot];
        let mut busy = 0u64;
        for (k, io) in sl.ios.iter_mut().enumerate() {
            let io = io.as_mut().expect("rx received");
            let outcome = io.outcome.take().expect("lane ran");
            if !outcome.detected {
                self.stats.uw_misses += 1;
                self.tel.uw_misses.inc();
            } else if !outcome.crc_ok {
                self.stats.crc_failures += 1;
                self.tel.crc_failures.inc();
            }
            if let Some(mut pkt) = io.packet.take() {
                pkt.born_tick = tick;
                self.switch.ingress(pkt);
            }
            self.stats.tx_synth_ns += io.tx_ns;
            self.stats.demod_ns += io.demod_ns;
            self.stats.decode_ns += io.decode_ns;
            self.tel.tx_synth_ns.record(io.tx_ns);
            self.tel.demod_ns.record(io.demod_ns);
            self.tel.decode_ns.record(io.decode_ns);
            busy += io.tx_ns + io.demod_ns + io.decode_ns;
            report.carriers.push(outcome);
            // The report owns the ground-truth bits (they escape the
            // frame). Swapping them with the recycled report's old bits
            // skips the copy and hands the lane a buffer `send_tx` refills
            // in place next frame.
            match report.info_bits.get_mut(k) {
                Some(bits) => std::mem::swap(bits, &mut io.info),
                None => report.info_bits.push(std::mem::take(&mut io.info)),
            }
        }
        let switch_ns = t_switch.elapsed().as_nanos() as u64;
        self.busy_ns += busy;
        self.stats.switch_ns += switch_ns;
        self.tel.switch_ns.record(switch_ns);

        self.stats.tx_ns += sl.tx_serial_ns;
        self.tel.tx_ns.record(sl.tx_serial_ns);
        self.stats.demux_ns += sl.demux_ns;
        self.tel.demux_ns.record(sl.demux_ns);
        if sl.produced != sl.expected {
            self.stats.demux_errors += 1;
            self.tel.demux_errors.inc();
        }

        let sw_stats = self.switch.stats();
        self.stats.frames += 1;
        self.stats.composite_samples += sl.composite_len as u64;
        self.stats.packets_forwarded += sw_stats.forwarded;
        self.stats.packets_dropped_overflow += sw_stats.dropped_overflow;
        self.stats.packets_dropped_no_route += sw_stats.dropped_no_route;
        self.tel.frames.inc();
        self.tel.composite_samples.add(sl.composite_len as u64);
        self.tel.packets_forwarded.add(sw_stats.forwarded);
        self.tel
            .packets_dropped_overflow
            .add(sw_stats.dropped_overflow);
        self.tel
            .packets_dropped_no_route
            .add(sw_stats.dropped_no_route);

        report.packets_forwarded = sw_stats.forwarded;
        report.packets_dropped_overflow = sw_stats.dropped_overflow;
        report.packets_dropped_no_route = sw_stats.dropped_no_route;
        report.composite_samples = sl.composite_len;
        report.demux_produced = sl.produced;
        report.demux_expected = sl.expected;
        // Hand the filled switch to the report and keep its (reset)
        // predecessor as next frame's scratch — the queues' capacity
        // survives the swap, so steady-state ingress never allocates.
        report.switch.reset();
        std::mem::swap(&mut self.switch, &mut report.switch);

        sl.frame_ns += t_switch.elapsed().as_nanos() as u64;
        self.tel.frame_ns.record(sl.frame_ns);
    }

    fn finish_utilization(&mut self, t0: Instant) {
        if self.tel.enabled {
            let wall = t0.elapsed().as_nanos() as u64;
            if wall > 0 {
                self.tel
                    .utilization
                    .set(self.busy_ns as f64 / (wall as f64 * self.workers as f64));
            }
        }
    }

    /// The one schedule behind every run: frame `i` is seeded with
    /// `seed(i)` and retired into `reports[i]`, stamped `tick`. See the
    /// module docs for the per-frame order.
    fn run_schedule(
        &mut self,
        reports: &mut [ChainReport],
        seed: impl Fn(usize) -> u64,
        tick: u64,
    ) {
        let n = reports.len();
        if n == 0 {
            return;
        }
        let t0 = Instant::now();
        self.busy_ns = 0;
        self.send_tx(0, seed(0));
        for i in 0..n {
            self.recv_lanes(i % SLOTS);
            self.compose(i % SLOTS);
            self.send_demux(i % SLOTS);
            if i + 1 < n {
                self.send_tx((i + 1) % SLOTS, seed(i + 1));
            }
            if i > 0 {
                self.retire((i - 1) % SLOTS, tick, &mut reports[i - 1]);
            }
            self.recv_demux(i % SLOTS);
            self.send_rx(i % SLOTS);
        }
        self.retire((n - 1) % SLOTS, tick, &mut reports[n - 1]);
        self.finish_utilization(t0);
    }

    /// Runs one MF-TDMA frame; equivalent to
    /// [`crate::chain::run_mf_tdma_frame`] but reusing all per-carrier
    /// state and the worker pool.
    ///
    /// Packets leave the switch with `born_tick == 0`; a frame-clocked
    /// caller should use [`PipelineEngine::run_frame_at`] instead.
    pub fn run_frame(&mut self, seed: u64) -> ChainReport {
        self.run_frame_at(seed, 0)
    }

    /// [`PipelineEngine::run_frame`] with an explicit frame tick: every
    /// packet the switch accepts is stamped `born_tick = tick`, so a
    /// traffic layer driving the engine on its own frame clock gets
    /// end-to-end packet latency for free. The report is a pure function
    /// of `(config, seed, tick)` — the tick is an input, never read from
    /// engine state.
    pub fn run_frame_at(&mut self, seed: u64, tick: u64) -> ChainReport {
        let mut report = self.empty_report();
        self.run_frame_into(seed, tick, &mut report);
        report
    }

    /// [`PipelineEngine::run_frame_at`] into a caller-recycled report:
    /// the report's switch, outcome and ground-truth buffers are reused,
    /// so a tick loop that feeds the previous report back in runs the
    /// whole frame without heap allocation. The result is bitwise
    /// identical to a fresh [`PipelineEngine::run_frame_at`] regardless
    /// of what `report` held before.
    pub fn run_frame_into(&mut self, seed: u64, tick: u64, report: &mut ChainReport) {
        self.run_schedule(std::slice::from_mut(report), |_| seed, tick);
    }

    /// Runs `n_frames` frames, frame `i` seeded with
    /// [`frame_seed`]`(seed, i)`, and returns the per-frame reports.
    ///
    /// The frames are software-pipelined (`SLOTS` deep, see the module
    /// docs); reports are identical to running the frames one at a time.
    pub fn run_frames(&mut self, n_frames: usize, seed: u64) -> Vec<ChainReport> {
        let mut reports: Vec<ChainReport> = (0..n_frames).map(|_| self.empty_report()).collect();
        self.run_schedule(&mut reports, |i| frame_seed(seed, i), 0);
        reports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsp_dsp::resample::FarrowInterpolator;
    use gsp_modem::tdma::TimingRecoveryKind;
    use std::f64::consts::TAU;

    fn bits(v: &[Cpx]) -> Vec<(u64, u64)> {
        v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// The Tx upconversion as it was before the tables, kept as the
    /// oracle: a phase-accumulating cubic-Lagrange resampler that
    /// evaluates its weights per output sample, then a per-sample NCO.
    fn reference_upconvert(wave: &[Cpx], m: usize, k: usize) -> Vec<Cpx> {
        let mut farrow = FarrowInterpolator::new();
        let (mut next_pos, step) = (0.0, 1.0 / m as f64);
        let mut out = Vec::new();
        for &x in wave {
            farrow.push(x);
            if !farrow.ready() {
                continue;
            }
            while next_pos < 1.0 {
                let mu: f64 = next_pos;
                let c = [
                    -mu * (mu - 1.0) * (mu - 2.0) / 6.0,
                    (mu + 1.0) * (mu - 1.0) * (mu - 2.0) / 2.0,
                    -mu * (mu + 1.0) * (mu - 2.0) / 2.0,
                    mu * (mu + 1.0) * (mu - 1.0) / 6.0,
                ];
                out.push(farrow.interpolate_with(&c));
                next_pos += step;
            }
            next_pos -= 1.0;
        }
        let mut nco = Nco::from_step(TAU * k as f64 / m as f64);
        out.into_iter().map(|x| nco.mix(x)).collect()
    }

    /// An engine with every channel active, so there is a Tx lane for
    /// each carrier `k ∈ 0..M`.
    fn full_bank() -> PipelineEngine {
        let cfg = ChainConfig {
            active_carriers: CHANNELS,
            ..ChainConfig::default()
        };
        PipelineEngine::with_workers(cfg, 1)
    }

    #[test]
    fn table_synthesis_equals_resampler_and_nco() {
        let mut engine = full_bank();
        let (m, info_bits) = (CHANNELS, engine.cfg.info_bits);
        let mut io = LaneIo::with_capacity(info_bits, 0, 0);
        let mut rng = StdRng::seed_from_u64(0x7A_B1E5);
        for frame in 0..200 {
            for (k, lane) in engine.tx.iter_mut().enumerate() {
                let lane = lane.as_mut().expect(HOME);
                io.info.clear();
                io.info
                    .extend((0..info_bits).map(|_| rng.gen_range(0..2u8)));
                lane.synth(&mut io);
                let want = reference_upconvert(&lane.wave, m, k);
                assert!(
                    bits(&io.upsampled) == bits(&want),
                    "carrier {k}, frame {frame}"
                );
            }
        }
    }

    #[test]
    fn carrier_oscillators_are_exactly_periodic_over_the_burst() {
        // At step TAU·k/8 the NCO's wrapped phase returns bit-exactly to 0
        // after 8 ticks for k = 0..=6, so an 8-entry table is the whole
        // sequence. For k = 7 rounding leaves it short of 0 and the
        // sequence drifts, so that lane tabulates the full burst instead.
        // Either way the table reproduces every tick of the burst.
        let engine = full_bank();
        let m = CHANNELS;
        let burst = engine.tx[0]
            .as_ref()
            .expect(HOME)
            .upsampler
            .output_len(engine.burst_len);
        for (k, lane) in engine.tx.iter().enumerate() {
            let lo = &lane.as_ref().expect(HOME).lo;
            assert_eq!(lo.len(), if k < 7 { m } else { burst }, "carrier {k}");
            let mut nco = Nco::from_step(TAU * k as f64 / m as f64);
            let live: Vec<Cpx> = (0..burst).map(|_| nco.tick()).collect();
            let tabled: Vec<Cpx> = (0..burst).map(|n| lo[n % lo.len()]).collect();
            assert!(bits(&live) == bits(&tabled), "carrier {k}");
        }
    }

    #[test]
    fn engine_matches_itself_across_worker_counts() {
        let cfg = ChainConfig {
            esn0_db: Some(12.0),
            ..ChainConfig::default()
        };
        let mut serial = PipelineEngine::with_workers(cfg.clone(), 1);
        let mut parallel = PipelineEngine::with_workers(cfg, 6);
        for seed in [0u64, 7, 41] {
            let a = serial.run_frame(seed);
            let b = parallel.run_frame(seed);
            assert_eq!(a, b, "seed {seed}");
        }
    }

    #[test]
    fn engine_state_reuse_does_not_leak_between_frames() {
        // The same frame run twice by one engine (state reused) must match
        // a fresh engine bit for bit.
        let cfg = ChainConfig {
            esn0_db: Some(10.0),
            ..ChainConfig::default()
        };
        let mut engine = PipelineEngine::new(cfg.clone());
        let _ = engine.run_frame(3); // dirty every lane
        let again = engine.run_frame(5);
        let fresh = PipelineEngine::new(cfg).run_frame(5);
        assert_eq!(again, fresh);
    }

    #[test]
    fn pipelined_batches_match_single_frames() {
        // The SLOTS-deep pipelined schedule must be invisible in the
        // reports: a pooled batch equals the same frames run one at a
        // time on a serial engine.
        let cfg = ChainConfig {
            esn0_db: Some(10.0),
            ..ChainConfig::default()
        };
        let mut pooled = PipelineEngine::with_workers(cfg.clone(), 3);
        let batch = pooled.run_frames(7, 123);
        let mut serial = PipelineEngine::with_workers(cfg, 1);
        for (i, report) in batch.iter().enumerate() {
            assert_eq!(report, &serial.run_frame(frame_seed(123, i)), "frame {i}");
        }
    }

    #[test]
    fn run_frame_into_recycles_without_changing_results() {
        // Feeding the previous report back in (switch, outcome and bit
        // buffers reused) must be bitwise identical to fresh reports.
        let cfg = ChainConfig {
            esn0_db: Some(12.0),
            ..ChainConfig::default()
        };
        let mut engine = PipelineEngine::with_workers(cfg.clone(), 2);
        let mut recycled = engine.empty_report();
        let mut fresh_engine = PipelineEngine::with_workers(cfg, 2);
        for seed in [4u64, 9, 100, 9] {
            engine.run_frame_into(seed, 7, &mut recycled);
            let fresh = fresh_engine.run_frame_at(seed, 7);
            assert_eq!(recycled, fresh, "seed {seed}");
        }
    }

    #[test]
    fn demux_shortfall_is_surfaced_not_asserted() {
        // A DEMUX block shortfall must reach the report and the stats as
        // a real error in any build profile — the old debug_assert
        // vanished in release. The engine's own composite is always a
        // block multiple, so fake the bookkeeping the way a channelizer
        // bug would and check the plumbing end to end.
        let mut engine = PipelineEngine::with_workers(ChainConfig::default(), 1);
        let mut report = engine.empty_report();
        engine.send_tx(0, 11);
        engine.recv_lanes(0);
        engine.compose(0);
        engine.send_demux(0);
        engine.recv_demux(0);
        engine.send_rx(0);
        assert_eq!(engine.slots[0].produced, engine.slots[0].expected);
        engine.slots[0].produced -= 1; // simulate an under-producing DEMUX
        engine.retire(0, 0, &mut report);
        assert!(!report.demux_ok());
        assert!(!report.all_clean(), "demux shortfall must spoil all_clean");
        assert_eq!(report.demux_expected, report.demux_produced + 1);
        assert_eq!(engine.stats().demux_errors, 1);

        // And a healthy frame counts nothing.
        let healthy = engine.run_frame(11);
        assert!(healthy.demux_ok() && healthy.all_clean());
        assert_eq!(engine.stats().demux_errors, 1);
    }

    #[test]
    fn stats_count_frames_and_packets() {
        let cfg = ChainConfig::default(); // noiseless: everything decodes
        let mut engine = PipelineEngine::new(cfg);
        let reports = engine.run_frames(3, 11);
        let s = engine.stats();
        assert_eq!(s.frames, 3);
        assert_eq!(s.uw_misses, 0);
        assert_eq!(s.crc_failures, 0);
        assert_eq!(s.demux_errors, 0);
        assert_eq!(s.packets_forwarded, 18);
        assert_eq!(
            s.composite_samples,
            reports
                .iter()
                .map(|r| r.composite_samples as u64)
                .sum::<u64>()
        );
        assert!(s.demod_ns > 0 && s.decode_ns > 0 && s.tx_synth_ns > 0);
    }

    #[test]
    fn heavy_noise_shows_up_in_failure_counters() {
        let cfg = ChainConfig {
            esn0_db: Some(-2.0),
            ..ChainConfig::default()
        };
        let mut engine = PipelineEngine::new(cfg);
        engine.run_frames(2, 4);
        let s = engine.stats();
        assert!(
            s.uw_misses + s.crc_failures > 0,
            "noise this heavy should break bursts: {s:?}"
        );
        assert_eq!(
            s.packets_forwarded + s.crc_failures + s.uw_misses,
            s.frames * 6
        );
    }

    #[test]
    fn run_frame_at_stamps_packet_birth_ticks() {
        let mut engine = PipelineEngine::new(ChainConfig::default());
        let mut report = engine.run_frame_at(1, 42);
        let pkt = report.switch.egress(0).expect("clean frame forwards");
        assert_eq!(pkt.born_tick, 42);
        // Apart from the stamp, the report is tick-independent.
        let again = PipelineEngine::new(ChainConfig::default()).run_frame_at(1, 0);
        assert_eq!(report.carriers, again.carriers);
        assert_eq!(report.packets_forwarded, again.packets_forwarded);
    }

    #[test]
    fn injected_lane_faults_surface_and_clear() {
        // Noiseless config: absent faults, all six carriers decode clean.
        let mut engine = PipelineEngine::new(ChainConfig::default());
        let clean = engine.run_frame(21);
        assert!(clean.carriers.iter().all(|c| c.crc_ok));

        engine.inject_lane_fault(2, LaneFault::CorruptCrc);
        engine.inject_lane_fault(4, LaneFault::Stall);
        let faulty = engine.run_frame(22);
        assert!(faulty.carriers[2].detected && !faulty.carriers[2].crc_ok);
        assert!(!faulty.carriers[4].detected, "stalled lane sees nothing");
        assert_eq!(faulty.packets_forwarded, 4);
        // Watchdog view: the stalled lane's heartbeat froze after frame 1,
        // the corrupt lane kept beating and logged one CRC failure.
        assert_eq!(engine.lane_health(4).heartbeats, 1);
        assert_eq!(
            engine.lane_health(2),
            LaneHealth {
                heartbeats: 2,
                crc_failures: 1
            }
        );
        assert_eq!(engine.lane_health(99), LaneHealth::default());

        // A lane reset restores bit-exact healthy behaviour.
        engine.clear_lane_fault(2);
        engine.clear_lane_fault(4);
        let recovered = engine.run_frame(23);
        let fresh = PipelineEngine::new(ChainConfig::default()).run_frame(23);
        assert_eq!(recovered, fresh);
    }

    #[test]
    fn faults_reach_pool_workers_too() {
        // Same fault choreography, but with the lane halves stepped on
        // pool threads: a fault set between calls travels with the lane
        // and must behave exactly like the inline path.
        let mut pooled = PipelineEngine::with_workers(ChainConfig::default(), 3);
        let mut serial = PipelineEngine::with_workers(ChainConfig::default(), 1);
        for e in [&mut pooled, &mut serial] {
            e.run_frame(50);
            e.inject_lane_fault(1, LaneFault::Stall);
            e.inject_lane_fault(5, LaneFault::CorruptCrc);
        }
        assert_eq!(pooled.run_frame(51), serial.run_frame(51));
        assert_eq!(pooled.lane_health(1), serial.lane_health(1));
        assert_eq!(pooled.lane_health(5), serial.lane_health(5));
        for e in [&mut pooled, &mut serial] {
            e.clear_lane_fault(1);
            e.clear_lane_fault(5);
        }
        assert_eq!(pooled.run_frame(52), serial.run_frame(52));
        assert_eq!(pooled.lane_health(1), serial.lane_health(1));
    }

    #[test]
    fn frame_seeds_do_not_collide() {
        let mut seen = std::collections::HashSet::new();
        for i in 0..4096 {
            assert!(seen.insert(frame_seed(33, i)), "collision at frame {i}");
        }
    }

    #[test]
    fn gardner_personality_runs_through_the_engine() {
        let cfg = ChainConfig {
            timing: TimingRecoveryKind::Gardner,
            esn0_db: Some(14.0),
            ..ChainConfig::default()
        };
        let report = PipelineEngine::new(cfg).run_frame(9);
        let clean = report.carriers.iter().filter(|c| c.crc_ok).count();
        assert!(clean >= 5, "Gardner engine: {clean}/6 clean");
    }
}
