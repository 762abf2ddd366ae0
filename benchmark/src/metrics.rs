//! The metrics the benchmark emits, declared once. `BENCHMARK.json`
//! repeats this table; a test keeps the two identical.

/// One declared metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse before a change counts as a regression (`None` per layer).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

/// End-to-end metrics: host time of the closed loop, with telemetry on.
pub const END_TO_END: &[Metric] = &[
    e2e("step_p50_us", "us", "lower", 0.2),
    e2e("steps_per_s", "1/s", "higher", 0.2),
    e2e("setup_s", "s", "lower", 0.25),
];

/// Per-layer metrics of the traced pass. `ns/step` layers are means over
/// the traced round's steps; where a layer is not on a workload's path it
/// reads 0.
pub const PER_LAYER: &[Metric] = &[
    layer("bench.step_mean_ns", "ns/step", "lower"),
    layer("payload.tx_synth_ns", "ns/step", "lower"),
    layer("payload.tx_serial_ns", "ns/step", "lower"),
    layer("payload.demux_ns", "ns/step", "lower"),
    layer("payload.demod_ns", "ns/step", "lower"),
    layer("payload.decode_ns", "ns/step", "lower"),
    layer("payload.switch_ns", "ns/step", "lower"),
    layer("payload.unattributed_ns", "ns/step", "lower"),
    layer("payload.composite_samples", "count/step", "higher"),
    layer("traffic.frame_ns", "ns/step", "lower"),
    layer("constellation.shard_busy_ns", "ns/step", "lower"),
    layer("constellation.coordinator_ns", "ns/step", "lower"),
    layer("constellation.unattributed_ns", "ns/step", "lower"),
    layer("fdir.harness_step_ns", "ns/step", "lower"),
    layer("waveform.cdma_tick_ns", "ns/step", "lower"),
    layer("waveform.mftdma_tick_ns", "ns/step", "lower"),
    layer("waveform.window_tick_ns", "ns/step", "lower"),
    layer("waveform.command_swap_ns", "ns/step", "lower"),
    layer("waveform.unattributed_ns", "ns/step", "lower"),
    layer("waveform.controller_new_ns", "ns/call", "lower"),
    layer("waveform.trials", "count/step", "lower"),
    layer("waveform.replayed_frames", "count/step", "lower"),
    layer("kernels.viterbi_ns", "ns/call", "lower"),
    layer("kernels.fft_ns", "ns/call", "lower"),
    layer("kernels.dot_real_ns", "ns/call", "lower"),
    layer("kernels.corr_energy_ns", "ns/call", "lower"),
    layer("kernels.turbo_ns", "ns/call", "lower"),
    layer("modem.cdma_tx_ns", "ns/call", "lower"),
    layer("modem.cdma_rx_ns", "ns/call", "lower"),
    layer("fdir.injected", "count/step", "lower"),
    layer("fdir.detections", "count/step", "higher"),
    layer("fdir.uplink_sessions", "count/step", "lower"),
    layer("fdir.uplink_retransmissions", "count/step", "lower"),
    layer("traffic.offered", "count/step", "higher"),
    layer("traffic.delivered", "count/step", "higher"),
    layer("traffic.dropped", "count/step", "lower"),
    layer("isl.packets", "count/step", "higher"),
    layer("isl.dropped", "count/step", "lower"),
    layer("telemetry.overhead_ns", "ns/step", "lower"),
    layer("bench.step_p99_us", "us", "lower"),
    layer("bench.trace_overhead_ratio", "ratio", "lower"),
    layer("bench.round_spread", "ratio", "lower"),
    layer("sim.burst_fail_ratio", "ratio", "lower"),
    layer("sim.pkt_drop_ratio", "ratio", "lower"),
    layer("sim.voice_drop_ratio", "ratio", "lower"),
    layer("sim.swap_interruption_ms_p50", "ms", "lower"),
    layer("sim.swap_ok_ratio", "ratio", "higher"),
    layer("sim.fdir_availability", "ratio", "higher"),
];

/// Median of `v` (mean of the middle pair for even lengths); 0 when empty.
pub fn median(v: &[f64]) -> f64 {
    quantile(v, 0.5)
}

/// Linear-interpolated quantile `q` in `0..=1` of `v`; 0 when empty.
pub fn quantile(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}
