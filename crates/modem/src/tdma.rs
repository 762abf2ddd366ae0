//! The MF-TDMA burst modem — the paper's *target* personality for the
//! waveform reconfiguration of Fig. 3 (CDMA acquisition/tracking/despreading
//! replaced by timing recovery; matched filter and carrier recovery reused).

use crate::carrier::{derotate, frequency_estimate_da, viterbi_viterbi_qpsk};
use crate::framing::{detect_unique_word_with, BurstFormat, UwDetection};
use crate::timing::{GardnerLoop, OerderMeyrEstimator};
use gsp_dsp::filter::FirKernel;
use gsp_dsp::kernels::{self, CpxKernelHandle};
use gsp_dsp::measure::snr_estimate_m2m4;
use gsp_dsp::pulse::{shape_symbols, RrcPulse};
use gsp_dsp::Cpx;
use gsp_telemetry::{Counter, Registry};

/// Which timing-recovery scheme the demodulator personality uses.
///
/// The paper (§2.3): "the timing recovery can be either the detector
/// detailed in \[5\] or the estimator of \[6\] depending on the stream to be
/// demodulated (length of the bursts in the TDMA frame)".
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TimingRecoveryKind {
    /// Gardner feedback loop (ref \[5\]) — long bursts / continuous.
    Gardner,
    /// Oerder–Meyr feed-forward estimator (ref \[6\]) — short bursts.
    OerderMeyr,
}

/// Samples per symbol (≥ 3 for Oerder–Meyr).
const SPS: usize = 4;
/// RRC roll-off.
const ROLLOFF: f64 = 0.35;
/// RRC half-span in symbols.
const SPAN: usize = 8;
/// UW detection threshold on normalised correlation.
const UW_THRESHOLD: f64 = 0.55;

/// Static configuration of the TDMA burst modem.
#[derive(Clone, Debug)]
pub struct TdmaConfig {
    /// Burst layout.
    pub format: BurstFormat,
    /// Timing-recovery selection.
    pub timing: TimingRecoveryKind,
    /// Gardner normalised loop bandwidth.
    pub loop_bw: f64,
}

impl TdmaConfig {
    /// A sensible default configuration for the given burst format.
    pub fn new(format: BurstFormat, timing: TimingRecoveryKind) -> Self {
        TdmaConfig {
            format,
            timing,
            loop_bw: 0.02,
        }
    }
}

/// The symbol pulse: RRC at [`ROLLOFF`] over ±[`SPAN`] symbols.
fn rrc_kernel() -> FirKernel {
    RrcPulse::new(ROLLOFF, SPS, SPAN).kernel()
}

/// Burst modulator: payload bits → RRC-shaped complex baseband.
#[derive(Clone, Debug)]
pub struct TdmaBurstModulator {
    config: TdmaConfig,
    kernel: FirKernel,
}

impl TdmaBurstModulator {
    /// Builds the modulator (designs the pulse once).
    pub fn new(config: TdmaConfig) -> Self {
        let kernel = rrc_kernel();
        TdmaBurstModulator { config, kernel }
    }

    /// The configuration.
    pub fn config(&self) -> &TdmaConfig {
        &self.config
    }

    /// Modulates one burst of payload bits into baseband samples.
    pub fn modulate(&self, payload_bits: &[u8]) -> Vec<Cpx> {
        let mut syms = Vec::new();
        let mut out = Vec::new();
        self.modulate_into(payload_bits, &mut syms, &mut out);
        out
    }

    /// Modulates one burst into caller-held buffers: `syms` is symbol-
    /// assembly scratch, `out` receives the waveform. Both are cleared
    /// first; reused buffers of sufficient capacity make repeated calls
    /// allocation-free.
    pub fn modulate_into(&self, payload_bits: &[u8], syms: &mut Vec<Cpx>, out: &mut Vec<Cpx>) {
        self.config.format.assemble_into(payload_bits, syms);
        out.clear();
        shape_symbols(syms, &self.kernel, SPS, out);
    }
}

/// Everything the demodulator learned about one burst.
///
/// `Default` builds an empty result suitable as the reusable output slot
/// of [`TdmaBurstDemodulator::demodulate_into`].
#[derive(Clone, Debug, Default)]
pub struct TdmaDemodResult {
    /// Hard-decided payload bits.
    pub bits: Vec<u8>,
    /// Soft payload LLRs (positive ⇔ bit 0), scaled by the estimated SNR.
    pub llrs: Vec<f64>,
    /// Phase-corrected payload symbols.
    pub symbols: Vec<Cpx>,
    /// The unique-word detection used for alignment.
    pub uw: UwDetection,
    /// Residual carrier-frequency estimate from the UW, radians/symbol.
    pub freq_offset: f64,
    /// Blind SNR estimate over the payload (linear), if computable.
    pub snr_estimate: Option<f64>,
}

/// Acquisition counters of the burst demodulator (no-op until
/// [`TdmaBurstDemodulator::set_telemetry`] is called). Counters are
/// atomic sums, so lanes demodulating on parallel workers share them
/// without affecting any demodulation result.
#[derive(Clone, Debug, Default)]
struct TdmaDemodTelemetry {
    /// Bursts offered to the demodulator.
    bursts: Counter,
    /// Bursts whose unique word was not found (or arrived truncated).
    uw_miss: Counter,
    /// Bursts acquired (UW found, payload complete).
    detected: Counter,
}

/// Burst demodulator: matched filter → timing recovery → UW sync → phase
/// correction → (soft) decisions.
#[derive(Clone, Debug)]
pub struct TdmaBurstDemodulator {
    config: TdmaConfig,
    matched: FirKernel,
    // Reused buffers (hot path: one call per slot per carrier per frame).
    /// Zero-padded matched-filter input.
    padded: Vec<Cpx>,
    filtered: Vec<Cpx>,
    symbol_buf: Vec<Cpx>,
    /// Pass-1 (static-phase) corrected payload symbols.
    static_buf: Vec<Cpx>,
    /// Pass-2 (frequency-ramp + V&V) corrected payload symbols.
    ramp_buf: Vec<Cpx>,
    tel: TdmaDemodTelemetry,
    /// Compute-kernel backend for the UW correlator (the matched filter
    /// carries its own matching handle).
    kernels: CpxKernelHandle,
}

impl TdmaBurstDemodulator {
    /// Builds the demodulator for the given configuration, using the
    /// process-wide kernel backend selection.
    pub fn new(config: TdmaConfig) -> Self {
        Self::with_kernels(config, kernels::active())
    }

    /// Builds the demodulator pinned to a specific compute-kernel backend
    /// handle (matched filter MAC + UW correlator) — the per-instance
    /// override used by cross-backend tests and benches.
    pub fn with_kernels(config: TdmaConfig, kernels: CpxKernelHandle) -> Self {
        let matched = rrc_kernel().with_kernels(kernels);
        TdmaBurstDemodulator {
            config,
            matched,
            padded: Vec::new(),
            filtered: Vec::new(),
            symbol_buf: Vec::new(),
            static_buf: Vec::new(),
            ramp_buf: Vec::new(),
            tel: TdmaDemodTelemetry::default(),
            kernels,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &TdmaConfig {
        &self.config
    }

    /// Registers the acquisition counters `modem.tdma.bursts`,
    /// `modem.tdma.uw_miss` and `modem.tdma.detected` on `registry`.
    /// Metrics are observed, never consulted: demodulation results are
    /// identical with or without telemetry.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.tel = TdmaDemodTelemetry {
            bursts: registry.counter("modem.tdma.bursts"),
            uw_miss: registry.counter("modem.tdma.uw_miss"),
            detected: registry.counter("modem.tdma.detected"),
        };
    }

    /// Phase-drift metric: total Viterbi&Viterbi phase movement across
    /// payload quarters (radians). Near zero for a well-corrected burst;
    /// grows with an uncorrected frequency ramp. Returns 0 for bursts too
    /// short to measure (they cannot accumulate meaningful ramp either).
    fn vv_drift(symbols: &[Cpx]) -> f64 {
        const QUARTERS: usize = 4;
        let q = symbols.len() / QUARTERS;
        if q < 12 {
            return 0.0;
        }
        let thetas: [f64; QUARTERS] =
            std::array::from_fn(|i| viterbi_viterbi_qpsk(&symbols[i * q..(i + 1) * q]));
        // Consecutive diffs wrapped into the π/2-ambiguous band, summed.
        let quarter_band = std::f64::consts::FRAC_PI_2;
        thetas
            .windows(2)
            .map(|w| {
                let mut d = (w[1] - w[0]) % quarter_band;
                if d > quarter_band / 2.0 {
                    d -= quarter_band;
                } else if d < -quarter_band / 2.0 {
                    d += quarter_band;
                }
                d
            })
            .sum::<f64>()
            .abs()
    }

    /// Decision-quality metric: mean squared distance from each payload
    /// symbol to its nearest QPSK point (error-vector magnitude). Unlike
    /// [`Self::vv_drift`], which compares a handful of noisy fourth-power
    /// phase estimates, this averages over every payload symbol, so at low
    /// SNR it still separates a well-corrected burst from one corrupted by
    /// a residual ramp or a bad fine-tracking pass.
    fn evm(symbols: &[Cpx]) -> f64 {
        if symbols.is_empty() {
            return 0.0;
        }
        let a = std::f64::consts::FRAC_1_SQRT_2;
        symbols
            .iter()
            .map(|s| {
                let d = Cpx::new(a * s.re.signum(), a * s.im.signum());
                (*s - d).norm_sqr()
            })
            .sum::<f64>()
            / symbols.len() as f64
    }

    /// Pass 1: payload symbols corrected by the UW correlation phase only,
    /// written into the caller's reusable buffer.
    fn correct_static(
        symbol_buf: &[Cpx],
        uw: &UwDetection,
        start: usize,
        end: usize,
        out: &mut Vec<Cpx>,
    ) {
        out.clear();
        out.extend_from_slice(&symbol_buf[start..end]);
        derotate(out, uw.phase);
    }

    /// Pass 2: data-aided frequency ramp (second preamble half + UW) plus
    /// anchored blockwise Viterbi&Viterbi fine tracking. Writes the
    /// corrected payload into the caller's reusable buffer and returns the
    /// frequency estimate (rad/symbol).
    fn correct_ramp_vv(
        cfg: &TdmaConfig,
        symbol_buf: &[Cpx],
        uw: &UwDetection,
        start: usize,
        end: usize,
        out: &mut Vec<Cpx>,
    ) -> f64 {
        let payload_start = start;
        // Frequency reference: the settled second half of the preamble
        // (the first half sits inside the matched-filter warm-up)
        // concatenated with the UW.
        let half_pre = cfg.format.preamble_len / 2;
        let (df, n_known) = if uw.position >= half_pre {
            let preamble = cfg.format.preamble_symbols();
            let mut reference = preamble[preamble.len() - half_pre..].to_vec();
            reference.extend_from_slice(&cfg.format.unique_word);
            let known_rx = &symbol_buf[uw.position - half_pre..payload_start];
            (frequency_estimate_da(known_rx, &reference), known_rx.len())
        } else {
            let uw_rx = &symbol_buf[uw.position..payload_start];
            (
                frequency_estimate_da(uw_rx, &cfg.format.unique_word),
                uw_rx.len(),
            )
        };
        // Significance gate: a frequency estimate from N known symbols at
        // linear SNR ρ cannot beat the Cramer-Rao bound
        // σ_df = sqrt(12 / (ρ·N·(N²−1))) rad/symbol. An estimate inside
        // ~2σ of zero is indistinguishable from estimator noise, and
        // extrapolating it across a payload hundreds of symbols long does
        // more damage than the (unmeasurably small) offset it might fix —
        // so treat it as zero. A blind M2M4 estimate supplies ρ; `None`
        // means "no measurable noise", where the gate must stay open.
        let rho = snr_estimate_m2m4(&symbol_buf[start..end]).unwrap_or(f64::INFINITY);
        let n = n_known as f64;
        let sigma_df = (12.0 / (rho * n * (n * n - 1.0))).sqrt();
        let df = if df.abs() < 2.0 * sigma_df { 0.0 } else { df };
        // Ramp removal, phase-continuous from the UW midpoint where the
        // correlation-phase anchor lives.
        let uw_mid = (cfg.format.unique_word.len() as f64 - 1.0) / 2.0;
        out.clear();
        out.extend_from_slice(&symbol_buf[start..end]);
        let symbols: &mut [Cpx] = out;
        for (k, s) in symbols.iter_mut().enumerate() {
            let n = cfg.format.unique_word.len() as f64 - uw_mid + k as f64;
            *s = s.rotate(-(uw.phase + df * n));
        }
        // Fine tracking: blockwise V&V phases, unwrapped across the π/2
        // ambiguity from block to block, then least-squares fitted to a
        // line over the whole payload. The fitted slope absorbs the
        // residual frequency error left by the short data-aided estimate
        // (whose noise near the Cramer-Rao bound can reach ~1e-2
        // rad/symbol at low SNR — several radians of drift over a burst),
        // while per-block estimator noise is averaged by the fit instead
        // of being applied verbatim. Independent per-block corrections —
        // the previous scheme — random-walk at low SNR and can destroy an
        // otherwise clean burst with block-boundary phase jumps.
        // Below ~7 dB the fourth-power estimator crosses its threshold
        // region: block-phase noise grows past the π/4 unwrap branch
        // spacing and the fit chases estimator noise instead of carrier
        // phase, so the fine stage is disabled there.
        const VV_BLOCK: usize = 32;
        const VV_MIN_SNR: f64 = 5.0;
        let n_blocks = symbols.len() / VV_BLOCK;
        let mut df_fine = 0.0;
        if n_blocks >= 2 && rho >= VV_MIN_SNR {
            let mut centres = Vec::with_capacity(n_blocks);
            let mut thetas = Vec::with_capacity(n_blocks);
            let mut prev = 0.0f64;
            for b in 0..n_blocks {
                let s = b * VV_BLOCK;
                let e = if b + 1 == n_blocks {
                    symbols.len()
                } else {
                    s + VV_BLOCK
                };
                let mut th = viterbi_viterbi_qpsk(&symbols[s..e]);
                // Unwrap onto the branch nearest the previous block: valid
                // while the true inter-block step stays below π/4, i.e.
                // |residual df| < π/(4·VV_BLOCK) ≈ 0.05 rad/symbol — well
                // above the short estimator's error spread.
                while th - prev > std::f64::consts::FRAC_PI_4 {
                    th -= std::f64::consts::FRAC_PI_2;
                }
                while prev - th > std::f64::consts::FRAC_PI_4 {
                    th += std::f64::consts::FRAC_PI_2;
                }
                centres.push((s + e - 1) as f64 / 2.0);
                thetas.push(th);
                prev = th;
            }
            let n = n_blocks as f64;
            let c_mean = centres.iter().sum::<f64>() / n;
            let t_mean = thetas.iter().sum::<f64>() / n;
            let (mut num, mut den) = (0.0, 0.0);
            for (c, t) in centres.iter().zip(&thetas) {
                num += (c - c_mean) * (t - t_mean);
                den += (c - c_mean) * (c - c_mean);
            }
            let slope = if den > 0.0 { num / den } else { 0.0 };
            for (k, s) in symbols.iter_mut().enumerate() {
                *s = s.rotate(-(t_mean + slope * (k as f64 - c_mean)));
            }
            df_fine = slope;
        } else if symbols.len() >= 8 && rho >= VV_MIN_SNR {
            let theta = viterbi_viterbi_qpsk(symbols)
                .clamp(-std::f64::consts::FRAC_PI_6, std::f64::consts::FRAC_PI_6);
            derotate(symbols, theta);
        }
        df + df_fine
    }

    /// Demodulates one received burst (four samples per symbol).
    ///
    /// Returns `None` when the unique word is not found — a missed burst.
    /// Allocates the result; steady-state callers should prefer
    /// [`TdmaBurstDemodulator::demodulate_into`].
    pub fn demodulate(&mut self, samples: &[Cpx]) -> Option<TdmaDemodResult> {
        let mut out = TdmaDemodResult::default();
        self.demodulate_into(samples, &mut out).then_some(out)
    }

    /// Demodulates one received burst into a caller-held result, reusing
    /// its buffers; returns `false` (leaving `out` unspecified) when the
    /// unique word is not found.
    ///
    /// This is the allocation-free entry point: all intermediate storage
    /// (matched-filter output, symbol stream, both carrier-correction
    /// passes) lives in the demodulator, and `out`'s vectors are cleared
    /// and refilled in place, so steady-state demodulation of same-format
    /// bursts touches the heap only on the cold frequency-ramp fallback
    /// path. Results are bitwise identical to
    /// [`TdmaBurstDemodulator::demodulate`].
    pub fn demodulate_into(&mut self, samples: &[Cpx], out: &mut TdmaDemodResult) -> bool {
        self.tel.bursts.inc();
        let cfg = &self.config;
        // 1. Matched filter. Trailing zeros flush the full convolution
        //    tail so a burst whose end coincides with the slot edge (or
        //    lost a few samples to channel interpolation) keeps its last
        //    symbols observable.
        let tail = self.matched.len();
        self.matched
            .filter_block(samples, tail, &mut self.padded, &mut self.filtered);

        // 2. Timing recovery → symbol-rate stream.
        self.symbol_buf.clear();
        match cfg.timing {
            TimingRecoveryKind::Gardner => {
                let mut tr = GardnerLoop::new(SPS as f64, cfg.loop_bw);
                tr.process(&self.filtered, &mut self.symbol_buf);
            }
            TimingRecoveryKind::OerderMeyr => {
                let est = OerderMeyrEstimator::new(SPS);
                let tau = est.estimate(&self.filtered);
                est.extract(&self.filtered, tau, &mut self.symbol_buf);
            }
        }

        // 3. Unique-word sync (position + unambiguous phase).
        let Some(uw) = detect_unique_word_with(
            &self.symbol_buf,
            &cfg.format.unique_word,
            UW_THRESHOLD,
            self.kernels,
        ) else {
            self.tel.uw_miss.inc();
            return false;
        };
        let payload_start = uw.position + cfg.format.unique_word.len();
        let payload_end = payload_start + cfg.format.payload_len;
        if payload_end > self.symbol_buf.len() {
            self.tel.uw_miss.inc();
            return false; // truncated burst
        }

        // 4. Carrier correction — two-pass:
        //
        //    Pass 1 applies only the UW correlation phase (static). With
        //    zero residual CFO this is BER-optimal: any frequency estimate
        //    from the short known-symbol run carries noise near the
        //    Cramer-Rao bound (~4e-3 rad/symbol at 12 dB for 36 symbols),
        //    which extrapolated across a long payload costs more than it
        //    saves.
        //
        //    If pass 1's payload shows V&V phase drift across its quarters
        //    (the signature of an uncorrected frequency ramp — modulus-
        //    based SNR metrics are blind to it), pass 2 re-runs with the
        //    data-aided frequency ramp (second preamble half + UW, long-
        //    lag estimator) plus anchored blockwise Viterbi&Viterbi fine
        //    tracking, and the better-scoring pass wins.
        Self::correct_static(
            &self.symbol_buf,
            &uw,
            payload_start,
            payload_end,
            &mut self.static_buf,
        );
        let (use_ramp, df) = if Self::vv_drift(&self.static_buf) < 0.25 {
            (false, 0.0)
        } else {
            let df = Self::correct_ramp_vv(
                &self.config,
                &self.symbol_buf,
                &uw,
                payload_start,
                payload_end,
                &mut self.ramp_buf,
            );
            // The winner is decided on decision quality (EVM over the
            // whole payload), not on the drift metric: at low SNR the
            // four-point drift estimate is noisy enough to hand a
            // clean static burst to a mis-estimated ramp correction.
            if Self::evm(&self.ramp_buf) < Self::evm(&self.static_buf) {
                (true, df)
            } else {
                (false, 0.0)
            }
        };
        let symbols: &[Cpx] = if use_ramp {
            &self.ramp_buf
        } else {
            &self.static_buf
        };

        // 5. Decisions. LLR scaling from a blind SNR estimate (falls back
        //    to unit noise variance when the estimator is inconsistent).
        let snr = snr_estimate_m2m4(symbols);
        let sigma2 = snr.map_or(0.5, |s| 0.5 / s).max(1e-6);
        let fmt = &self.config.format;
        out.bits.clear();
        fmt.modulation.demap_hard(symbols, &mut out.bits);
        out.llrs.clear();
        fmt.modulation.demap_soft(symbols, sigma2, &mut out.llrs);
        out.symbols.clear();
        out.symbols.extend_from_slice(symbols);
        out.uw = uw;
        out.freq_offset = df;
        out.snr_estimate = snr;

        self.tel.detected.inc();
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsp_channel::awgn::AwgnChannel;
    use gsp_channel::impairments::{PhaseOffset, TimingOffset};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn format() -> BurstFormat {
        BurstFormat::standard(24, 24, 200)
    }

    fn run_burst(
        timing: TimingRecoveryKind,
        ebn0_db: Option<f64>,
        phase: f64,
        frac_delay: f64,
        seed: u64,
    ) -> (Vec<u8>, Option<TdmaDemodResult>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let fmt = format();
        let cfg = TdmaConfig::new(fmt.clone(), timing);
        let modulator = TdmaBurstModulator::new(cfg.clone());
        let mut demod = TdmaBurstDemodulator::new(cfg);
        let bits: Vec<u8> = (0..fmt.payload_bits())
            .map(|_| rng.gen_range(0..2u8))
            .collect();
        let mut tx = modulator.modulate(&bits);
        if phase != 0.0 {
            PhaseOffset::new(phase).apply(&mut tx);
        }
        let mut rx = Vec::new();
        if frac_delay > 0.0 {
            let mut t = TimingOffset::new(frac_delay);
            t.apply(&tx, &mut rx);
        } else {
            rx = tx;
        }
        if let Some(db) = ebn0_db {
            // With a unit-energy RRC pulse the matched-filter output symbol
            // amplitude is 1 and per-sample noise variance is preserved, so
            // the symbol-level Es/N0 equals the per-sample calibration here.
            let esn0_db = db + 3.01; // QPSK: Es = 2·Eb
            let mut ch = AwgnChannel::from_esn0_db(esn0_db);
            ch.apply(&mut rx, &mut rng);
        }
        (bits, demod.demodulate(&rx))
    }

    #[test]
    fn clean_burst_roundtrip_both_timing_schemes() {
        for timing in [TimingRecoveryKind::Gardner, TimingRecoveryKind::OerderMeyr] {
            let (bits, res) = run_burst(timing, None, 0.0, 0.0, 1);
            let res = res.unwrap_or_else(|| panic!("{timing:?}: no UW"));
            assert_eq!(res.bits, bits, "{timing:?}");
            assert!(res.uw.magnitude > 0.95);
        }
    }

    #[test]
    fn survives_phase_rotation() {
        for &theta in &[0.4, 1.3, -2.0, 3.0] {
            let (bits, res) = run_burst(TimingRecoveryKind::OerderMeyr, None, theta, 0.0, 2);
            let res = res.expect("UW");
            assert_eq!(res.bits, bits, "theta {theta}");
        }
    }

    #[test]
    fn survives_fractional_timing_offset() {
        for &mu in &[0.2, 0.5, 0.8] {
            for timing in [TimingRecoveryKind::Gardner, TimingRecoveryKind::OerderMeyr] {
                let (bits, res) = run_burst(timing, None, 0.7, mu, 3);
                let res = res.unwrap_or_else(|| panic!("{timing:?} mu {mu}: no UW"));
                assert_eq!(res.bits, bits, "{timing:?} mu {mu}");
            }
        }
    }

    #[test]
    fn noisy_burst_low_error_rate() {
        // At a healthy Eb/N0 the burst demodulates with few or no errors.
        let mut total_err = 0usize;
        let mut total = 0usize;
        for seed in 0..10 {
            let (bits, res) = run_burst(TimingRecoveryKind::OerderMeyr, Some(9.0), 0.5, 0.3, seed);
            if let Some(r) = res {
                total_err += r.bits.iter().zip(&bits).filter(|(a, b)| a != b).count();
                total += bits.len();
            }
        }
        assert!(total > 0, "all bursts missed");
        let ber = total_err as f64 / total as f64;
        assert!(ber < 0.01, "BER {ber}");
    }

    #[test]
    fn survives_carrier_frequency_offset() {
        // A residual CFO rotates the constellation during the burst; the
        // UW-aided frequency estimate must take it out. 1e-3 of the symbol
        // rate over a 248-symbol burst is ~1.5 rad of accumulated phase.
        use gsp_channel::impairments::FrequencyOffset;
        let mut rng = StdRng::seed_from_u64(17);
        let fmt = format();
        let cfg = TdmaConfig::new(fmt.clone(), TimingRecoveryKind::OerderMeyr);
        let modulator = TdmaBurstModulator::new(cfg.clone());
        let mut demod = TdmaBurstDemodulator::new(cfg);
        for &df_symbol in &[1e-3f64, -2e-3, 4e-3] {
            let bits: Vec<u8> = (0..fmt.payload_bits())
                .map(|_| rng.gen_range(0..2u8))
                .collect();
            let mut wave = modulator.modulate(&bits);
            // rad/symbol → cycles/sample at sps=4.
            let mut cfo = FrequencyOffset::new(df_symbol / std::f64::consts::TAU / 4.0, 1.0);
            cfo.apply(&mut wave);
            let res = demod
                .demodulate(&wave)
                .unwrap_or_else(|| panic!("CFO {df_symbol}: missed burst"));
            assert_eq!(res.bits, bits, "CFO {df_symbol}");
            // Small offsets are legitimately absorbed by the static pass
            // (freq_offset stays 0); larger ones must engage pass 2 and
            // the estimate must be accurate.
            if df_symbol.abs() >= 2e-3 {
                assert!(
                    (res.freq_offset - df_symbol).abs() < 3e-4,
                    "CFO {df_symbol}: estimated {}",
                    res.freq_offset
                );
            }
        }
    }

    #[test]
    fn missed_uw_returns_none() {
        let fmt = format();
        let cfg = TdmaConfig::new(fmt, TimingRecoveryKind::OerderMeyr);
        let mut demod = TdmaBurstDemodulator::new(cfg);
        // Feed pure noise.
        let mut rng = StdRng::seed_from_u64(99);
        let mut ch = AwgnChannel::from_esn0_db(0.0);
        let mut noise = vec![Cpx::ZERO; 2048];
        ch.apply(&mut noise, &mut rng);
        assert!(demod.demodulate(&noise).is_none());
    }

    #[test]
    fn snr_estimate_tracks_noise_level() {
        let (_, res_clean) = run_burst(TimingRecoveryKind::OerderMeyr, Some(15.0), 0.0, 0.0, 5);
        let (_, res_noisy) = run_burst(TimingRecoveryKind::OerderMeyr, Some(6.0), 0.0, 0.0, 5);
        let clean = res_clean.unwrap().snr_estimate.unwrap_or(f64::INFINITY);
        let noisy = res_noisy.unwrap().snr_estimate.unwrap_or(0.0);
        assert!(clean > noisy, "clean {clean} vs noisy {noisy}");
    }
}
