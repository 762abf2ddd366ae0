//! The S-UMTS CDMA modem — the *source* personality of the paper's Fig. 3
//! reconfiguration.
//!
//! Transmit: QPSK data symbols spread by an OVSF channelisation code and a
//! complex scrambling sequence at 2.048 Mcps (the paper's S-UMTS chip
//! rate), RRC-shaped with the UMTS roll-off 0.22.
//!
//! Receive, in the three blocks of Fig. 3 that the TDMA swap removes:
//! * **Acquisition** (ref \[7\], De Gaudenzi et al.): serial search over code
//!   phase with coherent correlation over a pilot window and a threshold
//!   test;
//! * **Tracking** (ref \[8\]): non-coherent early–late delay-locked loop at
//!   ±½ chip;
//! * **Despreading**: integrate-and-dump over the spreading factor,
//!   pilot-aided carrier-phase correction.

use crate::carrier::{data_aided_phase, derotate};
use crate::psk::Modulation;
use gsp_dsp::codes::{OvsfTree, ScramblingCode};
use gsp_dsp::filter::FirKernel;
use gsp_dsp::measure::snr_estimate_m2m4;
use gsp_dsp::pulse::{shape_symbols, RrcPulse};
use gsp_dsp::Cpx;
use gsp_telemetry::{Counter, Registry};

/// Chip rate in chips/s (paper: 2.048 Mcps for S-UMTS).
const CHIP_RATE: f64 = 2.048e6;
/// Samples per chip.
const SPS: usize = 4;
/// RRC roll-off (UMTS: 0.22).
const ROLLOFF: f64 = 0.22;
/// RRC half-span in chips.
const SPAN: usize = 6;
/// Known pilot symbols prepended to each burst.
const PILOT_LEN: usize = 16;

/// Static CDMA waveform parameters.
#[derive(Clone, Debug)]
pub struct CdmaConfig {
    /// Spreading factor (chips per symbol).
    pub sf: usize,
    /// OVSF code index at this SF.
    pub ovsf_index: usize,
    /// Scrambling-code number (selects the user/cell sequence).
    pub scrambling: u64,
    /// Payload symbols per burst.
    pub payload_len: usize,
}

impl CdmaConfig {
    /// S-UMTS-flavoured defaults: 2.048 Mcps, roll-off 0.22, 4 samples per
    /// chip, 16 pilot symbols.
    pub fn sumts(sf: usize, ovsf_index: usize, payload_len: usize) -> Self {
        CdmaConfig {
            sf,
            ovsf_index,
            scrambling: 42,
            payload_len,
        }
    }

    /// Symbol rate in symbols/s.
    pub fn symbol_rate(&self) -> f64 {
        CHIP_RATE / self.sf as f64
    }

    /// Information bit rate for QPSK payload (bits/s).
    pub fn bitrate(&self) -> f64 {
        self.symbol_rate() * 2.0
    }

    /// Burst length in symbols (pilot + payload).
    pub fn burst_symbols(&self) -> usize {
        PILOT_LEN + self.payload_len
    }

    /// Burst length in chips.
    pub fn burst_chips(&self) -> usize {
        self.burst_symbols() * self.sf
    }

    /// Payload capacity in bits.
    pub fn payload_bits(&self) -> usize {
        self.payload_len * 2
    }

    /// The known pilot symbol sequence (constant diagonal QPSK points).
    pub fn pilot_symbols(&self) -> Vec<Cpx> {
        let a = std::f64::consts::FRAC_1_SQRT_2;
        vec![Cpx::new(a, a); PILOT_LEN]
    }

    /// Generates the burst's combined spreading sequence
    /// (OVSF × complex scrambling), one unit-modulus chip per entry.
    pub fn spreading_chips(&self) -> Vec<Cpx> {
        let ovsf = OvsfTree::code(self.sf, self.ovsf_index);
        let mut scr = ScramblingCode::new(self.scrambling);
        let a = std::f64::consts::FRAC_1_SQRT_2;
        (0..self.burst_chips())
            .map(|i| {
                let (ci, cq) = scr.next_chip();
                let s = Cpx::new(a * ci as f64, a * cq as f64);
                s.scale(ovsf[i % self.sf] as f64)
            })
            .collect()
    }
}

/// The chip pulse: RRC at [`ROLLOFF`] over ±[`SPAN`] chips.
fn rrc_kernel() -> FirKernel {
    RrcPulse::new(ROLLOFF, SPS, SPAN).kernel()
}

/// CDMA transmitter.
#[derive(Clone, Debug)]
pub struct CdmaTransmitter {
    config: CdmaConfig,
    kernel: FirKernel,
    chips: Vec<Cpx>,
}

impl CdmaTransmitter {
    /// Builds the transmitter (pulse + spreading sequence designed once).
    pub fn new(config: CdmaConfig) -> Self {
        let kernel = rrc_kernel();
        let chips = config.spreading_chips();
        CdmaTransmitter {
            config,
            kernel,
            chips,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CdmaConfig {
        &self.config
    }

    /// Spreads and shapes one burst of payload bits.
    pub fn transmit(&self, payload_bits: &[u8]) -> Vec<Cpx> {
        assert_eq!(payload_bits.len(), self.config.payload_bits());
        let mut symbols = self.config.pilot_symbols();
        Modulation::Qpsk.map(payload_bits, &mut symbols);
        // Chip stream: symbol × combined code, at unit chip power
        // (Es = SF·Ec; the receiver's integrate-and-dump renormalises).
        let mut chip_stream = Vec::with_capacity(self.config.burst_chips());
        for (m, s) in symbols.iter().enumerate() {
            for k in 0..self.config.sf {
                chip_stream.push(*s * self.chips[m * self.config.sf + k]);
            }
        }
        let mut out = Vec::new();
        shape_symbols(&chip_stream, &self.kernel, SPS, &mut out);
        out
    }
}

/// Result of the code-acquisition search.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Acquisition {
    /// Sample offset of chip 0 in the (matched-filtered) input.
    pub sample_offset: usize,
    /// Peak-to-noise-floor power ratio at the detected offset (CFAR-style
    /// decision variable — spreading operates at negative chip SNR, so an
    /// energy-normalised correlation would saturate uselessly).
    pub metric: f64,
}

/// Demodulated CDMA burst.
#[derive(Clone, Debug)]
pub struct CdmaDemodResult {
    /// Hard payload bits.
    pub bits: Vec<u8>,
    /// Soft payload LLRs.
    pub llrs: Vec<f64>,
    /// Phase-corrected payload symbols.
    pub symbols: Vec<Cpx>,
    /// The acquisition that anchored despreading.
    pub acquisition: Acquisition,
    /// Pilot-aided phase estimate (radians).
    pub phase: f64,
    /// Final DLL fractional-delay state in chips (tracking diagnostics).
    pub dll_tau_chips: f64,
    /// Blind SNR estimate over the payload symbols.
    pub snr_estimate: Option<f64>,
}

/// Acquisition counters of the receiver (no-op until
/// [`CdmaReceiver::set_telemetry`] is called).
#[derive(Clone, Debug, Default)]
struct CdmaRxTelemetry {
    /// Serial-search acquisition attempts.
    acq_attempts: Counter,
    /// Attempts whose CFAR metric cleared the threshold.
    acq_hits: Counter,
}

/// CDMA receiver: acquisition → DLL tracking → despreading → pilot phase.
#[derive(Clone, Debug)]
pub struct CdmaReceiver {
    config: CdmaConfig,
    matched: FirKernel,
    chips: Vec<Cpx>,
    /// Coherent acquisition window, in chips.
    pub acq_chips: usize,
    /// Acquisition threshold on the peak-to-floor power ratio.
    pub acq_threshold: f64,
    /// First-order DLL gain (chips per normalised error per symbol).
    pub dll_gain: f64,
    /// Zero-padded matched-filter input.
    padded: Vec<Cpx>,
    /// Matched-filter output, the signal every later stage reads.
    filtered: Vec<Cpx>,
    /// `filtered` as the acquisition search reads it: the samples
    /// [`CdmaReceiver::sample_at`] can return, then zeros to the end of the
    /// search window.
    search: Vec<Cpx>,
    /// Correlation power per candidate offset.
    powers: Vec<f64>,
    tel: CdmaRxTelemetry,
}

impl CdmaReceiver {
    /// Builds the receiver.
    pub fn new(config: CdmaConfig) -> Self {
        let matched = rrc_kernel();
        let chips = config.spreading_chips();
        CdmaReceiver {
            config,
            matched,
            chips,
            acq_chips: 128,
            acq_threshold: 12.0,
            dll_gain: 0.04,
            padded: Vec::new(),
            filtered: Vec::new(),
            search: Vec::new(),
            powers: Vec::new(),
            tel: CdmaRxTelemetry::default(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CdmaConfig {
        &self.config
    }

    /// Registers the acquisition counters `modem.cdma.acq.attempts` and
    /// `modem.cdma.acq.hits` on `registry`. Metrics are observed, never
    /// consulted: acquisition results are identical either way.
    pub fn set_telemetry(&mut self, registry: &Registry) {
        self.tel = CdmaRxTelemetry {
            acq_attempts: registry.counter("modem.cdma.acq.attempts"),
            acq_hits: registry.counter("modem.cdma.acq.hits"),
        };
    }

    /// Linear interpolation of the filtered signal at fractional position
    /// (the DLL's early/prompt/late reads). Positions whose right neighbour
    /// lies past the buffer — including the last sample itself — read as
    /// zero.
    #[inline]
    fn sample_at(&self, pos: f64) -> Cpx {
        let i = pos.floor() as isize;
        let frac = pos - i as f64;
        let n = self.filtered.len() as isize;
        if i < 0 || i + 1 >= n {
            return Cpx::ZERO;
        }
        let a = self.filtered[i as usize];
        let b = self.filtered[i as usize + 1];
        a + (b - a).scale(frac)
    }

    /// Serial-search acquisition over `search_window` sample offsets of
    /// the *matched-filtered* signal stored in `self.filtered`.
    ///
    /// CFAR-style decision: the correlation power is computed at every
    /// candidate offset; the peak is detected when it exceeds
    /// `acq_threshold` times the mean power of the other cells (a guard
    /// zone of ±[`SPS`] samples around the peak is excluded from the floor
    /// estimate, since the chip pulse spreads the peak).
    ///
    /// Offsets and [`SPS`] are integers here, so every read is an exact
    /// gather: one [`CpxKernels::corr_power_strided`] call over a copy of
    /// `filtered` that keeps [`CdmaReceiver::sample_at`]'s edge (index
    /// `len − 1` and beyond read as zero). On finite input the powers equal
    /// a `sample_at` search bit for bit. They differ only where a read
    /// position holds an infinite sample or sits left of a non-finite one:
    /// `sample_at` interpolates with weight 0 and turns that read into NaN,
    /// while the gather returns the sample itself.
    ///
    /// [`CpxKernels::corr_power_strided`]: gsp_dsp::kernels::CpxKernels::corr_power_strided
    fn acquire_filtered(&mut self, search_window: usize) -> Option<Acquisition> {
        self.tel.acq_attempts.inc();
        let n_acq = self.acq_chips.min(self.config.burst_chips());
        let need = search_window + n_acq.saturating_sub(1) * SPS;
        let valid = self.filtered.len().saturating_sub(1).min(need);
        self.search.clear();
        self.search.extend_from_slice(&self.filtered[..valid]);
        self.search.resize(need, Cpx::ZERO);
        self.powers.clear();
        self.powers.resize(search_window, 0.0);
        self.matched.kernel_backend().corr_power_strided(
            &self.search,
            &self.chips[..n_acq],
            SPS,
            &mut self.powers,
        );
        let powers = &self.powers;
        let (peak_idx, &peak) = powers
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))?;
        let mut floor = 0.0;
        let mut n_floor = 0usize;
        for (d, &p) in powers.iter().enumerate() {
            if d.abs_diff(peak_idx) > SPS {
                floor += p;
                n_floor += 1;
            }
        }
        if n_floor == 0 {
            return None;
        }
        let floor = (floor / n_floor as f64).max(1e-30);
        let metric = peak / floor;
        if metric >= self.acq_threshold {
            self.tel.acq_hits.inc();
        }
        (metric >= self.acq_threshold).then_some(Acquisition {
            sample_offset: peak_idx,
            metric,
        })
    }

    /// Public acquisition entry point on raw samples (runs the matched
    /// filter first). Used by the acquisition-performance experiment (E9).
    pub fn acquire(&mut self, samples: &[Cpx], search_window: usize) -> Option<Acquisition> {
        self.matched
            .filter_block(samples, 0, &mut self.padded, &mut self.filtered);
        self.acquire_filtered(search_window)
    }

    /// Full burst demodulation.
    pub fn demodulate(&mut self, samples: &[Cpx], search_window: usize) -> Option<CdmaDemodResult> {
        self.matched
            .filter_block(samples, 0, &mut self.padded, &mut self.filtered);
        let acq = self.acquire_filtered(search_window)?;

        let cfg = &self.config;
        let sps = SPS as f64;
        let sf = cfg.sf;
        let half_chip = sps / 2.0;
        let mut tau = 0.0f64; // fractional delay in samples, DLL-tracked
        let mut symbols = Vec::with_capacity(cfg.burst_symbols());
        for m in 0..cfg.burst_symbols() {
            let mut prompt = Cpx::ZERO;
            let mut early = Cpx::ZERO;
            let mut late = Cpx::ZERO;
            for k in 0..sf {
                let chip_idx = m * sf + k;
                let base = acq.sample_offset as f64 + chip_idx as f64 * sps + tau;
                let c = self.chips[chip_idx];
                prompt += self.sample_at(base).mul_conj(c);
                early += self.sample_at(base - half_chip).mul_conj(c);
                late += self.sample_at(base + half_chip).mul_conj(c);
            }
            // Non-coherent early-late discriminator (ref [8]).
            let e = early.norm_sqr();
            let l = late.norm_sqr();
            if e + l > 0.0 {
                let err = (e - l) / (e + l);
                // True code later than estimate ⇒ late branch stronger ⇒
                // err < 0 ⇒ advance tau.
                tau -= self.dll_gain * err * sps / 2.0;
            }
            symbols.push(prompt.scale(1.0 / sf as f64));
        }

        // Pilot-aided phase correction.
        let pilot_ref = cfg.pilot_symbols();
        let phase = data_aided_phase(&symbols[..PILOT_LEN], &pilot_ref);
        derotate(&mut symbols, phase);
        let payload = symbols.split_off(PILOT_LEN);

        let snr = snr_estimate_m2m4(&payload);
        let sigma2 = snr.map_or(0.5, |s| 0.5 / s).max(1e-6);
        let mut bits = Vec::new();
        Modulation::Qpsk.demap_hard(&payload, &mut bits);
        let mut llrs = Vec::new();
        Modulation::Qpsk.demap_soft(&payload, sigma2, &mut llrs);

        Some(CdmaDemodResult {
            bits,
            llrs,
            symbols: payload,
            acquisition: acq,
            phase,
            dll_tau_chips: tau / sps,
            snr_estimate: snr,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsp_channel::awgn::AwgnChannel;
    use gsp_channel::impairments::PhaseOffset;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> CdmaConfig {
        CdmaConfig::sumts(16, 3, 64)
    }

    /// One user in a multi-user composite.
    struct UserSignal {
        /// The user's baseband waveform samples.
        samples: Vec<Cpx>,
        /// Linear amplitude relative to the reference user.
        amplitude: f64,
        /// Whole-sample delay at the composite grid.
        delay: usize,
        /// Carrier phase, radians.
        phase: f64,
    }

    /// Adds every user into one composite of length `len`, zero-padding
    /// past each user's waveform.
    fn compose(users: &[UserSignal], len: usize) -> Vec<Cpx> {
        let mut out = vec![Cpx::ZERO; len];
        for u in users {
            let rot = Cpx::from_polar(u.amplitude, u.phase);
            for (i, &s) in u.samples.iter().enumerate() {
                let idx = u.delay + i;
                if idx >= len {
                    break;
                }
                out[idx] += s * rot;
            }
        }
        out
    }

    fn random_bits(n: usize, rng: &mut StdRng) -> Vec<u8> {
        (0..n).map(|_| rng.gen_range(0..2u8)).collect()
    }

    #[test]
    fn clean_roundtrip() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = config();
        let tx = CdmaTransmitter::new(cfg.clone());
        let mut rx = CdmaReceiver::new(cfg.clone());
        let bits = random_bits(cfg.payload_bits(), &mut rng);
        let wave = tx.transmit(&bits);
        let res = rx.demodulate(&wave, 64).expect("acquire");
        assert_eq!(res.bits, bits);
        assert!(
            res.acquisition.metric > 20.0,
            "peak/floor {}",
            res.acquisition.metric
        );
    }

    #[test]
    fn a_nan_sample_does_not_panic_the_receiver() {
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = config();
        let tx = CdmaTransmitter::new(cfg.clone());
        let mut rx = CdmaReceiver::new(cfg.clone());
        let mut wave = tx.transmit(&random_bits(cfg.payload_bits(), &mut rng));
        wave[40] = Cpx::new(f64::NAN, 0.0);
        let _ = rx.demodulate(&wave, 64);
    }

    /// The serial search as it read the signal before the strided kernel:
    /// one interpolated `sample_at` per (offset, chip) pair.
    fn sample_at_search(rx: &CdmaReceiver, search_window: usize) -> Vec<f64> {
        let n_acq = rx.acq_chips.min(rx.config.burst_chips());
        let sps = SPS as f64;
        (0..search_window)
            .map(|d| {
                let mut acc = Cpx::ZERO;
                for (k, c) in rx.chips[..n_acq].iter().enumerate() {
                    acc += rx.sample_at(d as f64 + k as f64 * sps).mul_conj(*c);
                }
                acc.norm_sqr()
            })
            .collect()
    }

    #[test]
    fn strided_search_equals_the_sample_at_search() {
        let mut rng = StdRng::seed_from_u64(8);
        let cfg = config();
        let tx = CdmaTransmitter::new(cfg.clone());
        let mut wave = tx.transmit(&random_bits(cfg.payload_bits(), &mut rng));
        AwgnChannel::from_esn0_db(0.0).apply(&mut wave, &mut rng);
        let mut rx = CdmaReceiver::new(cfg);
        let bits = |v: &[f64]| v.iter().map(|p| p.to_bits()).collect::<Vec<_>>();
        // The full burst, the same with a run of signed zeros in the
        // filtered signal (`sample_at` turns -0 into +0, the gather keeps
        // it), then windows that read past the end of a short input and of
        // one shorter than the filter, where both read zeros.
        for (len, window, zeros) in [
            (wave.len(), 96, false),
            (wave.len(), 96, true),
            (600, 200, false),
            (30, 9, false),
            (0, 5, false),
        ] {
            rx.matched
                .filter_block(&wave[..len], 0, &mut rx.padded, &mut rx.filtered);
            if zeros {
                for (i, s) in rx.filtered[100..160].iter_mut().enumerate() {
                    *s = [
                        Cpx::new(-0.0, 0.0),
                        Cpx::new(0.0, -0.0),
                        Cpx::new(-0.0, -0.0),
                    ][i % 3];
                }
            }
            rx.acquire_filtered(window);
            let want = sample_at_search(&rx, window);
            assert_eq!(bits(&rx.powers), bits(&want), "len {len} window {window}");
        }
    }

    #[test]
    fn roundtrip_with_delay_and_phase() {
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = config();
        let tx = CdmaTransmitter::new(cfg.clone());
        let mut rx = CdmaReceiver::new(cfg.clone());
        let bits = random_bits(cfg.payload_bits(), &mut rng);
        let mut wave = tx.transmit(&bits);
        PhaseOffset::new(1.2).apply(&mut wave);
        // Integer-sample delay of 23 samples.
        let mut delayed = vec![Cpx::ZERO; 23];
        delayed.extend(wave);
        let res = rx.demodulate(&delayed, 128).expect("acquire");
        assert_eq!(res.bits, bits);
    }

    #[test]
    fn acquisition_offset_matches_inserted_delay() {
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = config();
        let tx = CdmaTransmitter::new(cfg.clone());
        let mut rx = CdmaReceiver::new(cfg.clone());
        let bits = random_bits(cfg.payload_bits(), &mut rng);
        let wave = tx.transmit(&bits);
        let base = rx.acquire(&wave, 64).expect("baseline").sample_offset;
        let mut delayed = vec![Cpx::ZERO; 17];
        delayed.extend(tx.transmit(&bits));
        let shifted = rx.acquire(&delayed, 96).expect("delayed").sample_offset;
        assert_eq!(shifted - base, 17);
    }

    #[test]
    fn demodulates_through_awgn() {
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = config();
        let tx = CdmaTransmitter::new(cfg.clone());
        let mut rx = CdmaReceiver::new(cfg.clone());
        let mut err = 0usize;
        let mut tot = 0usize;
        for _ in 0..5 {
            let bits = random_bits(cfg.payload_bits(), &mut rng);
            let mut wave = tx.transmit(&bits);
            // Chip-sample SNR of 0 dB: despreading over SF=16 lifts the
            // symbol SNR to ≈12 dB (the matched filter preserves the
            // per-sample noise variance, so no sps factor applies).
            let mut ch = AwgnChannel::from_esn0_db(0.0);
            ch.apply(&mut wave, &mut rng);
            if let Some(res) = rx.demodulate(&wave, 64) {
                err += res.bits.iter().zip(&bits).filter(|(a, b)| a != b).count();
                tot += bits.len();
            }
        }
        assert!(tot > 0, "no bursts acquired");
        let ber = err as f64 / tot as f64;
        assert!(ber < 0.02, "BER {ber}");
    }

    #[test]
    fn rejects_wrong_scrambling_code() {
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = config();
        let tx = CdmaTransmitter::new(cfg.clone());
        let mut other = cfg.clone();
        other.scrambling = 1337;
        let mut rx = CdmaReceiver::new(other);
        let bits = random_bits(cfg.payload_bits(), &mut rng);
        let wave = tx.transmit(&bits);
        // The mismatched receiver should fail acquisition.
        assert!(rx.acquire(&wave, 64).is_none());
    }

    #[test]
    fn separates_ovsf_users_on_same_scrambling() {
        // Two synchronous users on orthogonal OVSF codes, same scrambler:
        // the wanted user decodes cleanly despite equal-power interference.
        let mut rng = StdRng::seed_from_u64(6);
        let cfg_a = config();
        let mut cfg_b = cfg_a.clone();
        cfg_b.ovsf_index = 7;
        let tx_a = CdmaTransmitter::new(cfg_a.clone());
        let tx_b = CdmaTransmitter::new(cfg_b);
        let bits_a = random_bits(cfg_a.payload_bits(), &mut rng);
        let bits_b = random_bits(cfg_a.payload_bits(), &mut rng);
        let wave_a = tx_a.transmit(&bits_a);
        let len = wave_a.len();
        let users = vec![
            UserSignal {
                samples: wave_a,
                amplitude: 1.0,
                delay: 0,
                phase: 0.0,
            },
            UserSignal {
                samples: tx_b.transmit(&bits_b),
                amplitude: 1.0,
                delay: 0,
                phase: 0.0,
            },
        ];
        let composite = compose(&users, len);
        let mut rx = CdmaReceiver::new(cfg_a);
        let res = rx.demodulate(&composite, 64).expect("acquire");
        assert_eq!(res.bits, bits_a);
    }

    #[test]
    fn dll_tracks_subchip_offset() {
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = CdmaConfig::sumts(16, 3, 256);
        let tx = CdmaTransmitter::new(cfg.clone());
        let mut rx = CdmaReceiver::new(cfg.clone());
        let bits = random_bits(cfg.payload_bits(), &mut rng);
        let wave = tx.transmit(&bits);
        // Apply a 0.3-chip (1.2-sample) delay via zero-stuffed interpolation:
        // use the channel fractional-delay impairment.
        let mut frac = gsp_channel::impairments::TimingOffset::new(0.2);
        let mut delayed = Vec::new();
        frac.apply(&wave, &mut delayed);
        let res = rx.demodulate(&delayed, 64).expect("acquire");
        assert_eq!(res.bits, bits);
    }
}
