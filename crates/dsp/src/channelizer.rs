//! Polyphase FFT channelizer — the DEMUX of the paper's Fig. 2.
//!
//! An MF-TDMA uplink carries `M` FDM carriers inside the processed band.
//! The classic maximally-decimated polyphase channelizer splits an input
//! stream sampled at `M·f_ch` into `M` channel streams at `f_ch` each, at a
//! cost of one prototype-filter pass plus one M-point FFT per output vector —
//! far cheaper than `M` independent mixers+filters. This is exactly the
//! digital demultiplexer a regenerative payload implements before its bank
//! of per-carrier demodulators.

use crate::complex::Cpx;
use crate::fft::Fft;
use crate::filter::FirKernel;
use crate::kernels::{self, CpxKernelHandle};
use crate::window::Window;

/// Maximally-decimated analysis channelizer with `M` channels.
///
/// Feed samples with [`PolyphaseChannelizer::push`]; every `M` input samples
/// it produces one output sample per channel.
#[derive(Clone, Debug)]
pub struct PolyphaseChannelizer {
    m: usize,
    /// Polyphase components: `poly[p]` holds prototype taps `h[p], h[p+M], …`.
    poly: Vec<Vec<f64>>,
    /// Per-branch delay lines (newest first), each `taps_per_branch` long.
    delay: Vec<Vec<Cpx>>,
    taps_per_branch: usize,
    fft: Fft,
    /// Input sample counter within the current block (counts down M→0).
    fill: usize,
    /// Scratch vector handed to the FFT.
    scratch: Vec<Cpx>,
    /// Branch-MAC backend (the FFT pass carries its own matching handle).
    kernels: CpxKernelHandle,
}

impl PolyphaseChannelizer {
    /// Builds a channelizer for `m` channels (power of two) with a prototype
    /// low-pass of `taps_per_branch` taps per polyphase branch, using the
    /// process-wide kernel backend selection.
    pub fn new(m: usize, taps_per_branch: usize) -> Self {
        Self::with_kernels(m, taps_per_branch, kernels::active())
    }

    /// Builds a channelizer pinned to a specific kernel backend handle —
    /// the per-instance override used by cross-backend tests and benches.
    pub fn with_kernels(m: usize, taps_per_branch: usize, kernels: CpxKernelHandle) -> Self {
        assert!(
            m.is_power_of_two() && m >= 2,
            "channel count must be a power of two"
        );
        assert!(taps_per_branch >= 2);
        let proto_len = m * taps_per_branch;
        // Prototype cutoff at half the channel spacing: 1/(2M) of input rate.
        let proto = FirKernel::lowpass(proto_len + 1, 0.5 / m as f64, Window::Kaiser(8.0));
        let mut poly = vec![vec![0.0; taps_per_branch]; m];
        for (i, &t) in proto.taps().iter().take(proto_len).enumerate() {
            poly[i % m][i / m] = t * m as f64; // ×M restores per-channel gain
        }
        PolyphaseChannelizer {
            m,
            poly,
            delay: vec![vec![Cpx::ZERO; taps_per_branch]; m],
            taps_per_branch,
            fft: Fft::with_kernels(m, kernels),
            fill: m,
            scratch: vec![Cpx::ZERO; m],
            kernels,
        }
    }

    /// Number of channels.
    #[inline]
    pub fn channels(&self) -> usize {
        self.m
    }

    /// Clears the per-branch delay lines and the commutator position,
    /// returning the channelizer to its freshly-built state without
    /// re-deriving the prototype filter or FFT plan. Lets a long-lived
    /// demux stage start each frame from a clean slate.
    pub fn reset(&mut self) {
        for line in &mut self.delay {
            line.fill(Cpx::ZERO);
        }
        self.fill = self.m;
    }

    /// Advances the per-branch delay lines by one input sample; returns
    /// `true` when a block of `M` samples has completed and an output
    /// vector is due.
    #[inline]
    fn advance(&mut self, x: Cpx) -> bool {
        // Commutator runs backwards through the branches: sample n of a block
        // enters branch (M-1-n).
        self.fill -= 1;
        let branch = self.fill;
        let line = &mut self.delay[branch];
        // Shift delay line (small — taps_per_branch elements).
        for i in (1..self.taps_per_branch).rev() {
            line[i] = line[i - 1];
        }
        line[0] = x;
        if self.fill > 0 {
            return false;
        }
        self.fill = self.m;
        true
    }

    /// Runs each polyphase branch and the FFT across branches, leaving the
    /// `M` channel samples in `self.scratch`.
    fn compute_block(&mut self) {
        for (b, line) in self.delay.iter().enumerate() {
            // Per-branch MAC through the backend dot kernel (line is stored
            // newest-first, taps are in matching polyphase order).
            self.scratch[b] = self.kernels.dot_real(line, &self.poly[b], Cpx::ZERO);
        }
        // The inverse FFT's 1/M normalisation combines with the ×M prototype
        // scaling to give unity channel gain.
        self.fft.inverse(&mut self.scratch);
    }

    /// Pushes one input sample; when a block of `M` completes, writes one
    /// output sample per channel into `out` (length `M`, channel `k`
    /// centred at normalised input frequency `k/M`) and returns `true`.
    pub fn push(&mut self, x: Cpx, out: &mut [Cpx]) -> bool {
        assert_eq!(out.len(), self.m);
        if !self.advance(x) {
            return false;
        }
        self.compute_block();
        out.copy_from_slice(&self.scratch);
        true
    }

    /// Channelizes a block into a flat frames-major slab: per completed
    /// input block, appends `M` channel samples (channel 0 first) to `out`,
    /// and returns the number of blocks appended.
    ///
    /// The slab is the caller's reusable scratch arena: it is appended to,
    /// never cleared, so a steady-state caller that `clear()`s and reuses
    /// one `Vec` pays no allocation after the first frame.
    pub fn process(&mut self, x: &[Cpx], out: &mut Vec<Cpx>) -> usize {
        let mut blocks = 0;
        for &s in x {
            if self.advance(s) {
                self.compute_block();
                out.extend_from_slice(&self.scratch);
                blocks += 1;
            }
        }
        blocks
    }

    /// Input blocks of history an output block depends on besides its
    /// own: from a reset, output block `n` is a function of input blocks
    /// `n - history_blocks() ..= n` alone (earlier samples have left the
    /// `taps_per_branch`-long delay lines).
    pub fn history_blocks(&self) -> usize {
        self.taps_per_branch - 1
    }

    /// Channelizes input blocks `first .. first + count` of the stream
    /// `x` (which starts from a reset channelizer) into the frames-major
    /// slab `out`, as [`PolyphaseChannelizer::process`] does, and returns
    /// the number of blocks appended. It resets, then only *pushes* the
    /// [`PolyphaseChannelizer::history_blocks`] blocks before `first`,
    /// without computing their outputs, so disjoint ranges can run on
    /// separate channelizers and together equal one `process` over the
    /// whole stream, bit for bit.
    pub fn process_range(
        &mut self,
        x: &[Cpx],
        first: usize,
        count: usize,
        out: &mut Vec<Cpx>,
    ) -> usize {
        self.reset();
        let m = self.m;
        let end = ((first + count) * m).min(x.len());
        let start = (first * m).min(end);
        let warm = first.saturating_sub(self.history_blocks()) * m;
        for &s in &x[warm..start] {
            self.advance(s);
        }
        self.process(&x[start..end], out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nco::Nco;

    /// Drives a tone at channel-centre frequency `ch/M` through the
    /// channelizer and returns per-channel mean output power.
    fn tone_response(m: usize, ch: usize, n_blocks: usize) -> Vec<f64> {
        let mut chan = PolyphaseChannelizer::new(m, 12);
        let mut nco = Nco::from_step(std::f64::consts::TAU * ch as f64 / m as f64);
        let mut powers = vec![0.0; m];
        let mut frame = vec![Cpx::ZERO; m];
        let mut count = 0usize;
        let settle = 30;
        for _ in 0..n_blocks * m {
            if chan.push(nco.tick(), &mut frame) {
                count += 1;
                if count > settle {
                    for (p, s) in powers.iter_mut().zip(&frame) {
                        *p += s.norm_sqr();
                    }
                }
            }
        }
        let denom = (count - settle) as f64;
        powers.iter().map(|p| p / denom).collect()
    }

    #[test]
    fn tone_lands_in_its_channel() {
        let m = 8;
        for ch in [0usize, 1, 3, 5, 7] {
            let p = tone_response(m, ch, 200);
            let (best, _) = p
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                .unwrap();
            assert_eq!(best, ch, "powers {p:?}");
            // Selectivity: other channels at least 30 dB down.
            for (k, &pw) in p.iter().enumerate() {
                if k != ch {
                    assert!(pw < p[ch] * 1e-3, "leak ch{k}={pw} vs ch{ch}={}", p[ch]);
                }
            }
        }
    }

    #[test]
    fn channel_gain_is_near_unity() {
        let p = tone_response(8, 2, 300);
        assert!((p[2] - 1.0).abs() < 0.1, "gain {}", p[2]);
    }

    #[test]
    fn process_emits_one_frame_per_m_samples() {
        let m = 4;
        let mut chan = PolyphaseChannelizer::new(m, 8);
        let mut out = Vec::new();
        let blocks = chan.process(&vec![Cpx::ONE; 4 * 25], &mut out);
        assert_eq!(blocks, 25);
        assert_eq!(out.len(), 25 * m);
    }

    #[test]
    fn process_slab_matches_push() {
        // The flat frames-major slab must agree, sample for sample, with
        // driving push() by hand.
        let m = 8;
        let mut a = PolyphaseChannelizer::new(m, 12);
        let mut b = PolyphaseChannelizer::new(m, 12);
        let x: Vec<Cpx> = (0..m * 23)
            .map(|i| Cpx::new((i as f64 * 0.21).sin(), (i as f64 * 0.13).cos()))
            .collect();
        let mut slab = Vec::new();
        let blocks = a.process(&x, &mut slab);
        let mut frame = vec![Cpx::ZERO; m];
        let mut k = 0usize;
        for &s in &x {
            if b.push(s, &mut frame) {
                assert_eq!(&slab[k * m..(k + 1) * m], frame.as_slice());
                k += 1;
            }
        }
        assert_eq!(k, blocks);
    }

    #[test]
    fn ranged_channelization_matches_serial() {
        // Splitting a frame's blocks into 1..=6 contiguous ranges, each on
        // its own channelizer, reproduces one serial pass bit for bit on
        // every backend the host runs — also when a range starts inside
        // the history of the stream's first blocks.
        let m = 8;
        let blocks = 53;
        let x: Vec<Cpx> = (0..m * blocks)
            .map(|i| Cpx::new((i as f64 * 0.21).sin(), (i as f64 * 0.13).cos()))
            .collect();
        let mut backends = vec![kernels::for_backend(kernels::Backend::Scalar)];
        if kernels::simd_available() {
            backends.push(kernels::for_backend(kernels::Backend::Simd));
        }
        let bits = |v: &[Cpx]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        for k in backends {
            let mut serial = Vec::new();
            PolyphaseChannelizer::with_kernels(m, 12, k).process(&x, &mut serial);
            for ranges in 1..=6 {
                let mut joined = Vec::new();
                let mut total = 0;
                for r in 0..ranges {
                    let (lo, hi) = (r * blocks / ranges, (r + 1) * blocks / ranges);
                    let mut chan = PolyphaseChannelizer::with_kernels(m, 12, k);
                    total += chan.process_range(&x, lo, hi - lo, &mut joined);
                }
                assert_eq!(total, blocks, "{ranges} ranges");
                assert_eq!(bits(&joined), bits(&serial), "{ranges} ranges");
            }
        }
    }

    #[test]
    fn dc_input_appears_in_channel_zero() {
        let m = 16;
        let mut chan = PolyphaseChannelizer::new(m, 10);
        let mut frame = vec![Cpx::ZERO; m];
        let mut last = vec![Cpx::ZERO; m];
        for _ in 0..m * 100 {
            if chan.push(Cpx::ONE, &mut frame) {
                last.copy_from_slice(&frame);
            }
        }
        assert!((last[0].abs() - 1.0).abs() < 0.05, "ch0 {}", last[0].abs());
        for (k, s) in last.iter().enumerate().skip(1) {
            assert!(s.abs() < 0.05, "ch{k} {}", s.abs());
        }
    }

    #[test]
    fn reset_restores_fresh_state() {
        let m = 8;
        let mut used = PolyphaseChannelizer::new(m, 12);
        let mut fresh = PolyphaseChannelizer::new(m, 12);
        let mut nco = Nco::from_step(0.37);
        let mut frame = vec![Cpx::ZERO; m];
        for _ in 0..m * 17 + 3 {
            used.push(nco.tick(), &mut frame);
        }
        used.reset();
        // After reset, the used channelizer must track a fresh one exactly.
        let mut nco = Nco::from_step(0.91);
        let mut fa = vec![Cpx::ZERO; m];
        let mut fb = vec![Cpx::ZERO; m];
        for _ in 0..m * 10 {
            let x = nco.tick();
            let ea = used.push(x, &mut fa);
            let eb = fresh.push(x, &mut fb);
            assert_eq!(ea, eb);
            if ea {
                assert_eq!(fa, fb);
            }
        }
    }

    #[test]
    fn two_tones_separate_cleanly() {
        let m = 8;
        let mut chan = PolyphaseChannelizer::new(m, 12);
        let mut nco_a = Nco::from_step(std::f64::consts::TAU * 1.0 / m as f64);
        let mut nco_b = Nco::from_step(std::f64::consts::TAU * 6.0 / m as f64);
        let mut frame = vec![Cpx::ZERO; m];
        let mut powers = vec![0.0; m];
        let mut frames = 0;
        for _ in 0..m * 400 {
            let x = nco_a.tick() + nco_b.tick();
            if chan.push(x, &mut frame) {
                frames += 1;
                if frames > 50 {
                    for (p, s) in powers.iter_mut().zip(&frame) {
                        *p += s.norm_sqr();
                    }
                }
            }
        }
        let norm = (frames - 50) as f64;
        let p: Vec<f64> = powers.iter().map(|v| v / norm).collect();
        assert!(p[1] > 0.8 && p[6] > 0.8, "p={p:?}");
        for k in [0usize, 2, 3, 4, 5, 7] {
            assert!(p[k] < 0.02, "leak in ch{k}: {}", p[k]);
        }
    }
}
