//! Numerically controlled oscillator (NCO).
//!
//! Used as the digital local oscillator of the IF down-conversion stages
//! (LO1/LO2a/LO2b of the paper's Fig. 2) and as the phase accumulator inside
//! carrier-recovery loops.

use crate::complex::Cpx;
use crate::math::wrap_angle;

/// Phase-accumulating oscillator producing `e^{jφ[n]}` with
/// `φ[n+1] = φ[n] + 2π·f/fs`.
#[derive(Clone, Debug)]
pub struct Nco {
    phase: f64,
    step: f64,
}

impl Nco {
    /// Creates an NCO at `freq_hz` for a processing rate of `sample_rate_hz`.
    pub fn new(freq_hz: f64, sample_rate_hz: f64) -> Self {
        assert!(sample_rate_hz > 0.0);
        Nco {
            phase: 0.0,
            step: std::f64::consts::TAU * freq_hz / sample_rate_hz,
        }
    }

    /// An NCO with an explicit phase increment per sample (radians).
    pub fn from_step(step: f64) -> Self {
        Nco { phase: 0.0, step }
    }

    /// Current phase in radians, wrapped to `(-π, π]`.
    #[inline]
    pub fn phase(&self) -> f64 {
        wrap_angle(self.phase)
    }

    /// Current per-sample phase increment in radians.
    #[inline]
    pub fn step(&self) -> f64 {
        self.step
    }

    /// Produces the next oscillator sample.
    #[inline]
    pub fn tick(&mut self) -> Cpx {
        let out = Cpx::from_angle(self.phase);
        self.phase = wrap_angle(self.phase + self.step);
        out
    }

    /// Mixes (multiplies) an input sample with the oscillator, advancing it.
    #[inline]
    pub fn mix(&mut self, x: Cpx) -> Cpx {
        x * self.tick()
    }

    /// The oscillator's next ticks as a lookup table, without advancing
    /// it. When the phase returns bit-exactly to its current value after
    /// `period` ticks, the table is those `period` ticks, and since the
    /// phase is the only state a tick changes, tick `n` equals
    /// `table[n % period]` for every `n`. Otherwise it is the next
    /// `len.max(period)` ticks, and tick `n` equals `table[n]` for every
    /// `n` below that.
    pub fn table(&self, period: usize, len: usize) -> Vec<Cpx> {
        let mut nco = self.clone();
        let mut table: Vec<Cpx> = (0..period).map(|_| nco.tick()).collect();
        if nco.phase.to_bits() != self.phase.to_bits() {
            table.extend((period..len).map(|_| nco.tick()));
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft::Fft;

    #[test]
    fn produces_expected_tone() {
        let n = 128;
        let bin = 8;
        let mut nco = Nco::new(bin as f64, n as f64);
        let mut buf: Vec<Cpx> = (0..n).map(|_| nco.tick()).collect();
        let plan = Fft::new(n);
        plan.forward(&mut buf);
        let (max_bin, _) = buf
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .unwrap();
        assert_eq!(max_bin, bin);
    }

    #[test]
    fn mixing_down_cancels_offset() {
        let fs = 1000.0;
        let f = 137.0;
        let mut up = Nco::new(f, fs);
        let tone: Vec<Cpx> = (0..500).map(|_| up.tick()).collect();
        let mut down = Nco::new(-f, fs);
        for s in tone.iter().map(|&s| down.mix(s)) {
            assert!((s.re - 1.0).abs() < 1e-9 && s.im.abs() < 1e-9);
        }
    }

    #[test]
    fn unit_amplitude_forever() {
        let mut nco = Nco::new(333.0, 1024.0);
        for _ in 0..10_000 {
            assert!((nco.tick().abs() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn from_step_matches_the_frequency_constructor() {
        let step = std::f64::consts::TAU * 10.0 / 100.0;
        let (mut a, mut b) = (Nco::new(10.0, 100.0), Nco::from_step(step));
        assert_eq!(b.step(), a.step());
        for _ in 0..64 {
            assert_eq!(a.tick(), b.tick());
        }
    }

    #[test]
    fn table_reproduces_every_tick() {
        // A quarter-turn step returns to phase 0 exactly: four entries
        // serve forever. A step of 0.3 rad never does: the table is the
        // whole requested span.
        for (step, period, len, entries) in
            [(std::f64::consts::FRAC_PI_2, 4, 400, 4), (0.3, 4, 400, 400)]
        {
            let nco = Nco::from_step(step);
            let table = nco.table(period, len);
            assert_eq!(table.len(), entries, "step {step}");
            let mut live = nco.clone();
            for n in 0..len {
                assert_eq!(live.tick(), table[n % table.len()], "step {step}, tick {n}");
            }
        }
    }
}
