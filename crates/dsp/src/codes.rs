//! Spreading-code generators for the S-UMTS CDMA waveform: LFSR
//! m-sequences, OVSF channelization codes (3G TS 25.213-style), and the
//! complex Gold scrambling sequence.

/// Fibonacci LFSR over GF(2) defined by a tap polynomial.
///
/// With state bit `i` holding output sample `a[k+i]` (bit 0 is emitted next),
/// each shift computes `a[k+n] = Σ_{i∈taps} a[k+i]`, so for the primitive
/// polynomial `p(x) = x^n + Σ c_i x^i + 1` the tap mask is simply the low
/// coefficients of `p` (`c` bits, including the mandatory bit 0).
#[derive(Clone, Debug)]
pub struct Lfsr {
    state: u64,
    taps: u64,
    degree: u32,
}

impl Lfsr {
    /// Creates an LFSR of the given degree with tap mask and non-zero seed.
    pub fn new(degree: u32, taps: u64, seed: u64) -> Self {
        assert!((2..=63).contains(&degree));
        let mask = (1u64 << degree) - 1;
        let seed = seed & mask;
        assert!(seed != 0, "LFSR seed must be non-zero");
        Lfsr {
            state: seed,
            taps: taps & mask,
            degree,
        }
    }

    /// An m-sequence generator for common degrees (primitive polynomials).
    ///
    /// Supported degrees: 3..=18 plus 25 (the UMTS long-scrambling degree).
    pub fn m_sequence(degree: u32, seed: u64) -> Self {
        // Low coefficients of standard primitive polynomials.
        let taps: u64 = match degree {
            3 => 0x3,     // x^3+x+1
            4 => 0x3,     // x^4+x+1
            5 => 0x5,     // x^5+x^2+1
            6 => 0x3,     // x^6+x+1
            7 => 0x9,     // x^7+x^3+1
            8 => 0x1D,    // x^8+x^4+x^3+x^2+1
            9 => 0x11,    // x^9+x^4+1
            10 => 0x9,    // x^10+x^3+1
            11 => 0x5,    // x^11+x^2+1
            12 => 0x53,   // x^12+x^6+x^4+x+1
            13 => 0x1B,   // x^13+x^4+x^3+x+1
            14 => 0x443,  // x^14+x^10+x^6+x+1
            15 => 0x3,    // x^15+x+1
            16 => 0x100B, // x^16+x^12+x^3+x+1
            17 => 0x9,    // x^17+x^3+1
            18 => 0x81,   // x^18+x^7+1
            25 => 0x9,    // x^25+x^3+1 (UMTS long-code degree)
            _ => panic!("no primitive polynomial registered for degree {degree}"),
        };
        Lfsr::new(degree, taps, seed)
    }

    /// Sequence period `2^degree − 1` for a primitive polynomial.
    pub fn period(&self) -> u64 {
        (1u64 << self.degree) - 1
    }

    /// Produces the next chip as 0/1.
    #[inline]
    pub fn next_bit(&mut self) -> u8 {
        let out = (self.state & 1) as u8;
        let fb = (self.state & self.taps).count_ones() & 1;
        self.state >>= 1;
        self.state |= (fb as u64) << (self.degree - 1);
        out
    }

    /// Produces the next chip as ±1 (`0 → +1`, `1 → −1`).
    #[inline]
    pub fn next_chip(&mut self) -> i8 {
        1 - 2 * self.next_bit() as i8
    }
}

/// OVSF (orthogonal variable spreading factor) code tree, as used for UMTS
/// channelization. Codes of the same SF are mutually orthogonal; a code is
/// orthogonal to every code that is not its ancestor/descendant.
#[derive(Clone, Debug)]
pub struct OvsfTree;

impl OvsfTree {
    /// Returns OVSF code `index` at spreading factor `sf` as ±1 chips.
    ///
    /// `sf` must be a power of two; `index < sf`. Recurrence:
    /// `C(2k) = [C(k), C(k)]`, `C(2k+1) = [C(k), −C(k)]` — equivalent to
    /// Walsh–Hadamard rows in natural (bit-reversed Hadamard) order.
    pub fn code(sf: usize, index: usize) -> Vec<i8> {
        assert!(sf.is_power_of_two() && sf >= 1);
        assert!(index < sf, "index {index} out of range for SF {sf}");
        let mut code = vec![1i8];
        let mut idx = index;
        // Build the branch decisions from the root: examine bits of `index`
        // from MSB (of the sf-width) to LSB.
        let levels = sf.trailing_zeros();
        let mut decisions = Vec::with_capacity(levels as usize);
        for _ in 0..levels {
            decisions.push(idx & 1);
            idx >>= 1;
        }
        decisions.reverse();
        for d in decisions {
            let mut next = Vec::with_capacity(code.len() * 2);
            next.extend_from_slice(&code);
            if d == 0 {
                next.extend_from_slice(&code);
            } else {
                next.extend(code.iter().map(|c| -c));
            }
            code = next;
        }
        code
    }
}

/// Complex scrambling code built as a degree-18 **Gold** sequence, the
/// UMTS downlink construction (TS 25.213): two m-sequences
/// (x¹⁸+x⁷+1 and x¹⁸+x¹⁰+x⁷+x⁵+1) XOR-combined, with the code number
/// selecting the relative phase. Distinct code numbers therefore give
/// distinct Gold-family members with *bounded* cross-correlation — not
/// mere time shifts of one sequence.
#[derive(Clone, Debug)]
pub struct ScramblingCode {
    x: Lfsr,
    y: Lfsr,
}

impl ScramblingCode {
    /// Creates the scrambling code with the given code number
    /// (`0 ≤ n < 2¹⁸ − 1` meaningful; larger values wrap).
    pub fn new(code_number: u64) -> Self {
        let mut x = Lfsr::new(18, 0x81, 1); // x^18 + x^7 + 1
        let y = Lfsr::new(18, 0x4A1, (1 << 18) - 1); // x^18+x^10+x^7+x^5+1
                                                     // Phase the first register by the code number.
        for _ in 0..(code_number % ((1 << 18) - 1)) {
            x.next_bit();
        }
        ScramblingCode { x, y }
    }

    /// Next scrambling chip as (I, Q) in {±1}².
    ///
    /// I is the Gold bit `x₀ ⊕ y₀`; Q combines shifted register taps
    /// (a second Gold-family sequence, as 25.213's delayed combination).
    #[inline]
    pub fn next_chip(&mut self) -> (i8, i8) {
        let xi = (self.x.state & 1) as u8;
        let yi = (self.y.state & 1) as u8;
        let xq = ((self.x.state >> 5) & 1) as u8;
        let yq = ((self.y.state >> 7) & 1) as u8;
        self.x.next_bit();
        self.y.next_bit();
        (1 - 2 * (xi ^ yi) as i8, 1 - 2 * (xq ^ yq) as i8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` chips drawn from `next`.
    fn period_chips(n: usize, next: impl FnMut() -> i8) -> Vec<i8> {
        std::iter::repeat_with(next).take(n).collect()
    }

    /// Normalised periodic cross-correlation of two ±1 sequences at `shift`.
    fn periodic_correlation(a: &[i8], b: &[i8], shift: usize) -> f64 {
        assert_eq!(a.len(), b.len());
        let n = a.len();
        let acc: i64 = (0..n)
            .map(|i| (a[i] as i64) * (b[(i + shift) % n] as i64))
            .sum();
        acc as f64 / n as f64
    }

    #[test]
    fn m_sequence_has_full_period() {
        for degree in [5u32, 7, 9, 10] {
            let mut lfsr = Lfsr::m_sequence(degree, 1);
            let period = lfsr.period();
            let initial = lfsr.state;
            let mut count = 0u64;
            loop {
                lfsr.next_bit();
                count += 1;
                if lfsr.state == initial {
                    break;
                }
                assert!(count <= period, "degree {degree} not primitive");
            }
            assert_eq!(count, period, "degree {degree}");
        }
    }

    #[test]
    fn m_sequence_is_balanced() {
        // An m-sequence of period 2^n−1 contains 2^{n−1} ones.
        let mut lfsr = Lfsr::m_sequence(9, 1);
        let ones: u64 = (0..lfsr.period()).map(|_| lfsr.next_bit() as u64).sum();
        assert_eq!(ones, 256);
    }

    #[test]
    fn m_sequence_autocorrelation_is_two_valued() {
        let mut lfsr = Lfsr::m_sequence(7, 1);
        let n = lfsr.period() as usize;
        let chips = period_chips(n, || lfsr.next_chip());
        assert!((periodic_correlation(&chips, &chips, 0) - 1.0).abs() < 1e-12);
        for shift in 1..n {
            let c = periodic_correlation(&chips, &chips, shift);
            assert!((c + 1.0 / n as f64).abs() < 1e-12, "shift {shift}: {c}");
        }
    }

    #[test]
    fn ovsf_codes_are_orthogonal_within_sf() {
        for sf in [4usize, 8, 16, 64] {
            for i in 0..sf.min(8) {
                for j in 0..sf.min(8) {
                    let a = OvsfTree::code(sf, i);
                    let b = OvsfTree::code(sf, j);
                    let dot: i32 = a
                        .iter()
                        .zip(&b)
                        .map(|(x, y)| (*x as i32) * (*y as i32))
                        .sum();
                    if i == j {
                        assert_eq!(dot, sf as i32);
                    } else {
                        assert_eq!(dot, 0, "SF {sf} codes {i},{j}");
                    }
                }
            }
        }
    }

    #[test]
    fn ovsf_root_is_all_ones() {
        assert_eq!(OvsfTree::code(1, 0), vec![1]);
        assert_eq!(OvsfTree::code(2, 0), vec![1, 1]);
        assert_eq!(OvsfTree::code(2, 1), vec![1, -1]);
    }

    #[test]
    fn ovsf_child_repeats_or_negates_parent() {
        let parent = OvsfTree::code(8, 3);
        let c0 = OvsfTree::code(16, 6);
        let c1 = OvsfTree::code(16, 7);
        assert_eq!(&c0[..8], &parent[..]);
        assert_eq!(&c0[8..], &parent[..]);
        assert_eq!(&c1[..8], &parent[..]);
        let neg: Vec<i8> = parent.iter().map(|c| -c).collect();
        assert_eq!(&c1[8..], &neg[..]);
    }

    #[test]
    fn scrambling_codes_differ_by_number() {
        let mut s1 = ScramblingCode::new(42);
        let mut s2 = ScramblingCode::new(1337);
        let a: Vec<(i8, i8)> = (0..64).map(|_| s1.next_chip()).collect();
        let b: Vec<(i8, i8)> = (0..64).map(|_| s2.next_chip()).collect();
        assert_ne!(a, b);
    }

    #[test]
    fn scrambling_chips_are_unit_modulus() {
        let mut s = ScramblingCode::new(7);
        for _ in 0..256 {
            let (i, q) = s.next_chip();
            assert!(i == 1 || i == -1);
            assert!(q == 1 || q == -1);
        }
    }
}
