//! Simplified 25.212 rate matching: deterministic puncturing / repetition
//! from `n_in` coded bits to `n_out` transmitted bits.
//!
//! The spec's error-accumulation loop (§4.2.7.5) is reproduced; the
//! surrounding bit-separation plumbing for turbo parity streams is not
//! (the payload applies rate matching to the serialised coded stream).

/// A rate-matching pattern from `n_in` to `n_out` positions.
#[derive(Clone, Debug)]
pub struct RateMatcher {
    n_in: usize,
    n_out: usize,
    /// For puncturing: kept input indices. For repetition: source index of
    /// every output.
    map: Vec<u32>,
}

impl RateMatcher {
    /// Builds the pattern using the 25.212 error-accumulation rule.
    pub fn new(n_in: usize, n_out: usize) -> Self {
        assert!(n_in > 0 && n_out > 0);
        let mut map = Vec::with_capacity(n_out);
        if n_out <= n_in {
            // Puncture n_in − n_out bits, evenly spread.
            let to_drop = (n_in - n_out) as isize;
            let mut e: isize = n_in as isize; // e_ini
            for i in 0..n_in {
                e -= 2 * to_drop;
                if e <= 0 {
                    e += 2 * n_in as isize; // punctured: skip bit i
                } else {
                    map.push(i as u32);
                }
            }
        } else {
            // Repeat n_out − n_in bits, evenly spread.
            let to_add = (n_out - n_in) as isize;
            let mut e: isize = n_in as isize;
            for i in 0..n_in {
                map.push(i as u32);
                e -= 2 * to_add;
                while e <= 0 {
                    map.push(i as u32); // repeated
                    e += 2 * n_in as isize;
                }
            }
        }
        assert_eq!(
            map.len(),
            n_out,
            "rate matching produced {} of {n_out}",
            map.len()
        );
        RateMatcher { n_in, n_out, map }
    }

    /// Applies the pattern to coded bits (or symbols).
    pub fn apply<T: Copy>(&self, input: &[T], out: &mut Vec<T>) {
        assert_eq!(input.len(), self.n_in);
        out.clear();
        out.reserve(self.n_out);
        out.extend(self.map.iter().map(|&i| input[i as usize]));
    }

    /// Reverses the pattern on received LLRs: punctured positions become
    /// erasures (0.0), repeated positions are soft-combined by addition.
    pub fn invert_llrs(&self, llrs: &[f64], out: &mut Vec<f64>) {
        assert_eq!(llrs.len(), self.n_out);
        out.clear();
        out.resize(self.n_in, 0.0);
        for (rx, &src) in llrs.iter().zip(&self.map) {
            out[src as usize] += rx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_when_sizes_match() {
        let rm = RateMatcher::new(48, 48);
        let data: Vec<u32> = (0..48).collect();
        let mut out = Vec::new();
        rm.apply(&data, &mut out);
        assert_eq!(out, data);
    }

    #[test]
    fn puncturing_drops_evenly() {
        let rm = RateMatcher::new(100, 75);
        let data: Vec<u32> = (0..100).collect();
        let mut out = Vec::new();
        rm.apply(&data, &mut out);
        assert_eq!(out.len(), 75);
        // Kept indices strictly increasing → a subsequence.
        assert!(out.windows(2).all(|w| w[0] < w[1]));
        // Even spread: no gap larger than 3 for 1-in-4 puncturing.
        for w in out.windows(2) {
            assert!(w[1] - w[0] <= 3, "gap {w:?}");
        }
    }

    #[test]
    fn repetition_duplicates_evenly() {
        let rm = RateMatcher::new(60, 90);
        let data: Vec<u32> = (0..60).collect();
        let mut out = Vec::new();
        rm.apply(&data, &mut out);
        assert_eq!(out.len(), 90);
        // Every input index appears once or twice, in order.
        let mut counts = vec![0usize; 60];
        for &v in &out {
            counts[v as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c == 1 || c == 2));
        assert_eq!(counts.iter().filter(|&&c| c == 2).count(), 30);
    }

    #[test]
    fn llr_inversion_combines_repeats_and_erases_punctures() {
        // Repetition: soft combining doubles the LLR.
        let rm = RateMatcher::new(4, 8);
        let mut tx = Vec::new();
        rm.apply(&[10.0f64, 20.0, 30.0, 40.0], &mut tx);
        let mut rx = Vec::new();
        rm.invert_llrs(&tx, &mut rx);
        assert_eq!(rx, vec![20.0, 40.0, 60.0, 80.0]);

        // Puncturing: dropped positions come back as 0 (erasure).
        let rm = RateMatcher::new(8, 6);
        let llrs = vec![1.0f64; 6];
        let mut rx = Vec::new();
        rm.invert_llrs(&llrs, &mut rx);
        assert_eq!(rx.len(), 8);
        assert_eq!(rx.iter().filter(|&&v| v == 0.0).count(), 2);
        assert_eq!(rx.iter().filter(|&&v| v == 1.0).count(), 6);
    }

    #[test]
    fn extreme_ratios_still_valid() {
        let rm = RateMatcher::new(10, 30);
        let data: Vec<u8> = (0..10).collect();
        let mut out = Vec::new();
        rm.apply(&data, &mut out);
        assert_eq!(out.len(), 30);
        let rm2 = RateMatcher::new(30, 10);
        let data2: Vec<u8> = (0..30).collect();
        rm2.apply(&data2, &mut out);
        assert_eq!(out.len(), 10);
    }
}
