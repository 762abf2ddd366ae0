//! Interleavers: generic permutation plumbing, the 25.212 first (block)
//! interleaver, and the turbo code's prime interleaver.

/// An arbitrary permutation usable for bits or LLRs.
///
/// `perm[i] = j` means output position `i` takes input position `j`
/// (gather form), so `interleave` and `deinterleave` are exact inverses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Interleaver {
    perm: Vec<u32>,
}

impl Interleaver {
    /// Wraps a permutation, validating that it is one.
    pub fn new(perm: Vec<u32>) -> Self {
        let n = perm.len();
        let mut seen = vec![false; n];
        for &p in &perm {
            assert!((p as usize) < n && !seen[p as usize], "not a permutation");
            seen[p as usize] = true;
        }
        Interleaver { perm }
    }

    /// The 25.212 §4.2.5 first-interleaver style block interleaver:
    /// write row-wise into `cols` columns, permute columns by bit-reversal
    /// order, read column-wise. `n` must be a multiple of `cols`.
    pub fn block(n: usize, cols: usize) -> Self {
        assert!(
            cols >= 1 && n.is_multiple_of(cols),
            "n must be a multiple of cols"
        );
        let rows = n / cols;
        // Inter-column permutation: bit-reversed order when cols is a power
        // of two (matching the spec's patterns for C = 1,2,4,8), otherwise
        // a simple stride permutation.
        let col_perm: Vec<usize> = if cols.is_power_of_two() {
            let bits = cols.trailing_zeros();
            (0..cols)
                .map(|c| (c as u32).reverse_bits() as usize >> (32 - bits.max(1)))
                .map(|c| if cols == 1 { 0 } else { c })
                .collect()
        } else {
            let stride = (1..cols).find(|s| gcd(*s, cols) == 1).unwrap_or(1);
            (0..cols).map(|c| (c * stride) % cols).collect()
        };
        let mut perm = Vec::with_capacity(n);
        for &c in &col_perm {
            for r in 0..rows {
                perm.push((r * cols + c) as u32);
            }
        }
        Interleaver::new(perm)
    }

    /// Length of the permutation.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// `true` if the permutation is empty.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// Raw permutation table (gather form).
    pub fn table(&self) -> &[u32] {
        &self.perm
    }

    /// Applies the permutation: `out[i] = input[perm[i]]`.
    pub fn interleave<T: Copy>(&self, input: &[T], out: &mut Vec<T>) {
        assert_eq!(input.len(), self.perm.len());
        out.clear();
        out.reserve(input.len());
        out.extend(self.perm.iter().map(|&p| input[p as usize]));
    }

    /// Applies the inverse permutation: `out[perm[i]] = input[i]`.
    pub fn deinterleave<T: Copy + Default>(&self, input: &[T], out: &mut Vec<T>) {
        assert_eq!(input.len(), self.perm.len());
        out.clear();
        out.resize(input.len(), T::default());
        for (i, &p) in self.perm.iter().enumerate() {
            out[p as usize] = input[i];
        }
    }
}

fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The 25.212-family prime interleaver used inside the turbo code.
///
/// Structure per the spec (§4.2.3.2.3): the K bits are written row-wise
/// into an R×C matrix (R ∈ {5, 10, 20}); each row is permuted by powers of
/// a primitive root v of a prime p (with per-row prime strides q_i); rows
/// are then permuted; the matrix is read column-wise and pruned to K.
///
/// The fixed inter-row pattern tables of the spec are replaced by a
/// deterministic derived pattern (documented in DESIGN.md); encoder and
/// decoder share the permutation, so performance is equivalent.
pub fn prime_interleaver(k: usize) -> Interleaver {
    assert!(
        (40..=5114).contains(&k),
        "25.212 turbo K range is 40..=5114, got {k}"
    );
    // Number of rows.
    let r = if (40..=159).contains(&k) {
        5
    } else if (160..=200).contains(&k) || (481..=530).contains(&k) {
        10
    } else {
        20
    };
    // Prime p: smallest prime with k ≤ r·(p+1).
    let mut p = 7usize;
    while r * (p + 1) < k {
        p = next_prime(p + 1);
    }
    // Number of columns.
    let c = if k <= r * (p - 1) {
        p - 1
    } else if k <= r * p {
        p
    } else {
        p + 1
    };
    let v = primitive_root(p);

    // Base intra-row sequence s(j) = v^j mod p, j = 0..p-2.
    let mut s = vec![0usize; p - 1];
    s[0] = 1;
    for j in 1..p - 1 {
        s[j] = (s[j - 1] * v) % p;
    }

    // Per-row prime strides q_i: q_0 = 1, then least primes > q_{i-1}
    // coprime to p−1.
    let mut q = vec![1usize; r];
    let mut candidate = 2usize;
    for qi in q.iter_mut().skip(1) {
        loop {
            if is_prime(candidate) && gcd(candidate, p - 1) == 1 {
                *qi = candidate;
                candidate += 1;
                break;
            }
            candidate += 1;
        }
    }

    // Inter-row permutation: derived deterministic pattern (spec uses fixed
    // tables). Reversal with an interior swap keeps last-row pruning sane
    // while decorrelating adjacent rows.
    let mut row_perm: Vec<usize> = (0..r).rev().collect();
    if r >= 4 {
        row_perm.swap(1, r / 2);
    }

    // r_i = q_{T(i)} per the spec's assignment of strides to permuted rows.
    let rstride: Vec<usize> = (0..r).map(|i| q[row_perm[i]]).collect();

    // Intra-row permutation U_i(j) for each (permuted) row.
    let mut intra = vec![vec![0usize; c]; r];
    for i in 0..r {
        match c {
            _ if c == p - 1 => {
                for j in 0..p - 1 {
                    intra[i][j] = s[(j * rstride[i]) % (p - 1)] - 1;
                }
            }
            _ if c == p => {
                for j in 0..p - 1 {
                    intra[i][j] = s[(j * rstride[i]) % (p - 1)];
                }
                intra[i][p - 1] = 0;
            }
            _ => {
                // c == p + 1
                for j in 0..p - 1 {
                    intra[i][j] = s[(j * rstride[i]) % (p - 1)];
                }
                intra[i][p - 1] = 0;
                intra[i][p] = p;
                // Spec exchange for K = R·C exactly.
                if k == r * c {
                    intra[r - 1].swap(p, 0);
                }
            }
        }
    }

    // Read column-wise with rows in permuted order, pruning indices ≥ k.
    let mut perm = Vec::with_capacity(k);
    #[allow(clippy::needless_range_loop)] // col indexes every row's intra table
    for col in 0..c {
        for row in 0..r {
            let src_row = row_perm[row];
            let idx = src_row * c + intra[row][col];
            if idx < k {
                perm.push(idx as u32);
            }
        }
    }
    assert_eq!(perm.len(), k, "pruning mismatch: {} vs {k}", perm.len());
    Interleaver::new(perm)
}

fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2;
    while d * d <= n {
        if n.is_multiple_of(d) {
            return false;
        }
        d += 1;
    }
    true
}

fn next_prime(mut n: usize) -> usize {
    while !is_prime(n) {
        n += 1;
    }
    n
}

/// Least primitive root of prime `p`.
fn primitive_root(p: usize) -> usize {
    // Factor p−1, then test candidates g: g is primitive iff
    // g^((p−1)/f) ≠ 1 for every prime factor f.
    let mut factors = Vec::new();
    let mut m = p - 1;
    let mut d = 2;
    while d * d <= m {
        if m.is_multiple_of(d) {
            factors.push(d);
            while m.is_multiple_of(d) {
                m /= d;
            }
        }
        d += 1;
    }
    if m > 1 {
        factors.push(m);
    }
    'outer: for g in 2..p {
        for &f in &factors {
            if pow_mod(g, (p - 1) / f, p) == 1 {
                continue 'outer;
            }
        }
        return g;
    }
    unreachable!("every prime has a primitive root")
}

fn pow_mod(mut base: usize, mut exp: usize, modulus: usize) -> usize {
    let mut acc = 1usize;
    base %= modulus;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % modulus;
        }
        base = base * base % modulus;
        exp >>= 1;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimum spread `min |perm[i] − perm[i+1]|` — the figure of merit
    /// that makes turbo interleavers break up error bursts.
    fn min_adjacent_spread(il: &Interleaver) -> usize {
        il.table()
            .windows(2)
            .map(|w| (w[0] as isize - w[1] as isize).unsigned_abs())
            .min()
            .unwrap_or(0)
    }

    #[test]
    fn interleave_deinterleave_roundtrip() {
        let il = Interleaver::block(24, 4);
        let data: Vec<u32> = (0..24).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        il.interleave(&data, &mut a);
        assert_ne!(a, data, "block interleaver must permute");
        il.deinterleave(&a, &mut b);
        assert_eq!(b, data);
    }

    #[test]
    #[should_panic(expected = "not a permutation")]
    fn rejects_non_permutation() {
        let _ = Interleaver::new(vec![0, 0, 1]);
    }

    #[test]
    fn block_interleaver_separates_neighbours() {
        let il = Interleaver::block(64, 8);
        // Adjacent outputs come from positions ≥ cols apart (within a column
        // read, consecutive reads differ by `cols`).
        assert!(min_adjacent_spread(&il) >= 7);
    }

    #[test]
    fn prime_interleaver_is_valid_for_spec_range() {
        for k in [40usize, 100, 159, 160, 200, 320, 481, 530, 1000, 2048, 5114] {
            let il = prime_interleaver(k);
            assert_eq!(il.len(), k, "K={k}");
        }
    }

    #[test]
    fn prime_interleaver_roundtrip() {
        let il = prime_interleaver(320);
        let data: Vec<u32> = (0..320).collect();
        let (mut a, mut b) = (Vec::new(), Vec::new());
        il.interleave(&data, &mut a);
        il.deinterleave(&a, &mut b);
        assert_eq!(b, data);
    }

    #[test]
    fn prime_interleaver_has_spread() {
        // The whole point of the turbo interleaver: adjacent bits end up far
        // apart. No adjacent input pair may stay adjacent, and the mean
        // displacement must be a sizeable fraction of the block.
        let il = prime_interleaver(1024);
        assert!(
            min_adjacent_spread(&il) >= 2,
            "min spread {}",
            min_adjacent_spread(&il)
        );
        let mean: f64 = il
            .table()
            .windows(2)
            .map(|w| (w[0] as f64 - w[1] as f64).abs())
            .sum::<f64>()
            / (il.len() - 1) as f64;
        assert!(mean > 100.0, "mean spread {mean} too small for K=1024");
    }

    #[test]
    #[should_panic(expected = "40..=5114")]
    fn prime_interleaver_rejects_out_of_range() {
        let _ = prime_interleaver(20);
    }

    #[test]
    fn primitive_root_reference_values() {
        assert_eq!(primitive_root(7), 3);
        assert_eq!(primitive_root(11), 2);
        assert_eq!(primitive_root(23), 5);
        assert_eq!(primitive_root(41), 6);
    }

    #[test]
    fn helper_prime_functions() {
        assert!(is_prime(2) && is_prime(53) && !is_prime(1) && !is_prime(91));
        assert_eq!(next_prime(8), 11);
        assert_eq!(next_prime(13), 13);
        assert_eq!(pow_mod(3, 6, 7), 1);
    }
}
