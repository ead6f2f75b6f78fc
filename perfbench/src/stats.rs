//! Seeded input generation and order statistics.

/// SplitMix64 finaliser: a bijective 64-bit mixer.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A small seeded generator for sizes, orders and payload bytes.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(mix(seed ^ stream.rotate_left(32)))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix(self.0)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo + 1)
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            let j = (self.next_u64() % (i as u64 + 1)) as usize;
            v.swap(i, j);
        }
    }
}

/// Bytes `off..off + len` of the seeded content stream `stream`. Any range
/// can be regenerated independently, so readers check each chunk as it
/// arrives without keeping the whole file.
pub fn content(seed: u64, stream: u64, off: usize, len: usize) -> Vec<u8> {
    let key = mix(seed) ^ mix(stream.wrapping_add(0x5EED));
    let mut out = Vec::with_capacity(len + 8);
    let mut word = off / 8;
    let skip = off % 8;
    while out.len() < len + skip {
        out.extend_from_slice(&mix(key ^ word as u64).to_le_bytes());
        word += 1;
    }
    out.drain(..skip);
    out.truncate(len);
    out
}

/// Percentile `q` (0..=100) of an ascending slice: the Harrell-Davis
/// estimate, a weighted mean of every order statistic with Beta weights.
/// The model charges fixed costs, so many operations cost exactly the same;
/// a plain order statistic then jumps between those levels, where this
/// estimate moves smoothly with the share of operations at each level.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n < 2 {
        return sorted.first().copied().unwrap_or(0.0);
    }
    let p = q / 100.0;
    let (a, b) = ((n as f64 + 1.0) * p, (n as f64 + 1.0) * (1.0 - p));
    if b <= 0.0 {
        return sorted[n - 1];
    }
    let mut below = 0.0;
    let mut sum = 0.0;
    for (i, x) in sorted.iter().enumerate() {
        let upto = beta_cdf(a, b, (i + 1) as f64 / n as f64);
        sum += (upto - below) * x;
        below = upto;
    }
    sum
}

/// ln Γ(x) for x > 0 (Lanczos, g = 7).
fn ln_gamma(x: f64) -> f64 {
    const C: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    let x = x - 1.0;
    let t = x + 7.5;
    let series = C[1..]
        .iter()
        .enumerate()
        .fold(C[0], |s, (i, c)| s + c / (x + i as f64 + 1.0));
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + series.ln()
}

/// The regularised incomplete beta function I_x(a, b): the CDF of
/// Beta(a, b) at `x`, by its continued fraction (modified Lentz).
fn beta_cdf(a: f64, b: f64, x: f64) -> f64 {
    if x <= 0.0 {
        return 0.0;
    }
    if x >= 1.0 {
        return 1.0;
    }
    // The fraction converges fast only below the mean; use the symmetry
    // I_x(a, b) = 1 - I_{1-x}(b, a) above it.
    if x > (a + 1.0) / (a + b + 2.0) {
        return 1.0 - beta_cdf(b, a, 1.0 - x);
    }
    let front =
        (ln_gamma(a + b) - ln_gamma(a) - ln_gamma(b) + a * x.ln() + b * (1.0 - x).ln()).exp() / a;
    let tiny = 1e-300;
    let (mut c, mut d) = (1.0, 1.0 - (a + b) * x / (a + 1.0));
    d = 1.0 / if d.abs() < tiny { tiny } else { d };
    let mut f = d;
    for m in 1..10_000 {
        let m = m as f64;
        for num in [
            m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2.0 * m) * (a + 2.0 * m + 1.0)),
        ] {
            d = 1.0 + num * d;
            d = 1.0 / if d.abs() < tiny { tiny } else { d };
            c = 1.0 + num / c;
            if c.abs() < tiny {
                c = tiny;
            }
            f *= c * d;
        }
        if (c * d - 1.0).abs() < 1e-15 {
            break;
        }
    }
    front * f
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(v: &[f64]) -> f64 {
    percentile(&sorted(v.to_vec()), 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_ranges_agree_with_the_whole_stream() {
        let whole = content(7, 3, 0, 100);
        assert_eq!(content(7, 3, 13, 40), whole[13..53].to_vec());
        assert_ne!(content(8, 3, 0, 100), whole);
    }

    #[test]
    fn beta_cdf_matches_closed_forms() {
        // Beta(1, 1) is uniform; Beta(2, 1) has CDF x^2.
        assert!((beta_cdf(1.0, 1.0, 0.3) - 0.3).abs() < 1e-12);
        assert!((beta_cdf(2.0, 1.0, 0.6) - 0.36).abs() < 1e-12);
        assert!((beta_cdf(50.0, 50.0, 0.5) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_is_symmetric_and_moves_with_the_mix() {
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        assert!((percentile(&v, 50.0) - 5.0).abs() < 1e-9);
        let mostly_low = [vec![1.0; 60], vec![2.0; 40]].concat();
        let mostly_high = [vec![1.0; 40], vec![2.0; 60]].concat();
        assert!(percentile(&mostly_low, 50.0) < percentile(&mostly_high, 50.0));
    }
}
