//! Deterministic complex Gaussian noise.
//!
//! Every stochastic element of the simulator (thermal noise, multipath tap
//! realizations, payload bits) is driven by seeded [`crate::rng`] generators
//! so that every figure in EXPERIMENTS.md is exactly reproducible.

use crate::rng::Rng;
use crate::Complex;
use std::sync::OnceLock;

/// Draw one circularly-symmetric complex Gaussian sample with total variance
/// `var` (i.e. `var/2` per real component).
#[inline]
pub fn cgauss<R: Rng + ?Sized>(rng: &mut R, var: f64) -> Complex {
    cgauss_sd(rng, (var / 2.0).sqrt())
}

/// Draw one circularly-symmetric complex Gaussian sample with standard
/// deviation `sd` per real component — [`cgauss`] with the square root
/// hoisted out, for loops that draw many samples of one power.
#[inline]
pub fn cgauss_sd<R: Rng + ?Sized>(rng: &mut R, sd: f64) -> Complex {
    Complex::new(sd * gauss(rng), sd * gauss(rng))
}

/// Standard normal via the Marsaglia–Tsang ziggurat (J. Stat. Softw. 5(8),
/// 2000) with 256 layers of equal area under `exp(-x²/2)`.
///
/// One [`Rng::next_u64`] word feeds the common case: its low 8 bits pick a
/// layer, its high 53 bits a signed uniform `u ∈ [-1, 1)`, and
/// `x = u·X[i]` is accepted at once when it falls inside the next layer's
/// rectangle (≈ 99% of draws). Otherwise `gauss_slow` runs the wedge
/// test, or for the base layer draws the tail beyond R ≈ 3.654.
#[inline]
pub fn gauss<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let t = tables();
    let bits = rng.next_u64();
    let i = (bits & 0xff) as usize;
    let x = ((bits >> 11) as f64 * SIGNED_UNIT - 1.0) * t.x[i];
    if x.abs() < t.x[i + 1] {
        return x;
    }
    gauss_slow(rng, t, i, x)
}

/// Right edge of the ziggurat's base layer: beyond it lies the tail, drawn
/// by Marsaglia's exponential rejection. A normal sample exceeds it in
/// magnitude with probability `erfc(ZIG_R/√2)` ≈ 2.58e-4.
const ZIG_R: f64 = 3.654_152_885_361_009;

/// Area of each of the 256 layers (the base layer includes the tail).
const ZIG_V: f64 = 4.928_673_233_99e-3;

/// `2⁻⁵²`: maps 53 random bits `k` to `k·2⁻⁵² − 1 ∈ [-1, 1)`.
const SIGNED_UNIT: f64 = 1.0 / (1u64 << 52) as f64;

/// Layer edges and densities: `x[i]` is the right edge of layer `i`
/// (`x[0] = V/f(R)` is the base layer's equal-area width, `x[1] = R`,
/// `x[256] = 0`) and `f[i] = exp(-x[i]²/2)`.
struct Ziggurat {
    x: [f64; 257],
    f: [f64; 257],
}

fn tables() -> &'static Ziggurat {
    static TABLES: OnceLock<Ziggurat> = OnceLock::new();
    TABLES.get_or_init(|| {
        let pdf = |x: f64| (-0.5 * x * x).exp();
        let mut x = [0.0; 257];
        x[0] = ZIG_V / pdf(ZIG_R);
        x[1] = ZIG_R;
        for i in 2..256 {
            x[i] = (-2.0 * (ZIG_V / x[i - 1] + pdf(x[i - 1])).ln()).sqrt();
        }
        let f = x.map(pdf);
        Ziggurat { x, f }
    })
}

/// The rare paths of [`gauss`]: the base layer's tail, or the wedge between
/// layer `i`'s inner rectangle and the density curve. A rejected point
/// starts a fresh draw.
#[cold]
fn gauss_slow<R: Rng + ?Sized>(rng: &mut R, t: &Ziggurat, i: usize, x: f64) -> f64 {
    if i == 0 {
        // Tail |x| > R: x = R + e₁/R with e₁, e₂ ~ Exp(1), accepted when
        // 2e₂ ≥ (e₁/R)².
        loop {
            let e1 = -(1.0 - rng.next_f64()).ln() / ZIG_R;
            let e2 = -(1.0 - rng.next_f64()).ln();
            if 2.0 * e2 >= e1 * e1 {
                return if x < 0.0 { -(ZIG_R + e1) } else { ZIG_R + e1 };
            }
        }
    }
    if t.f[i + 1] + (t.f[i] - t.f[i + 1]) * rng.next_f64() < (-0.5 * x * x).exp() {
        return x;
    }
    gauss(rng)
}

/// A vector of i.i.d. complex Gaussian samples with total variance `var`.
pub fn cgauss_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, var: f64) -> Vec<Complex> {
    let sd = (var / 2.0).sqrt();
    (0..n).map(|_| cgauss_sd(rng, sd)).collect()
}

/// Add complex Gaussian noise of power `noise_power` to a signal in place.
pub fn add_noise<R: Rng + ?Sized>(rng: &mut R, x: &mut [Complex], noise_power: f64) {
    if noise_power <= 0.0 {
        return;
    }
    let sd = (noise_power / 2.0).sqrt();
    for v in x.iter_mut() {
        *v += cgauss_sd(rng, sd);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;
    use crate::stats::mean_power;

    #[test]
    fn noise_power_matches_request() {
        let mut rng = SplitMix64::new(7);
        let v = cgauss_vec(&mut rng, 200_000, 2.5);
        let p = mean_power(&v);
        assert!((p - 2.5).abs() < 0.05, "measured power {p}");
    }

    /// A million standard normals: enough for 5σ bands on the tail rates
    /// while staying quick in debug builds.
    fn normals(seed: u64) -> Vec<f64> {
        let mut rng = SplitMix64::new(seed);
        (0..1_000_000).map(|_| gauss(&mut rng)).collect()
    }

    /// Standard normal CDF by Simpson integration of the density from 0.
    fn normal_cdf(x: f64) -> f64 {
        let n = 400;
        let h = x / n as f64;
        let pdf = |t: f64| (-0.5 * t * t).exp() / std::f64::consts::TAU.sqrt();
        let mut s = pdf(0.0) + pdf(x);
        for k in 1..n {
            s += pdf(k as f64 * h) * if k % 2 == 1 { 4.0 } else { 2.0 };
        }
        0.5 + s * h / 3.0
    }

    /// `|count − n·p| < 5σ` for a binomial count.
    fn assert_rate(what: &str, count: usize, n: usize, p: f64) {
        let expect = n as f64 * p;
        let sigma = (expect * (1.0 - p)).sqrt();
        assert!(
            (count as f64 - expect).abs() < 5.0 * sigma,
            "{what}: {count} of {n}, expected {expect:.1} ± {:.1}",
            5.0 * sigma
        );
    }

    #[test]
    fn gauss_mean_and_var() {
        let xs = normals(42);
        let n = xs.len() as f64;
        let m = xs.iter().sum::<f64>() / n;
        let v = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / n;
        let k = xs.iter().map(|x| (x - m).powi(4)).sum::<f64>() / n / (v * v);
        // 5σ bands: σ_mean = 1e-3, σ_var = √(2/n) ≈ 1.4e-3, σ_kurt = √(24/n) ≈ 4.9e-3.
        assert!(m.abs() < 5e-3, "mean {m}");
        assert!((v - 1.0).abs() < 7e-3, "var {v}");
        assert!((k - 3.0).abs() < 0.025, "kurtosis {k}");
    }

    #[test]
    fn gauss_tail_rates_match_standard_normal() {
        let xs = normals(43);
        let beyond = |t: f64| xs.iter().filter(|x| x.abs() > t).count();
        // P(|x| > 3), P(|x| > 4), and P(|x| > R) = erfc(R/√2): only the
        // ziggurat's tail path can return |x| > R.
        assert_rate("|x| > 3", beyond(3.0), xs.len(), 2.699_796e-3);
        assert_rate("|x| > 4", beyond(4.0), xs.len(), 6.334_248e-5);
        assert_rate("|x| > R", beyond(ZIG_R), xs.len(), 2.580_325e-4);
    }

    #[test]
    fn gauss_chi_square_over_equiprobable_bins() {
        const BINS: usize = 64;
        // Bin edges at the k/BINS quantiles, found by bisection on the CDF.
        let edges: Vec<f64> = (1..BINS)
            .map(|k| {
                let q = k as f64 / BINS as f64;
                let (mut lo, mut hi) = (-6.0, 6.0);
                for _ in 0..60 {
                    let mid = 0.5 * (lo + hi);
                    if normal_cdf(mid) < q {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                0.5 * (lo + hi)
            })
            .collect();
        let xs = normals(44);
        let mut counts = [0usize; BINS];
        for &x in &xs {
            counts[edges.partition_point(|&e| e <= x)] += 1;
        }
        let expect = xs.len() as f64 / BINS as f64;
        let chi2: f64 = counts
            .iter()
            .map(|&c| (c as f64 - expect).powi(2) / expect)
            .sum();
        // 99.99th percentile of χ² with 63 degrees of freedom
        // (Wilson–Hilferty): 113.7.
        assert!(chi2 < 113.7, "chi-square {chi2} over {BINS} bins");
    }

    #[test]
    fn ziggurat_tables_match_published_values() {
        let t = tables();
        // Marsaglia & Tsang's 256-layer constants: R = 3.6541528853610088,
        // V = 0.00492867323399; the first table entries as published.
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-14 * b.abs().max(1e-3);
        assert!(close(t.x[0], 3.910_757_959_537_09), "x[0] {}", t.x[0]);
        assert_eq!(t.x[1], ZIG_R);
        assert!(close(t.x[2], 3.449_278_298_560_964), "x[2] {}", t.x[2]);
        assert!(close(t.x[3], 3.320_244_733_839_166), "x[3] {}", t.x[3]);
        assert!(close(t.f[0], 4.774_677_645_866_55e-4), "f[0] {}", t.f[0]);
        assert!(close(t.f[1], 1.260_285_930_498_598e-3), "f[1] {}", t.f[1]);
        assert!(close(t.f[2], 2.609_072_746_106_363e-3), "f[2] {}", t.f[2]);
        assert_eq!((t.x[256], t.f[256]), (0.0, 1.0));
        // Every layer above the base has area V.
        for i in 1..256 {
            let area = t.x[i] * (t.f[i + 1] - t.f[i]);
            assert!((area / ZIG_V - 1.0).abs() < 1e-6, "layer {i} area {area}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let mut a = SplitMix64::new(1);
        let mut b = SplitMix64::new(1);
        assert_eq!(cgauss_vec(&mut a, 16, 1.0), cgauss_vec(&mut b, 16, 1.0));
    }

    #[test]
    fn zero_power_noise_is_noop() {
        let mut rng = SplitMix64::new(3);
        let mut x = vec![Complex::ONE; 8];
        add_noise(&mut rng, &mut x, 0.0);
        assert!(x.iter().all(|v| (*v - Complex::ONE).abs() < 1e-15));
    }

    #[test]
    fn add_noise_raises_power() {
        let mut rng = SplitMix64::new(9);
        let mut x = vec![Complex::ZERO; 100_000];
        add_noise(&mut rng, &mut x, 0.7);
        let p = mean_power(&x);
        assert!((p - 0.7).abs() < 0.03, "{p}");
    }
}
