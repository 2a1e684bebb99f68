//! Fast Fourier transforms, implemented from scratch.
//!
//! Provides a Stockham autosort FFT (mixed radix 4/2) for power-of-two
//! lengths and Bluestein's chirp-z algorithm for arbitrary lengths, so
//! callers never need to care whether their chirp happens to contain 2ᵏ
//! samples.
//!
//! Three layers keep the hot FMCW paths fast and allocation-free:
//!
//! * [`FftPlanner`] caches one [`FftPlan`] per length behind a process-wide
//!   mutex with a thread-local fast path, so the one-shot helpers ([`fft`],
//!   [`ifft`]) pay twiddle precomputation once per length instead of once
//!   per call.
//! * [`FftPlan::process_with_scratch`] and
//!   [`FftPlan::process_many_with_scratch`] run transforms — including the
//!   Bluestein convolution — without any per-call heap allocation; the
//!   one-shot helpers reuse a thread-local scratch.
//! * The kernel is planar: the interleaved `Complex` buffer is split into
//!   separate re/im planes inside the scratch, every butterfly becomes an
//!   elementwise `f64` loop the compiler can vectorize, and the Stockham
//!   ping-pong between planes removes the bit-reversal pass entirely.

use crate::complex::Complex;
use std::cell::RefCell;
use std::f64::consts::PI;
use std::sync::Arc;

use parking_lot::Mutex;

/// Direction of a transform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Forward DFT: `X[k] = Σ x[n]·e^{-j2πkn/N}`.
    Forward,
    /// Inverse DFT, normalized by `1/N`.
    Inverse,
}

/// A reusable FFT plan for a fixed length.
///
/// Construction precomputes twiddle factors (and, for non-power-of-two
/// lengths, the Bluestein chirp and its transformed filter), so repeated
/// transforms of equal-length buffers only pay the butterfly cost. Plans are
/// cheap to share: [`FftPlanner::plan`] returns `Arc<FftPlan>` and plans are
/// `Send + Sync`, so worker threads can transform concurrently, each with
/// its own scratch.
#[derive(Debug, Clone)]
pub struct FftPlan {
    n: usize,
    kind: PlanKind,
}

#[derive(Debug, Clone)]
enum PlanKind {
    /// Power of two: Stockham autosort kernel, mixed radix 4/2.
    /// `base[k] = e^{-j2πk/n}` for `k < n/2`; every stage twiddle is a
    /// strided read (or exact negation, via the half-period symmetry) of
    /// this one table. `w2f`/`w3f` pack the first radix-4 stage's `w^{2p}`
    /// and `w^{3p}` twiddles contiguously (built only when that stage
    /// exists, i.e. log₂(n) even and n ≥ 16) so its single long loop reads
    /// every operand at unit stride.
    Pow2 {
        base: Vec<Complex>,
        w2f: Vec<Complex>,
        w3f: Vec<Complex>,
    },
    /// Bluestein: embed length-n DFT into a length-m (power of two ≥ 2n-1)
    /// circular convolution. The inner power-of-two plan comes from the
    /// planner cache, so every Bluestein length shares one copy of it.
    /// Chirp and filter live as re/im planes to match the planar kernel.
    Bluestein {
        m: usize,
        inner: Arc<FftPlan>,
        /// `e^{-jπ k²/n}` chirp, length n, split into planes.
        chirp_re: Vec<f64>,
        chirp_im: Vec<f64>,
        /// Forward FFT of the zero-padded conjugate chirp filter, length m.
        filter_re: Vec<f64>,
        filter_im: Vec<f64>,
    },
}

impl FftPlan {
    /// Builds a plan for transforms of length `n`.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        if n.is_power_of_two() {
            let base: Vec<Complex> = (0..n / 2)
                .map(|k| Complex::cis(-2.0 * PI * k as f64 / n as f64))
                .collect();
            let (w2f, w3f) = if n >= 16 && n.trailing_zeros().is_multiple_of(2) {
                let m = n / 4;
                let half = n / 2;
                let w2f = (0..m).map(|p| base[2 * p]).collect();
                let w3f = (0..m)
                    .map(|p| {
                        let i = 3 * p;
                        if i < half {
                            base[i]
                        } else {
                            -base[i - half]
                        }
                    })
                    .collect();
                (w2f, w3f)
            } else {
                (Vec::new(), Vec::new())
            };
            Self {
                n,
                kind: PlanKind::Pow2 { base, w2f, w3f },
            }
        } else {
            let m = (2 * n - 1).next_power_of_two();
            let inner = FftPlanner::plan(m);
            let chirp: Vec<Complex> = (0..n)
                .map(|k| {
                    // Use i128 to keep k² exact; reduce mod 2n to bound the
                    // angle and preserve precision for large n.
                    let k2 = (k as i128 * k as i128) % (2 * n as i128);
                    Complex::cis(-PI * k2 as f64 / n as f64)
                })
                .collect();
            let mut filter_re = vec![0.0; m];
            let mut filter_im = vec![0.0; m];
            filter_re[0] = chirp[0].re;
            filter_im[0] = -chirp[0].im;
            for k in 1..n {
                let c = chirp[k].conj();
                filter_re[k] = c.re;
                filter_im[k] = c.im;
                filter_re[m - k] = c.re;
                filter_im[m - k] = c.im;
            }
            let inner_base = inner.pow2_base();
            let mut work = vec![0.0; 2 * m];
            let (wre, wim) = work.split_at_mut(m);
            let stages = planar_fft(&mut filter_re, &mut filter_im, wre, wim, inner_base);
            if stages % 2 == 1 {
                filter_re.copy_from_slice(wre);
                filter_im.copy_from_slice(wim);
            }
            let chirp_re: Vec<f64> = chirp.iter().map(|c| c.re).collect();
            let chirp_im: Vec<f64> = chirp.iter().map(|c| c.im).collect();
            Self {
                n,
                kind: PlanKind::Bluestein {
                    m,
                    inner,
                    chirp_re,
                    chirp_im,
                    filter_re,
                    filter_im,
                },
            }
        }
    }

    /// The transform length this plan was built for.
    pub fn len(&self) -> usize {
        self.n
    }

    /// Returns `true` if the plan length is zero (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Scratch length (in `f64`s) required by [`Self::process_with_scratch`].
    ///
    /// `4n` for power-of-two plans (two re/im plane pairs for the Stockham
    /// ping-pong), `4m` for Bluestein plans (the planar length-`m`
    /// convolution workspace plus the inner plan's second plane pair).
    pub fn scratch_len(&self) -> usize {
        match &self.kind {
            PlanKind::Pow2 { .. } => {
                if self.n == 1 {
                    0
                } else {
                    4 * self.n
                }
            }
            PlanKind::Bluestein { m, .. } => 4 * m,
        }
    }

    /// Transforms `buf` in place.
    ///
    /// Convenience wrapper over [`Self::process_with_scratch`] that
    /// allocates the scratch. Hot loops should hold a buffer of
    /// [`Self::scratch_len`] and call the scratch variant; one-shot callers
    /// should prefer [`fft`]/[`ifft`], which reuse a thread-local scratch.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan length.
    pub fn process(&self, buf: &mut [Complex], dir: Direction) {
        let mut scratch = vec![0.0; self.scratch_len()];
        self.process_with_scratch(buf, &mut scratch, dir);
    }

    /// Transforms `buf` in place without allocating.
    ///
    /// `scratch` must hold at least [`Self::scratch_len`] elements; its
    /// contents on entry are irrelevant and unspecified on exit.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the plan length or `scratch` is
    /// shorter than [`Self::scratch_len`].
    pub fn process_with_scratch(&self, buf: &mut [Complex], scratch: &mut [f64], dir: Direction) {
        assert_eq!(buf.len(), self.n, "buffer length does not match plan");
        assert!(
            scratch.len() >= self.scratch_len(),
            "scratch too short: {} < {}",
            scratch.len(),
            self.scratch_len()
        );
        let n = self.n;
        match &self.kind {
            PlanKind::Pow2 { base, w2f, w3f } => {
                if n == 1 {
                    return;
                }
                let inverse = dir == Direction::Inverse;
                let (re, rest) = scratch.split_at_mut(n);
                let (im, rest) = rest.split_at_mut(n);
                let (wre, rest) = rest.split_at_mut(n);
                let wim = &mut rest[..n];
                if n < 8 {
                    // Too short for the fused first/last stages to be
                    // distinct; deinterleave, run the generic planar
                    // kernel, re-interleave. The conjugate trick folds the
                    // inverse's conjugations into the copies.
                    for ((r, i), z) in re.iter_mut().zip(im.iter_mut()).zip(buf.iter()) {
                        *r = z.re;
                        *i = if inverse { -z.im } else { z.im };
                    }
                    let stages = planar_fft(re, im, wre, wim, base);
                    let (fre, fim) = if stages.is_multiple_of(2) {
                        (&*re, &*im)
                    } else {
                        (&*wre, &*wim)
                    };
                    let inv_n = 1.0 / n as f64;
                    for ((z, r), i) in buf.iter_mut().zip(fre).zip(fim) {
                        *z = if inverse {
                            Complex::new(*r * inv_n, -*i * inv_n)
                        } else {
                            Complex::new(*r, *i)
                        };
                    }
                    return;
                }
                // Fused pipeline: the first stage reads the interleaved
                // buffer directly (folding in the deinterleave and the
                // inverse's pre-conjugation), middle stages ping-pong
                // between the planar pairs, and the twiddle-free last stage
                // writes straight back to the buffer (folding in the
                // re-interleave plus the inverse's post-conjugation and
                // normalization).
                let (mut sre, mut sim, mut dre, mut dim) = (re, im, wre, wim);
                let mut n_t = n;
                let mut s = 1;
                if n.trailing_zeros() % 2 == 1 {
                    fused_first_r2(buf, sre, sim, base, inverse);
                    n_t /= 2;
                    s *= 2;
                } else {
                    fused_first_r4(buf, sre, sim, base, w2f, w3f, inverse);
                    n_t /= 4;
                    s *= 4;
                }
                while n_t >= 16 {
                    radix4_stage(sre, sim, dre, dim, base, n_t, s);
                    std::mem::swap(&mut sre, &mut dre);
                    std::mem::swap(&mut sim, &mut dim);
                    n_t /= 4;
                    s *= 4;
                }
                debug_assert_eq!(n_t, 4);
                fused_last_r4(sre, sim, buf, inverse);
            }
            PlanKind::Bluestein {
                m,
                inner,
                chirp_re,
                chirp_im,
                filter_re,
                filter_im,
            } => {
                let m = *m;
                let (are, rest) = scratch.split_at_mut(m);
                let (aim, rest) = rest.split_at_mut(m);
                let (wre, rest) = rest.split_at_mut(m);
                let wim = &mut rest[..m];
                // a[k] = x[k]·chirp[k] (x conjugated first for the inverse),
                // zero-padded to m.
                match dir {
                    Direction::Forward => {
                        for k in 0..n {
                            let z = buf[k];
                            let (r, i) = cmul(z.re, z.im, chirp_re[k], chirp_im[k]);
                            are[k] = r;
                            aim[k] = i;
                        }
                    }
                    Direction::Inverse => {
                        for k in 0..n {
                            let z = buf[k];
                            let (r, i) = cmul(z.re, -z.im, chirp_re[k], chirp_im[k]);
                            are[k] = r;
                            aim[k] = i;
                        }
                    }
                }
                are[n..].fill(0.0);
                aim[n..].fill(0.0);
                let base = inner.pow2_base();
                // Forward inner FFT.
                let stages = planar_fft(are, aim, wre, wim, base);
                let ((cre, cim), (ore, oim)) = if stages.is_multiple_of(2) {
                    ((&mut *are, &mut *aim), (&mut *wre, &mut *wim))
                } else {
                    ((&mut *wre, &mut *wim), (&mut *are, &mut *aim))
                };
                // Pointwise filter, fused with the conjugation that starts
                // the inverse inner FFT: c ← conj(c·filter).
                for k in 0..m {
                    let (re, im) = cmul(cre[k], cim[k], filter_re[k], filter_im[k]);
                    cre[k] = re;
                    cim[k] = -im;
                }
                let stages = planar_fft(cre, cim, ore, oim, base);
                let (fre, fim) = if stages.is_multiple_of(2) {
                    (&*cre, &*cim)
                } else {
                    (&*ore, &*oim)
                };
                // Undo the inner conjugation (fold its 1/m and the outer
                // chirp multiply into one pass); conjugate/normalize once
                // more for an inverse outer transform.
                let inv_m = 1.0 / m as f64;
                match dir {
                    Direction::Forward => {
                        for k in 0..n {
                            let (r, i) =
                                cmul(fre[k] * inv_m, -fim[k] * inv_m, chirp_re[k], chirp_im[k]);
                            buf[k] = Complex::new(r, i);
                        }
                    }
                    Direction::Inverse => {
                        let inv_n = 1.0 / n as f64;
                        for k in 0..n {
                            let (r, i) =
                                cmul(fre[k] * inv_m, -fim[k] * inv_m, chirp_re[k], chirp_im[k]);
                            buf[k] = Complex::new(r * inv_n, -i * inv_n);
                        }
                    }
                }
            }
        }
    }

    /// Transforms every length-`n` frame of `data` in place, reusing one
    /// caller-owned scratch across all frames.
    ///
    /// # Panics
    /// Panics if `data.len()` is not a multiple of the plan length or
    /// `scratch` is shorter than [`Self::scratch_len`].
    pub fn process_many_with_scratch(
        &self,
        data: &mut [Complex],
        scratch: &mut [f64],
        dir: Direction,
    ) {
        assert_eq!(
            data.len() % self.n,
            0,
            "data length {} is not a multiple of plan length {}",
            data.len(),
            self.n
        );
        for frame in data.chunks_exact_mut(self.n) {
            self.process_with_scratch(frame, scratch, dir);
        }
    }

    /// The twiddle table of a power-of-two plan.
    ///
    /// # Panics
    /// Panics if the plan is a Bluestein plan (internal misuse).
    fn pow2_base(&self) -> &[Complex] {
        match &self.kind {
            PlanKind::Pow2 { base, .. } => base,
            PlanKind::Bluestein { .. } => unreachable!("inner plan must be power-of-two"),
        }
    }
}

/// Complex multiply on planar components: `(tr + j·ti)·(wr + j·wi)`.
///
/// When the build target has hardware FMA, each component fuses into one
/// multiply plus one `mul_add` (single rounding — exact fused semantics,
/// identical on every FMA target). Without hardware FMA, `mul_add` would
/// lower to a libm call, so the plain two-multiply form is kept instead.
#[inline(always)]
fn cmul(tr: f64, ti: f64, wr: f64, wi: f64) -> (f64, f64) {
    if cfg!(target_feature = "fma") {
        (ti.mul_add(-wi, tr * wr), ti.mul_add(wr, tr * wi))
    } else {
        (tr * wr - ti * wi, tr * wi + ti * wr)
    }
}

/// Fused first Stockham stage, radix-2 (`s = 1`, log₂(n) odd): reads the
/// interleaved buffer directly and writes planar, folding the deinterleave
/// pass (and the inverse transform's pre-conjugation) into the butterfly.
fn fused_first_r2(
    buf: &[Complex],
    dre: &mut [f64],
    dim: &mut [f64],
    base: &[Complex],
    inverse: bool,
) {
    let m = buf.len() / 2;
    let (x0, x1) = buf.split_at(m);
    for (p, ((o, oi), (&a, &b))) in dre
        .chunks_exact_mut(2)
        .zip(dim.chunks_exact_mut(2))
        .zip(x0.iter().zip(x1.iter()))
        .enumerate()
    {
        let sign = if inverse { -1.0 } else { 1.0 };
        let (ar, ai) = (a.re, sign * a.im);
        let (br, bi) = (b.re, sign * b.im);
        let w = base[p];
        o[0] = ar + br;
        oi[0] = ai + bi;
        let (r, i) = cmul(ar - br, ai - bi, w.re, w.im);
        o[1] = r;
        oi[1] = i;
    }
}

/// Fused first Stockham stage, radix-4 (`s = 1`, log₂(n) even, n ≥ 16):
/// reads the interleaved buffer directly and writes planar. The packed
/// `w2f`/`w3f` tables keep every load unit-stride.
fn fused_first_r4(
    buf: &[Complex],
    dre: &mut [f64],
    dim: &mut [f64],
    base: &[Complex],
    w2f: &[Complex],
    w3f: &[Complex],
    inverse: bool,
) {
    let m = buf.len() / 4;
    let (x0, rest) = buf.split_at(m);
    let (x1, rest) = rest.split_at(m);
    let (x2, x3) = rest.split_at(m);
    let sign = if inverse { -1.0 } else { 1.0 };
    for (p, (o, oi)) in dre
        .chunks_exact_mut(4)
        .zip(dim.chunks_exact_mut(4))
        .enumerate()
    {
        let (a0r, a0i) = (x0[p].re, sign * x0[p].im);
        let (a1r, a1i) = (x1[p].re, sign * x1[p].im);
        let (a2r, a2i) = (x2[p].re, sign * x2[p].im);
        let (a3r, a3i) = (x3[p].re, sign * x3[p].im);
        let w1 = base[p];
        let w2 = w2f[p];
        let w3 = w3f[p];
        let b0r = a0r + a2r;
        let b0i = a0i + a2i;
        let b1r = a0r - a2r;
        let b1i = a0i - a2i;
        let b2r = a1r + a3r;
        let b2i = a1i + a3i;
        let dr = a1r - a3r;
        let di = a1i - a3i;
        o[0] = b0r + b2r;
        oi[0] = b0i + b2i;
        let (r, i) = cmul(b1r + di, b1i - dr, w1.re, w1.im);
        o[1] = r;
        oi[1] = i;
        let (r, i) = cmul(b0r - b2r, b0i - b2i, w2.re, w2.im);
        o[2] = r;
        oi[2] = i;
        let (r, i) = cmul(b1r - di, b1i + dr, w3.re, w3.im);
        o[3] = r;
        oi[3] = i;
    }
}

/// Fused last Stockham stage, radix-4 (`n_t = 4`, `s = n/4`): at this point
/// the single sub-transform covers the whole array, so every twiddle is 1
/// and the butterfly writes straight back to the interleaved buffer,
/// folding in the re-interleave (and, for the inverse, the final
/// conjugation and 1/N normalization).
fn fused_last_r4(sre: &[f64], sim: &[f64], buf: &mut [Complex], inverse: bool) {
    let n = buf.len();
    let s = n / 4;
    let (r0, rest) = sre.split_at(s);
    let (r1, rest) = rest.split_at(s);
    let (r2, r3) = rest.split_at(s);
    let (i0, rest) = sim.split_at(s);
    let (i1, rest) = rest.split_at(s);
    let (i2, i3) = rest.split_at(s);
    let (o0, rest) = buf.split_at_mut(s);
    let (o1, rest) = rest.split_at_mut(s);
    let (o2, o3) = rest.split_at_mut(s);
    let (scale, sign) = if inverse {
        (1.0 / n as f64, -1.0)
    } else {
        (1.0, 1.0)
    };
    let im_scale = sign * scale;
    for q in 0..s {
        let b0r = r0[q] + r2[q];
        let b0i = i0[q] + i2[q];
        let b1r = r0[q] - r2[q];
        let b1i = i0[q] - i2[q];
        let b2r = r1[q] + r3[q];
        let b2i = i1[q] + i3[q];
        let dr = r1[q] - r3[q];
        let di = i1[q] - i3[q];
        o0[q] = Complex::new((b0r + b2r) * scale, (b0i + b2i) * im_scale);
        o1[q] = Complex::new((b1r + di) * scale, (b1i - dr) * im_scale);
        o2[q] = Complex::new((b0r - b2r) * scale, (b0i - b2i) * im_scale);
        o3[q] = Complex::new((b1r - di) * scale, (b1i + dr) * im_scale);
    }
}

/// Forward Stockham autosort FFT over planar data, ping-ponging between the
/// `(re, im)` and `(wre, wim)` plane pairs (all length `n`, a power of two
/// ≥ 2). One radix-2 stage leads when log₂(n) is odd; everything else is
/// radix-4. Returns the stage count — the result sits in `(re, im)` when it
/// is even, in `(wre, wim)` when odd.
///
/// There is no bit-reversal pass: each stage streams sequentially from one
/// plane pair into the other, and every inner loop is an elementwise `f64`
/// loop over contiguous rows, which the compiler can vectorize.
fn planar_fft(
    re: &mut [f64],
    im: &mut [f64],
    wre: &mut [f64],
    wim: &mut [f64],
    base: &[Complex],
) -> usize {
    let n = re.len();
    let (mut sre, mut sim, mut dre, mut dim) = (re, im, wre, wim);
    let mut n_t = n; // remaining sub-transform length
    let mut s = 1; // number of interleaved sub-sequences (stage stride)
    let mut stages = 0;
    if n.trailing_zeros() % 2 == 1 {
        radix2_stage(sre, sim, dre, dim, base, n_t, s);
        std::mem::swap(&mut sre, &mut dre);
        std::mem::swap(&mut sim, &mut dim);
        n_t /= 2;
        s *= 2;
        stages += 1;
    }
    while n_t >= 4 {
        radix4_stage(sre, sim, dre, dim, base, n_t, s);
        std::mem::swap(&mut sre, &mut dre);
        std::mem::swap(&mut sim, &mut dim);
        n_t /= 4;
        s *= 4;
        stages += 1;
    }
    stages
}

/// One radix-2 Stockham stage: sub-transform length `n_t`, stride `s`.
///
/// Row `p` of the two input halves combines into the contiguous output rows
/// `2p` and `2p+1`; the twiddle is `base[p·s] = e^{-j2πp/n_t}`.
fn radix2_stage(
    sre: &[f64],
    sim: &[f64],
    dre: &mut [f64],
    dim: &mut [f64],
    base: &[Complex],
    n_t: usize,
    s: usize,
) {
    let m = n_t / 2;
    let (re0, re1) = sre.split_at(m * s);
    let (im0, im1) = sim.split_at(m * s);
    for (p, (ore, oim)) in dre
        .chunks_exact_mut(2 * s)
        .zip(dim.chunks_exact_mut(2 * s))
        .enumerate()
    {
        let w = base[p * s];
        let (o0r, o1r) = ore.split_at_mut(s);
        let (o0i, o1i) = oim.split_at_mut(s);
        let r0 = &re0[p * s..(p + 1) * s];
        let i0 = &im0[p * s..(p + 1) * s];
        let r1 = &re1[p * s..(p + 1) * s];
        let i1 = &im1[p * s..(p + 1) * s];
        for q in 0..s {
            let ar = r0[q];
            let ai = i0[q];
            let br = r1[q];
            let bi = i1[q];
            o0r[q] = ar + br;
            o0i[q] = ai + bi;
            let (r, i) = cmul(ar - br, ai - bi, w.re, w.im);
            o1r[q] = r;
            o1i[q] = i;
        }
    }
}

/// One radix-4 Stockham stage: sub-transform length `n_t`, stride `s`.
///
/// Row `p` of the four input quarters combines into the contiguous output
/// rows `4p..4p+4`. Twiddles are `w^p`, `w^{2p}`, `w^{3p}` with
/// `w = e^{-j2π/n_t}`; the third may exceed the half-period table and is
/// recovered exactly by negation (`e^{-j2π(k+n/2)/n} = -e^{-j2πk/n}`).
#[allow(clippy::too_many_arguments)]
fn radix4_stage(
    sre: &[f64],
    sim: &[f64],
    dre: &mut [f64],
    dim: &mut [f64],
    base: &[Complex],
    n_t: usize,
    s: usize,
) {
    // Dispatch the short-stride stages to monomorphized copies: with `s`
    // a compile-time constant the inner loop fully unrolls into straight
    // vector code instead of a low-trip-count loop with per-row overhead.
    match s {
        2 => return radix4_stage_impl(sre, sim, dre, dim, base, n_t, 2),
        4 => return radix4_stage_impl(sre, sim, dre, dim, base, n_t, 4),
        8 => return radix4_stage_impl(sre, sim, dre, dim, base, n_t, 8),
        16 => return radix4_stage_impl(sre, sim, dre, dim, base, n_t, 16),
        _ => {}
    }
    radix4_stage_impl(sre, sim, dre, dim, base, n_t, s)
}

#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn radix4_stage_impl(
    sre: &[f64],
    sim: &[f64],
    dre: &mut [f64],
    dim: &mut [f64],
    base: &[Complex],
    n_t: usize,
    s: usize,
) {
    let half = base.len();
    let m = n_t / 4;
    let (re0, rest) = sre.split_at(m * s);
    let (re1, rest) = rest.split_at(m * s);
    let (re2, re3) = rest.split_at(m * s);
    let (im0, rest) = sim.split_at(m * s);
    let (im1, rest) = rest.split_at(m * s);
    let (im2, im3) = rest.split_at(m * s);
    for (p, (ore, oim)) in dre
        .chunks_exact_mut(4 * s)
        .zip(dim.chunks_exact_mut(4 * s))
        .enumerate()
    {
        let w1 = base[p * s];
        let w2 = base[2 * p * s];
        let i3 = 3 * p * s;
        let w3 = if i3 < half {
            base[i3]
        } else {
            -base[i3 - half]
        };
        let (o0r, rest) = ore.split_at_mut(s);
        let (o1r, rest) = rest.split_at_mut(s);
        let (o2r, o3r) = rest.split_at_mut(s);
        let (o0i, rest) = oim.split_at_mut(s);
        let (o1i, rest) = rest.split_at_mut(s);
        let (o2i, o3i) = rest.split_at_mut(s);
        let r0 = &re0[p * s..(p + 1) * s];
        let r1 = &re1[p * s..(p + 1) * s];
        let r2 = &re2[p * s..(p + 1) * s];
        let r3 = &re3[p * s..(p + 1) * s];
        let i0 = &im0[p * s..(p + 1) * s];
        let i1 = &im1[p * s..(p + 1) * s];
        let i2 = &im2[p * s..(p + 1) * s];
        let i3 = &im3[p * s..(p + 1) * s];
        for q in 0..s {
            let b0r = r0[q] + r2[q];
            let b0i = i0[q] + i2[q];
            let b1r = r0[q] - r2[q];
            let b1i = i0[q] - i2[q];
            let b2r = r1[q] + r3[q];
            let b2i = i1[q] + i3[q];
            let dr = r1[q] - r3[q];
            let di = i1[q] - i3[q];
            // b3 = −j·(a1 − a3) = (di, −dr)
            o0r[q] = b0r + b2r;
            o0i[q] = b0i + b2i;
            let (r, i) = cmul(b1r + di, b1i - dr, w1.re, w1.im);
            o1r[q] = r;
            o1i[q] = i;
            let (r, i) = cmul(b0r - b2r, b0i - b2i, w2.re, w2.im);
            o2r[q] = r;
            o2i[q] = i;
            let (r, i) = cmul(b1r - di, b1i + dr, w3.re, w3.im);
            o3r[q] = r;
            o3i[q] = i;
        }
    }
}

/// Process-wide cache of [`FftPlan`]s, keyed by transform length.
///
/// The FMCW pipeline transforms a handful of distinct lengths (range FFT,
/// Doppler FFT) thousands of times each, so the cache is a
/// small linear-scanned vector rather than a hash map. Each thread keeps its
/// own lock-free mirror of the plans it has used; the shared map behind a
/// [`parking_lot::Mutex`] is only consulted on a thread's first use of a
/// length.
pub struct FftPlanner;

static GLOBAL_PLANS: Mutex<Vec<(usize, Arc<FftPlan>)>> = Mutex::new(Vec::new());

thread_local! {
    static THREAD_PLANS: RefCell<Vec<(usize, Arc<FftPlan>)>> =
        const { RefCell::new(Vec::new()) };
    /// Scratch reused by the one-shot helpers ([`fft`], [`ifft`]),
    /// so repeated one-shot calls allocate nothing but their output.
    static ONESHOT_SCRATCH: RefCell<Vec<f64>> = const { RefCell::new(Vec::new()) };
}

impl FftPlanner {
    /// Returns the cached plan for length `n`, building it on first use.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn plan(n: usize) -> Arc<FftPlan> {
        assert!(n > 0, "FFT length must be positive");
        if let Some(plan) = THREAD_PLANS.with(|cache| {
            cache
                .borrow()
                .iter()
                .find(|(len, _)| *len == n)
                .map(|(_, plan)| Arc::clone(plan))
        }) {
            return plan;
        }
        let plan = Self::global_plan(n);
        THREAD_PLANS.with(|cache| cache.borrow_mut().push((n, Arc::clone(&plan))));
        plan
    }

    fn global_plan(n: usize) -> Arc<FftPlan> {
        if let Some(plan) = GLOBAL_PLANS
            .lock()
            .iter()
            .find(|(len, _)| *len == n)
            .map(|(_, plan)| Arc::clone(plan))
        {
            return plan;
        }
        // Build outside the lock: Bluestein construction recursively fetches
        // its power-of-two inner plan from this cache, and losing a race to
        // another thread merely wastes one construction.
        let built = Arc::new(FftPlan::new(n));
        let mut cache = GLOBAL_PLANS.lock();
        match cache.iter().find(|(len, _)| *len == n) {
            Some((_, existing)) => Arc::clone(existing),
            None => {
                cache.push((n, Arc::clone(&built)));
                built
            }
        }
    }
}

/// Runs `plan.process_with_scratch` against the thread-local one-shot
/// scratch, growing it on first use per length.
fn process_with_thread_scratch(plan: &FftPlan, buf: &mut [Complex], dir: Direction) {
    ONESHOT_SCRATCH.with(|scratch| {
        let mut scratch = scratch.borrow_mut();
        let need = plan.scratch_len();
        if scratch.len() < need {
            scratch.resize(need, 0.0);
        }
        plan.process_with_scratch(buf, &mut scratch, dir);
    });
}

/// One-shot forward FFT of a complex slice (any length).
///
/// Uses the [`FftPlanner`] cache and a thread-local scratch: the first call
/// for a given length builds the plan, subsequent calls only pay the
/// transform plus the output copy.
pub fn fft(x: &[Complex]) -> Vec<Complex> {
    let mut buf = x.to_vec();
    let plan = FftPlanner::plan(x.len());
    process_with_thread_scratch(&plan, &mut buf, Direction::Forward);
    buf
}

/// One-shot inverse FFT (normalized by `1/N`), plan-cached like [`fft`].
pub fn ifft(x: &[Complex]) -> Vec<Complex> {
    let mut buf = x.to_vec();
    let plan = FftPlanner::plan(x.len());
    process_with_thread_scratch(&plan, &mut buf, Direction::Inverse);
    buf
}

/// The frequency in Hz associated with each FFT bin, given the sample rate.
///
/// Bins `0..N/2` map to non-negative frequencies; bins above `N/2` map to
/// negative frequencies, matching the layout of [`fft`] output.
pub fn fft_frequencies(n: usize, sample_rate: f64) -> Vec<f64> {
    let df = sample_rate / n as f64;
    (0..n)
        .map(|k| {
            if k <= n / 2 {
                k as f64 * df
            } else {
                (k as f64 - n as f64) * df
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::ZERO;

    /// Naive O(N²) DFT used as the reference implementation.
    fn dft(x: &[Complex]) -> Vec<Complex> {
        let n = x.len();
        (0..n)
            .map(|k| {
                (0..n)
                    .map(|t| x[t] * Complex::cis(-2.0 * PI * (k * t) as f64 / n as f64))
                    .sum()
            })
            .collect()
    }

    fn assert_spectra_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!(
                (*x - *y).norm() < tol,
                "spectra differ: {x:?} vs {y:?} (tol {tol})"
            );
        }
    }

    #[test]
    fn matches_naive_dft_power_of_two() {
        for n in [2usize, 4, 8, 16, 32, 64, 128] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
                .collect();
            assert_spectra_close(&fft(&x), &dft(&x), 1e-9 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn matches_naive_dft_arbitrary_lengths() {
        for n in [1usize, 2, 3, 5, 6, 7, 12, 15, 17, 100, 243] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).cos(), (i as f64 * 1.3).sin()))
                .collect();
            assert_spectra_close(&fft(&x), &dft(&x), 1e-8 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn inverse_recovers_signal() {
        for n in [8usize, 11, 64, 100] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
                .collect();
            let y = ifft(&fft(&x));
            assert_spectra_close(&y, &x, 1e-8 * n as f64);
        }
    }

    #[test]
    fn impulse_has_flat_spectrum() {
        let mut x = vec![ZERO; 16];
        x[0] = Complex::real(1.0);
        let y = fft(&x);
        for z in y {
            assert!((z.re - 1.0).abs() < 1e-12 && z.im.abs() < 1e-12);
        }
    }

    #[test]
    fn dc_signal_concentrates_in_bin_zero() {
        let x = vec![Complex::real(2.0); 32];
        let y = fft(&x);
        assert!((y[0].re - 64.0).abs() < 1e-9);
        for z in &y[1..] {
            assert!(z.norm() < 1e-9);
        }
    }

    #[test]
    fn pure_tone_lands_in_expected_bin() {
        let n = 128;
        let k0 = 9;
        let x: Vec<Complex> = (0..n)
            .map(|t| Complex::cis(2.0 * PI * (k0 * t) as f64 / n as f64))
            .collect();
        let y = fft(&x);
        for (k, z) in y.iter().enumerate() {
            if k == k0 {
                assert!((z.norm() - n as f64).abs() < 1e-8);
            } else {
                assert!(z.norm() < 1e-8, "leakage in bin {k}");
            }
        }
    }

    #[test]
    fn real_signal_spectrum_is_conjugate_symmetric() {
        let x: Vec<f64> = (0..48).map(|i| (i as f64 * 0.9).sin() + 0.3).collect();
        let widened: Vec<Complex> = x.iter().map(|&r| Complex::real(r)).collect();
        let y = fft(&widened);
        let n = y.len();
        for k in 1..n {
            let a = y[k];
            let b = y[n - k].conj();
            assert!((a - b).norm() < 1e-9);
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let x: Vec<Complex> = (0..50)
            .map(|i| Complex::new((i as f64).sin(), (i as f64 * 2.0).cos()))
            .collect();
        let y = fft(&x);
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let e_freq: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / x.len() as f64;
        assert!((e_time - e_freq).abs() < 1e-8 * e_time);
    }

    #[test]
    fn plan_reuse_is_consistent() {
        let plan = FftPlan::new(33);
        let x: Vec<Complex> = (0..33).map(|i| Complex::real(i as f64)).collect();
        let mut a = x.clone();
        plan.process(&mut a, Direction::Forward);
        let mut b = x.clone();
        plan.process(&mut b, Direction::Forward);
        assert_spectra_close(&a, &b, 0.0_f64.max(1e-12));
        assert_eq!(plan.len(), 33);
        assert!(!plan.is_empty());
    }

    #[test]
    fn planner_returns_shared_plans() {
        let a = FftPlanner::plan(4096);
        let b = FftPlanner::plan(4096);
        assert!(Arc::ptr_eq(&a, &b), "same length must share one plan");
        assert_eq!(a.len(), 4096);
    }

    #[test]
    fn planner_plan_matches_fresh_plan_bitwise() {
        for n in [64usize, 900] {
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.41).sin(), (i as f64 * 0.23).cos()))
                .collect();
            let mut cached = x.clone();
            FftPlanner::plan(n).process(&mut cached, Direction::Forward);
            let mut fresh = x.clone();
            FftPlan::new(n).process(&mut fresh, Direction::Forward);
            for (a, b) in cached.iter().zip(&fresh) {
                assert_eq!(a.re, b.re);
                assert_eq!(a.im, b.im);
            }
        }
    }

    #[test]
    fn scratch_process_matches_allocating_process() {
        for n in [32usize, 48, 900] {
            let plan = FftPlan::new(n);
            let x: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 1.7).cos(), (i as f64 * 0.3).sin()))
                .collect();
            let mut scratch = vec![0.0; plan.scratch_len()];
            let mut a = x.clone();
            plan.process_with_scratch(&mut a, &mut scratch, Direction::Forward);
            // Dirty the scratch to prove its entry contents are irrelevant.
            scratch.fill(7.5);
            let mut b = x.clone();
            plan.process_with_scratch(&mut b, &mut scratch, Direction::Forward);
            let mut c = x.clone();
            plan.process(&mut c, Direction::Forward);
            for ((p, q), r) in a.iter().zip(&b).zip(&c) {
                assert_eq!(p.re, q.re);
                assert_eq!(p.im, q.im);
                assert_eq!(p.re, r.re);
                assert_eq!(p.im, r.im);
            }
        }
    }

    #[test]
    fn process_many_matches_per_frame() {
        for n in [16usize, 30] {
            let plan = FftPlan::new(n);
            let frames = 5;
            let data: Vec<Complex> = (0..n * frames)
                .map(|i| Complex::new((i as f64 * 0.13).sin(), (i as f64 * 0.29).cos()))
                .collect();
            let mut batched = data.clone();
            let mut scratch = vec![0.0; plan.scratch_len()];
            plan.process_many_with_scratch(&mut batched, &mut scratch, Direction::Forward);
            for (f, frame) in data.chunks_exact(n).enumerate() {
                let mut one = frame.to_vec();
                plan.process(&mut one, Direction::Forward);
                for (a, b) in batched[f * n..(f + 1) * n].iter().zip(&one) {
                    assert_eq!(a.re, b.re);
                    assert_eq!(a.im, b.im);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "scratch too short")]
    fn scratch_too_short_is_rejected() {
        let plan = FftPlan::new(30);
        let mut buf = vec![ZERO; 30];
        let mut scratch = vec![0.0; plan.scratch_len() - 1];
        plan.process_with_scratch(&mut buf, &mut scratch, Direction::Forward);
    }

    #[test]
    fn fft_frequencies_layout() {
        let f = fft_frequencies(8, 8000.0);
        assert_eq!(
            f,
            vec![0.0, 1000.0, 2000.0, 3000.0, 4000.0, -3000.0, -2000.0, -1000.0]
        );
    }

    #[test]
    #[should_panic(expected = "buffer length does not match plan")]
    fn plan_rejects_wrong_length() {
        let plan = FftPlan::new(8);
        let mut buf = vec![ZERO; 7];
        plan.process(&mut buf, Direction::Forward);
    }

    #[test]
    fn length_one_transform_is_identity() {
        let x = vec![Complex::new(3.0, -2.0)];
        assert_eq!(fft(&x)[0], x[0]);
        assert_eq!(ifft(&x)[0], x[0]);
    }
}
