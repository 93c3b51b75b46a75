//! Matrix products via a single packed, cache-blocked GEMM kernel.
//!
//! All four product entry points ([`Mat::matmul`], [`Mat::matmul_tn`],
//! [`Mat::matmul_nt`], [`Mat::gram`]) lower to one blocked kernel that
//! follows the classic BLIS/GotoBLAS decomposition:
//!
//! - the output is computed in `MC x NC` tiles, with the inner (`k`)
//!   dimension split into `KC`-deep slabs;
//! - for each slab, a `KC x NC` panel of `B` is packed into contiguous
//!   `NR`-wide column strips and an `MC x KC` panel of `A` into `MR`-tall
//!   row strips, so the inner loops only touch unit-stride memory
//!   regardless of whether the logical operand is transposed;
//! - a register-tiled `MR x NR` micro-kernel accumulates into a local
//!   array the compiler keeps in vector registers.
//!
//! Transposition is handled entirely in the packing step through strided
//! [`View`]s, which is what lets `matmul_tn`/`matmul_nt`/`gram` share the
//! kernel (and the row-block parallelism on [`crate::pool`]) with `matmul`.
//! Products too small to amortize packing fall back to a simple i-k-j
//! loop, and [`Mat::matmul_naive`] exposes the textbook triple loop as the
//! reference implementation for the kernel-conformance tests.

use std::sync::{Mutex, PoisonError};

use crate::{pool, Mat};

/// Above this many multiply-adds, the kernel splits output row blocks
/// across the worker pool.
const PAR_THRESHOLD: usize = 4_000_000;

/// Below this many multiply-adds, packing costs more than it saves and the
/// kernel falls back to a simple i-k-j loop.
const PACK_THRESHOLD: usize = 32 * 32 * 32;

/// Micro-kernel height: rows of `C` per register tile.
const MR: usize = 6;
/// Micro-kernel width: columns of `C` per register tile.
const NR: usize = 8;
/// Rows of `A` packed per cache block (multiple of `MR`).
const MC: usize = 120;
/// Depth (`k`) of one packed slab; bounds the packed-panel working set.
const KC: usize = 256;
/// Columns of `B` packed per cache block (multiple of `NR`).
const NC: usize = 512;

/// A strided read-only view of one GEMM operand with logical shape
/// `rows x cols`; transposed operands are expressed by swapping strides,
/// so the packing routines never branch on orientation.
#[derive(Clone, Copy)]
struct View<'a> {
    data: &'a [f64],
    rows: usize,
    cols: usize,
    /// Stride between logically consecutive rows.
    rs: usize,
    /// Stride between logically consecutive columns.
    cs: usize,
}

impl<'a> View<'a> {
    fn normal(m: &'a Mat) -> Self {
        View {
            data: m.as_slice(),
            rows: m.rows(),
            cols: m.cols(),
            rs: m.cols(),
            cs: 1,
        }
    }

    fn transposed(m: &'a Mat) -> Self {
        View {
            data: m.as_slice(),
            rows: m.cols(),
            cols: m.rows(),
            rs: 1,
            cs: m.cols(),
        }
    }

    #[inline(always)]
    fn at(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.rs + j * self.cs]
    }

    /// The sub-view of rows `start..start + len`.
    fn row_range(&self, start: usize, len: usize) -> View<'a> {
        View {
            data: &self.data[start * self.rs..],
            rows: len,
            ..*self
        }
    }
}

impl Mat {
    /// Matrix product `self * other`.
    ///
    /// Runs the packed cache-blocked kernel (see the module docs), with
    /// output row blocks split across threads when the operand sizes
    /// justify it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul: inner dimensions must agree ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let mut out = Mat::zeros(self.rows(), other.cols());
        gemm(View::normal(self), View::normal(other), &mut out);
        out
    }

    /// Transposed product `self^T * other` without materializing the
    /// transpose (the packing step reads `self` column-wise instead).
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != other.rows()`.
    pub fn matmul_tn(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.rows(),
            other.rows(),
            "matmul_tn: row counts must agree ({}x{} ^T * {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let mut out = Mat::zeros(self.cols(), other.cols());
        gemm(View::transposed(self), View::normal(other), &mut out);
        out
    }

    /// Product with a transposed right operand, `self * other^T`.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.cols()`.
    pub fn matmul_nt(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols(),
            other.cols(),
            "matmul_nt: column counts must agree ({}x{} * {}x{} ^T)",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let mut out = Mat::zeros(self.rows(), other.rows());
        gemm(View::normal(self), View::transposed(other), &mut out);
        out
    }

    /// The Gram matrix `self^T * self` (`cols x cols`).
    pub fn gram(&self) -> Mat {
        self.matmul_tn(self)
    }

    /// Reference matrix product: the textbook i-j-k triple loop with no
    /// blocking, packing, or threading.
    ///
    /// This is the ground truth the kernel-conformance test suite compares
    /// the blocked kernel against, and the "before" case in the GEMM
    /// benchmarks. Use [`Mat::matmul`] everywhere else.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != other.rows()`.
    pub fn matmul_naive(&self, other: &Mat) -> Mat {
        assert_eq!(
            self.cols(),
            other.rows(),
            "matmul_naive: inner dimensions must agree ({}x{} * {}x{})",
            self.rows(),
            self.cols(),
            other.rows(),
            other.cols()
        );
        let (m, k, n) = (self.rows(), self.cols(), other.cols());
        let mut out = Mat::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut s = 0.0;
                for p in 0..k {
                    s += self[(i, p)] * other[(p, j)];
                }
                out[(i, j)] = s;
            }
        }
        out
    }
}

/// `out = a * b` for logical views `a` (`m x k`) and `b` (`k x n`):
/// dispatches between the small-product fallback, the serial blocked
/// kernel, and the row-block-parallel blocked kernel.
fn gemm(a: View<'_>, b: View<'_>, out: &mut Mat) {
    debug_assert_eq!(a.cols, b.rows);
    debug_assert_eq!(out.shape(), (a.rows, b.cols));
    let (m, k, n) = (a.rows, a.cols, b.cols);
    let work = m * k * n;
    if work < PACK_THRESHOLD {
        gemm_small(a, b, out.as_mut_slice(), n);
        return;
    }
    let threads = pool::threads();
    if work >= PAR_THRESHOLD && threads > 1 && m >= 2 * threads {
        // One block per worker; each block is its own slot, locked once by
        // the worker that computes it. A row's arithmetic does not depend
        // on which block holds it, so the split never changes a bit.
        let chunk = m.div_ceil(threads);
        let blocks: Vec<(usize, Mutex<&mut [f64]>)> = out
            .as_mut_slice()
            .chunks_mut(chunk * n)
            .enumerate()
            .map(|(t, block)| (t * chunk, Mutex::new(block)))
            .collect();
        pool::parallel_map(&blocks, |(start, slot)| {
            let mut block = slot.lock().unwrap_or_else(PoisonError::into_inner);
            let a_sub = a.row_range(*start, block.len() / n);
            gemm_blocked(a_sub, b, &mut block, n);
        });
    } else {
        gemm_blocked(a, b, out.as_mut_slice(), n);
    }
}

/// Unpacked i-k-j product for operands too small to amortize packing.
fn gemm_small(a: View<'_>, b: View<'_>, c: &mut [f64], n: usize) {
    for i in 0..a.rows {
        let crow = &mut c[i * n..(i + 1) * n];
        for p in 0..a.cols {
            let av = a.at(i, p);
            if av == 0.0 {
                continue;
            }
            if b.cs == 1 {
                let brow = &b.data[p * b.rs..p * b.rs + n];
                for (cv, &bv) in crow.iter_mut().zip(brow) {
                    *cv += av * bv;
                }
            } else {
                for (j, cv) in crow.iter_mut().enumerate() {
                    *cv += av * b.at(p, j);
                }
            }
        }
    }
}

/// The packed blocked kernel for one row slab of the output: `c` holds
/// rows `0..a.rows` of the product as a dense `a.rows x n` block.
fn gemm_blocked(a: View<'_>, b: View<'_>, c: &mut [f64], n: usize) {
    let (m, k) = (a.rows, a.cols);
    // Panels sized to the operands, not the block constants: a thin
    // product (the top-k screen's `k = dim`) then touches kilobytes, not
    // the full 1.2 MiB of an `MC x KC` + `KC x NC` panel pair.
    let mut bp = vec![0.0; KC.min(k) * NC.min(n).next_multiple_of(NR)];
    let mut ap = vec![0.0; MC.min(m).next_multiple_of(MR) * KC.min(k)];
    for jc in (0..n).step_by(NC) {
        let nc = NC.min(n - jc);
        for pc in (0..k).step_by(KC) {
            let kc = KC.min(k - pc);
            pack_b(&mut bp, b, pc, kc, jc, nc);
            for ic in (0..m).step_by(MC) {
                let mc = MC.min(m - ic);
                pack_a(&mut ap, a, ic, mc, pc, kc);
                macro_kernel(&ap, &bp, c, n, ic, mc, jc, nc, kc);
            }
        }
    }
}

/// Packs `b[pc..pc+kc][jc..jc+nc]` into `NR`-wide column strips, each laid
/// out depth-major so the micro-kernel reads `NR` contiguous values per
/// `k` step. Ragged right edges are zero-padded to a full strip.
fn pack_b(bp: &mut [f64], b: View<'_>, pc: usize, kc: usize, jc: usize, nc: usize) {
    let mut idx = 0;
    for jp in (0..nc).step_by(NR) {
        let w = NR.min(nc - jp);
        for p in 0..kc {
            let base = (pc + p) * b.rs + (jc + jp) * b.cs;
            let strip = &mut bp[idx..idx + NR];
            for (c, v) in strip[..w].iter_mut().enumerate() {
                *v = b.data[base + c * b.cs];
            }
            strip[w..].fill(0.0);
            idx += NR;
        }
    }
}

/// Packs `a[ic..ic+mc][pc..pc+kc]` into `MR`-tall row strips, depth-major,
/// zero-padding ragged bottom edges to a full strip.
fn pack_a(ap: &mut [f64], a: View<'_>, ic: usize, mc: usize, pc: usize, kc: usize) {
    let mut idx = 0;
    for ip in (0..mc).step_by(MR) {
        let h = MR.min(mc - ip);
        for p in 0..kc {
            let base = (ic + ip) * a.rs + (pc + p) * a.cs;
            let strip = &mut ap[idx..idx + MR];
            for (r, v) in strip[..h].iter_mut().enumerate() {
                *v = a.data[base + r * a.rs];
            }
            strip[h..].fill(0.0);
            idx += MR;
        }
    }
}

/// Runs the register-tiled micro-kernel over one packed `mc x kc` A panel
/// and `kc x nc` B panel, accumulating into the `c` block.
#[allow(clippy::too_many_arguments)]
fn macro_kernel(
    ap: &[f64],
    bp: &[f64],
    c: &mut [f64],
    n: usize,
    ic: usize,
    mc: usize,
    jc: usize,
    nc: usize,
    kc: usize,
) {
    for (pi, ip) in (0..mc).step_by(MR).enumerate() {
        let a_panel = &ap[pi * kc * MR..(pi + 1) * kc * MR];
        let h = MR.min(mc - ip);
        for (pj, jp) in (0..nc).step_by(NR).enumerate() {
            let b_panel = &bp[pj * kc * NR..(pj + 1) * kc * NR];
            let w = NR.min(nc - jp);
            let mut acc = [[0.0f64; NR]; MR];
            micro_kernel(kc, a_panel, b_panel, &mut acc);
            for (r, acc_row) in acc.iter().enumerate().take(h) {
                let crow = &mut c[(ic + ip + r) * n + jc + jp..][..w];
                for (cv, &av) in crow.iter_mut().zip(&acc_row[..w]) {
                    *cv += av;
                }
            }
        }
    }
}

/// The `MR x NR` register tile: for each depth step, broadcasts `MR`
/// packed A values against `NR` packed B values. The fixed-size `acc`
/// array stays in vector registers across the `kc` loop.
///
/// The body is monomorphic safe Rust; [`micro_kernel`] dispatches it
/// either directly (baseline codegen) or through a `#[target_feature]`
/// wrapper so LLVM can emit AVX2+FMA for the same source when the CPU
/// supports it.
#[inline(always)]
fn micro_kernel_body(kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    debug_assert_eq!(a_panel.len(), kc * MR);
    debug_assert_eq!(b_panel.len(), kc * NR);
    // Two depth steps per iteration: enough independent FMA chains to hide
    // the instruction latency without spilling the 6x8 accumulator tile.
    let pairs = kc / 2;
    for p in 0..pairs {
        let a: &[f64; 2 * MR] = a_panel[p * 2 * MR..(p + 1) * 2 * MR]
            .try_into()
            .expect("MR strip pair");
        let b: &[f64; 2 * NR] = b_panel[p * 2 * NR..(p + 1) * 2 * NR]
            .try_into()
            .expect("NR strip pair");
        for r in 0..MR {
            let (a0, a1) = (a[r], a[MR + r]);
            for (c, av) in acc[r].iter_mut().enumerate() {
                *av += a0 * b[c] + a1 * b[NR + c];
            }
        }
    }
    if kc % 2 == 1 {
        let p = kc - 1;
        let a: &[f64; MR] = a_panel[p * MR..p * MR + MR].try_into().expect("MR strip");
        let b: &[f64; NR] = b_panel[p * NR..p * NR + NR].try_into().expect("NR strip");
        for r in 0..MR {
            let ar = a[r];
            for (av, &bv) in acc[r].iter_mut().zip(b) {
                *av += ar * bv;
            }
        }
    }
}

/// AVX2+FMA instantiation of the micro-kernel body. The default x86-64
/// target only guarantees SSE2; re-compiling the same safe body under
/// `target_feature` roughly doubles the vector width and fuses the
/// multiply-adds.
///
/// # Safety
///
/// The *only* unsafety is instruction-set availability: the body is plain
/// safe Rust (slice-indexed, bounds-checked), but compiling it under
/// `target_feature(avx2, fma)` lets rustc emit AVX2/FMA instructions that
/// fault with SIGILL on CPUs lacking them. Callers must therefore have
/// verified **both** `avx2` and `fma` via `is_x86_feature_detected!` on the
/// running CPU before calling — a compile-time `cfg(target_feature)` check
/// is not enough, since this crate builds for generic x86-64. Panel-layout
/// expectations (`a_panel.len() >= kc * MR`, `b_panel.len() >= kc * NR`,
/// packed by `pack_a`/`pack_b`) are enforced by the safe body's slice
/// indexing, not by this contract.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn micro_kernel_avx2(
    kc: usize,
    a_panel: &[f64],
    b_panel: &[f64],
    acc: &mut [[f64; NR]; MR],
) {
    micro_kernel_body(kc, a_panel, b_panel, acc);
}

#[cfg(target_arch = "x86_64")]
#[inline(always)]
fn micro_kernel(kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    // Feature detection is cached by std; this is a load + branch per tile.
    if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma") {
        // SAFETY: `micro_kernel_avx2`'s sole precondition is that the
        // running CPU supports avx2 and fma; both were verified on the
        // lines above via runtime feature detection, so the specialized
        // instructions cannot fault. No pointer or aliasing invariants are
        // involved — the kernel body itself is safe, bounds-checked code.
        unsafe { micro_kernel_avx2(kc, a_panel, b_panel, acc) }
    } else {
        micro_kernel_body(kc, a_panel, b_panel, acc);
    }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline(always)]
fn micro_kernel(kc: usize, a_panel: &[f64], b_panel: &[f64], acc: &mut [[f64; NR]; MR]) {
    micro_kernel_body(kc, a_panel, b_panel, acc);
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn matmul_small_known() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_matches_naive_random() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let a = Mat::random_normal(17, 9, &mut rng);
        let b = Mat::random_normal(9, 13, &mut rng);
        let c = a.matmul(&b);
        let d = a.matmul_naive(&b);
        assert!(c.sub(&d).frobenius_norm() < 1e-10);
    }

    #[test]
    fn blocked_path_matches_naive_across_block_edges() {
        // Sizes straddling MR/NR/MC/KC boundaries, all above PACK_THRESHOLD.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        for &(m, k, n) in &[(33, 37, 41), (128, 256, 8), (129, 257, 9), (40, 300, 40)] {
            let a = Mat::random_normal(m, k, &mut rng);
            let b = Mat::random_normal(k, n, &mut rng);
            let c = a.matmul(&b);
            let d = a.matmul_naive(&b);
            let rel = c.sub(&d).frobenius_norm() / d.frobenius_norm().max(1.0);
            assert!(rel < 1e-12, "{m}x{k}x{n}: rel err {rel}");
        }
    }

    #[test]
    fn matmul_parallel_path_matches_serial() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // 200*200*200 = 8M multiply-adds > threshold, exercising the parallel path.
        let a = Mat::random_normal(200, 200, &mut rng);
        let b = Mat::random_normal(200, 200, &mut rng);
        let c = a.matmul(&b);
        let d = a.matmul_naive(&b);
        assert!(c.sub(&d).frobenius_norm() / d.frobenius_norm() < 1e-12);
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let a = Mat::random_normal(11, 5, &mut rng);
        let b = Mat::random_normal(11, 7, &mut rng);
        let tn = a.matmul_tn(&b);
        assert!(tn.sub(&a.transpose().matmul(&b)).frobenius_norm() < 1e-10);
        let c = Mat::random_normal(4, 5, &mut rng);
        let nt = a.matmul_nt(&c);
        assert!(nt.sub(&a.matmul(&c.transpose())).frobenius_norm() < 1e-10);
    }

    #[test]
    fn tn_and_nt_match_explicit_transpose_blocked() {
        // Above PACK_THRESHOLD so the packed kernel (strided packing) runs.
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        let a = Mat::random_normal(90, 70, &mut rng);
        let b = Mat::random_normal(90, 50, &mut rng);
        let tn = a.matmul_tn(&b);
        assert!(tn.sub(&a.transpose().matmul_naive(&b)).frobenius_norm() < 1e-10);
        let c = Mat::random_normal(60, 70, &mut rng);
        let nt = a.matmul_nt(&c);
        assert!(nt.sub(&a.matmul_naive(&c.transpose())).frobenius_norm() < 1e-10);
    }

    #[test]
    fn gram_is_symmetric_psd_diag() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let a = Mat::random_normal(20, 6, &mut rng);
        let g = a.gram();
        assert_eq!(g.shape(), (6, 6));
        for i in 0..6 {
            assert!(g[(i, i)] >= 0.0);
            for j in 0..6 {
                assert!((g[(i, j)] - g[(j, i)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_tn: row counts must agree")]
    fn matmul_tn_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(3, 2);
        let _ = a.matmul_tn(&b);
    }

    #[test]
    #[should_panic(expected = "matmul_nt: column counts must agree")]
    fn matmul_nt_shape_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(2, 4);
        let _ = a.matmul_nt(&b);
    }
}
