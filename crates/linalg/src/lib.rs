//! Dense linear-algebra substrate for the `embedstab` workspace.
//!
//! Everything the embedding-instability measures and trainers need is built
//! from scratch here on top of a row-major [`Mat`] type:
//!
//! - packed, cache-blocked, register-tiled matrix products
//!   ([`Mat::matmul`], [`Mat::matmul_tn`], [`Mat::matmul_nt`],
//!   [`Mat::gram`]) with row-block parallelism for large operands,
//! - thin Householder QR ([`Mat::qr`]),
//! - singular value decomposition ([`Mat::svd`]) with two backends:
//!   one-sided Jacobi ([`Mat::svd_exact`]) and a randomized range finder
//!   ([`Mat::svd_randomized`]),
//! - the cosine top-k kernel behind every nearest-neighbor query
//!   ([`topk::cosine_top_k`]),
//! - Cholesky factorization and SPD solves ([`chol`]),
//! - the orthogonal Procrustes problem ([`procrustes::orthogonal_procrustes`]),
//!   used by the paper to align Wiki'17/Wiki'18 embeddings before compression,
//! - the workspace's one worker pool ([`pool::parallel_map`],
//!   [`pool::join`]), which the GEMM's row blocks and every other
//!   multi-core loop above this crate run on.
//!
//! # Kernel architecture
//!
//! **GEMM.** Every product variant lowers to one packed blocked kernel
//! (BLIS-style decomposition) in [`gemm`]: `MC x KC` panels of `A` and
//! `KC x NC` panels of `B` are packed into contiguous `MR`-tall /
//! `NR`-wide strips, and an `MR x NR = 6 x 8` register-tiled micro-kernel
//! (recompiled under `target_feature(avx2,fma)` and runtime-dispatched)
//! accumulates each output tile. The block parameters are
//! `MC = 120, KC = 256, NC = 512` (an A panel is 240 KiB, a B panel
//! 1 MiB). Transposed operands (`matmul_tn`, `matmul_nt`, `gram`) are
//! handled by strided packing, so they share the kernel and its
//! parallelism. Products under `32^3` multiply-adds skip packing and run
//! a plain i-k-j loop; the textbook triple loop itself stays available as
//! [`Mat::matmul_naive`] for conformance testing.
//!
//! **SVD.** [`Mat::svd`] auto-dispatches ([`svd::SvdMethod::Auto`]):
//! matrices whose long side is at least `256` and at least `4x` the short
//! side take the randomized range-finder path (sketch, QR, Jacobi on the
//! small projected problem — all blocked-GEMM work), everything else runs
//! exact one-sided Jacobi. Force a backend with
//! [`Mat::svd_with`]`(SvdMethod::Exact)` / `svd_with(SvdMethod::
//! Randomized(cfg))`; truncated sketches with subspace iteration are
//! available through [`RandomizedSvd::truncated`].
//!
//! **Cosine top-k.** [`cosine_top_k`] screens queries in 128-query
//! tiles: a tile of at least [`topk::GEMM_MIN_ROWS`] queries through
//! `matmul_nt`, a thinner one (a 1- or 2-query serve request) through a
//! 16-lane dot loop that reads the rows in place instead of packing the
//! vocabulary. It then rescores every word within a `d`-dependent
//! rounding band of each query's k-th screened score with the scalar
//! [`vecops::cosine_similarity`]. The result is bitwise a naive scan's
//! whichever screen ran; [`topk`] gives the error bound, which holds for
//! any summation order, that makes it so.
//!
//! # Example
//!
//! ```
//! use embedstab_linalg::Mat;
//!
//! let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
//! let svd = a.svd();
//! let recon = svd.reconstruct();
//! assert!(a.sub(&recon).frobenius_norm() < 1e-9);
//! ```

pub mod chol;
pub mod gemm;
pub mod mat;
pub mod opt;
pub mod pool;
pub mod procrustes;
pub mod qr;
pub mod svd;
pub mod topk;
pub mod vecops;

pub use chol::{cholesky, lstsq, solve_spd};
pub use mat::Mat;
pub use procrustes::{align, orthogonal_procrustes};
pub use svd::{svd_randomized_warm_op, RandomizedSvd, SketchOp, Svd, SvdMethod};
pub use topk::{cmp_desc_nan_last, cmp_nan_last, cosine_top_k, row_norms};
