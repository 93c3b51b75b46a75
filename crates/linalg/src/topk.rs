//! Cosine top-k: the one nearest-neighbor kernel behind the k-NN
//! stability measure and the serving layer's batched nearest query
//! (`Snapshot::try_nearest_batch`).
//!
//! There is one similarity definition, the scalar
//! [`vecops::cosine_similarity`]: `(dot / (na * nb)).clamp(-1, 1)`, and
//! `0` when either row is zero. There is one order: descending similarity
//! by [`cmp_desc_nan_last`] (NaN last, whatever its sign bit), the lower
//! word id first among equal scores. [`cosine_top_k`] returns exactly what
//! a naive scan that scores every word with that formula and sorts by that
//! order would return, bit for bit. It gets there in two phases:
//!
//! - **Screen.** Queries are screened in tiles of up to 128 queries
//!   against the whole vocabulary, so the score buffer is one tile x vocab
//!   however many queries arrive. A tile of at least `GEMM_MIN_ROWS`
//!   queries goes through the blocked GEMM ([`Mat::matmul_nt`]). A thinner
//!   tile (the serving layer's usual 1- or 2-query request) is screened by
//!   `lane_dot`, which reads query and vocabulary rows in place: GEMM
//!   would pack the whole vocabulary into panels for a handful of rows and
//!   never amortise it. Each dot product is scaled by the precomputed
//!   inverse row norms, and each query keeps the k-th largest screened
//!   score.
//! - **Rescore.** Every word whose screened score lies within a band below
//!   that k-th score is scored again with the scalar formula, and the final
//!   top-k is selected from those exact scores.
//!
//! Why the band makes the answer exact: a dot product of length `d`
//! summed in *any* order (the GEMM's register-tiled sum, the lane-split
//! sum of `lane_dot`, the scalar `dot`'s left-to-right sum) passes each
//! term through one multiplication and at most `d - 1` additions, so it
//! differs from the true dot product by at most `γ_d·‖a‖‖b‖`
//! (`γ_d = d·u/(1 - d·u)`, `u = f64::EPSILON / 2`). Both screens and the
//! rescore divide by the same computed norms. With the scaling and clamp
//! roundings, a screened score is within `ε ≈ (2d + 5)·f64::EPSILON` of
//! the exact one. The k-th order statistic is 1-Lipschitz, so the exact
//! k-th score is at least the screened one minus `ε`, and every word of
//! the exact top-k has a screened score no lower than `2ε` below the
//! screened k-th score. The band is `(4d + 16)·f64::EPSILON`, which covers
//! `2ε` with room for second-order terms.
//!
//! The bound needs products that neither overflow nor underflow, so rows
//! whose norm is neither zero nor in `[1e-100, 1e100]` are never screened
//! and are always rescored. A query with such a norm, or with fewer than
//! `k` screened words, is scanned exactly.

use std::cmp::Ordering;

use crate::vecops;
use crate::Mat;

/// Queries screened per tile. The screened-score buffer holds
/// `TILE_ROWS x vocab` values.
const TILE_ROWS: usize = 128;

/// The fewest tile rows screened through GEMM; thinner tiles go through
/// `lane_dot`. GEMM packs the whole vocabulary into panels on every
/// call, a cost nearly flat up to its 6-row micro-kernel, while the lane
/// loop costs one pass over the vocabulary per query.
///
/// Criterion medians of `nearest_batch_1000x64_q{n}_k5` (a 1000 x 64
/// snapshot, k = 5; three alternating runs on a 2-vCPU Xeon, SSE2
/// baseline build) in µs, with every size screened by GEMM and then by
/// the lanes:
///
/// | queries | GEMM          | lanes         |
/// |---------|---------------|---------------|
/// | 1       | 220, 131, 150 | 21, 24, 22    |
/// | 2       | 219, 128, 146 | 59, 59, 45    |
/// | 4       | 150, 133, 172 | 120, 129, 90  |
/// | 8       | 207, 222, 251 | 160, 161, 171 |
/// | 16      | 279, 254, 279 | 311, 335, 341 |
///
/// The lanes cost ~21 µs a query. GEMM costs ~130–220 µs up to 6 rows
/// and ~210–250 µs from 7 to 12 (a second 6-row panel), so the two cross
/// near 11 rows; 10 keeps a margin for noisier hosts, where an earlier
/// set measured ~35 µs a query and a tie at 8. Full 128-row tiles always
/// take GEMM; only a thin request or a thin last tile takes the lanes.
pub const GEMM_MIN_ROWS: usize = 10;

/// Independent partial sums in [`lane_dot`]: with baseline SSE2 codegen
/// they are eight two-wide accumulators, enough to hide the add latency
/// and still held in registers. A power of two, for the pairwise
/// reduction.
const LANES: usize = 16;

/// Norms the screen trusts: inside this range the screened products
/// neither overflow nor lose relative precision to underflow.
const MIN_SCREEN_NORM: f64 = 1e-100;
const MAX_SCREEN_NORM: f64 = 1e100;

/// A total order over `f64` that places **every** NaN after every number.
///
/// `f64::total_cmp` alone is not enough for "lowest value wins" scans:
/// runtime-computed NaNs (`0.0 / 0.0`, `inf - inf`) carry the sign bit on
/// x86-64, and `total_cmp` orders negative NaNs *before* `-inf` — so a
/// degenerate value would silently win a `min_by`. Here NaNs of either
/// sign compare greater than all numbers (and equal to each other).
pub fn cmp_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => a.total_cmp(&b),
    }
}

/// The descending companion of [`cmp_nan_last`]: larger numbers first,
/// NaNs of either sign still last (a plain reversed comparison would move
/// them to the front).
pub fn cmp_desc_nan_last(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Greater,
        (false, true) => Ordering::Less,
        (false, false) => b.total_cmp(&a),
    }
}

/// The Euclidean norm of every row, by [`vecops::norm2`] — the norms
/// [`cosine_top_k`] expects for its `vocab` argument.
pub fn row_norms(m: &Mat) -> Vec<f64> {
    (0..m.rows()).map(|i| vecops::norm2(m.row(i))).collect()
}

/// The `k` most cosine-similar rows of `vocab` to each row of `queries`,
/// as `(row id, similarity)` pairs sorted by descending similarity (NaN
/// last, lower id first on ties).
///
/// `vocab_norms` must be [`row_norms`]`(vocab)`. With `exclude`, query `i`
/// never lists row `exclude[i]` (the k-NN measure excludes the query word
/// itself). Each list holds `min(k, candidates)` entries, so `k` larger
/// than the vocabulary returns every candidate.
///
/// The result is bitwise what a scan scoring every row with
/// [`vecops::cosine_similarity`] would return (see the module docs).
/// Shapes are the caller's contract, checked only in debug builds: serving
/// callers validate them into typed errors first.
pub fn cosine_top_k(
    vocab: &Mat,
    vocab_norms: &[f64],
    queries: &Mat,
    k: usize,
    exclude: Option<&[u32]>,
) -> Vec<Vec<(u32, f64)>> {
    debug_assert_eq!(queries.cols(), vocab.cols(), "query dimension mismatch");
    debug_assert_eq!(vocab_norms.len(), vocab.rows(), "one norm per vocab row");
    debug_assert!(exclude.is_none_or(|e| e.len() == queries.rows()));
    let d = vocab.cols();
    // NaN marks a row the screen must not trust: its screened score is
    // NaN, and NaN scores are always rescored.
    let inv_norms: Vec<f64> = vocab_norms.iter().map(|&n| inverse_norm(n)).collect();
    let band = (4 * d + 16) as f64 * f64::EPSILON;
    let mut out = Vec::with_capacity(queries.rows());
    for start in (0..queries.rows()).step_by(TILE_ROWS) {
        let end = (start + TILE_ROWS).min(queries.rows());
        let mut screened = if end - start < GEMM_MIN_ROWS {
            Mat::from_fn(end - start, vocab.rows(), |i, w| {
                lane_dot(queries.row(start + i), vocab.row(w))
            })
        } else {
            let tile = Mat::from_vec(
                end - start,
                d,
                queries.as_slice()[start * d..end * d].to_vec(),
            );
            tile.matmul_nt(vocab)
        };
        for qi in start..end {
            let query = Query {
                row: queries.row(qi),
                norm: vecops::norm2(queries.row(qi)),
                exclude: exclude.map(|e| e[qi] as usize),
            };
            let scores = screened.row_mut(qi - start);
            let inv_q = inverse_norm(query.norm);
            for (s, &inv_w) in scores.iter_mut().zip(&inv_norms) {
                *s *= inv_q * inv_w;
            }
            out.push(query.top_k(vocab, vocab_norms, scores, k, band));
        }
    }
    out
}

/// The dot product of two equal-length rows in `LANES` interleaved
/// partial sums plus a scalar tail, the lanes added pairwise at the end.
/// That is another summation order than [`vecops::dot`]'s, so the bits
/// may differ, but within the same `γ_d·‖a‖‖b‖` bound the rescore band
/// covers.
fn lane_dot(a: &[f64], b: &[f64]) -> f64 {
    let (a_lanes, a_tail) = a.as_chunks::<LANES>();
    let (b_lanes, b_tail) = b.as_chunks::<LANES>();
    let mut acc = [0.0; LANES];
    for (x, y) in a_lanes.iter().zip(b_lanes) {
        for l in 0..LANES {
            acc[l] += x[l] * y[l];
        }
    }
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for l in 0..width {
            acc[l] += acc[l + width];
        }
    }
    acc[0] + vecops::dot(a_tail, b_tail)
}

/// `1 / norm` for a norm the screen trusts, `0` for a zero row (whose
/// cosine is exactly `0`), NaN otherwise.
fn inverse_norm(norm: f64) -> f64 {
    if norm == 0.0 {
        0.0
    } else if (MIN_SCREEN_NORM..=MAX_SCREEN_NORM).contains(&norm) {
        1.0 / norm
    } else {
        f64::NAN
    }
}

/// The descending-similarity, lower-id-first order of a top-k list.
fn rank(a: &(u32, f64), b: &(u32, f64)) -> Ordering {
    cmp_desc_nan_last(a.1, b.1).then(a.0.cmp(&b.0))
}

struct Query<'a> {
    row: &'a [f64],
    norm: f64,
    exclude: Option<usize>,
}

impl Query<'_> {
    /// This query's top-k from its row of screened scores.
    fn top_k(
        &self,
        vocab: &Mat,
        vocab_norms: &[f64],
        screened: &[f64],
        k: usize,
        band: f64,
    ) -> Vec<(u32, f64)> {
        let excluded = self.exclude.is_some_and(|e| e < screened.len());
        let k = k.min(screened.len() - usize::from(excluded));
        if k == 0 {
            return Vec::new();
        }
        // Every word not provably below the exact k-th score is rescored;
        // with fewer than k screened scores, that is every word.
        let floor = self
            .kth_screened(screened, k)
            .map_or(f64::NEG_INFINITY, |kth| kth - band);
        let mut picked: Vec<(u32, f64)> = screened
            .iter()
            .enumerate()
            .filter(|&(w, &s)| (s.is_nan() || s >= floor) && Some(w) != self.exclude)
            .map(|(w, _)| {
                let dot = vecops::dot(self.row, vocab.row(w));
                let sim = vecops::cosine_from_norms(dot, self.norm, vocab_norms[w]);
                (w as u32, sim)
            })
            .collect();
        if picked.len() > k {
            picked.select_nth_unstable_by(k - 1, rank);
            picked.truncate(k);
        }
        picked.sort_unstable_by(rank);
        picked
    }

    /// The k-th largest finite screened score over the candidate words,
    /// or `None` when fewer than `k` are finite.
    fn kth_screened(&self, screened: &[f64], k: usize) -> Option<f64> {
        // `best` holds every score above the bar. When it reaches 2k
        // scores it is cut to its k largest, and the bar rises to the k-th
        // of them. Finite scores clear the initial -inf bar and NaN never
        // does. Each cut costs O(k) and follows k new scores, so the scan
        // is O(n) for any k, and with k small next to the vocabulary
        // almost every word costs one comparison.
        let desc = |a: &f64, b: &f64| b.total_cmp(a);
        let mut best: Vec<f64> = Vec::with_capacity(2 * k);
        let mut bar = f64::NEG_INFINITY;
        for (w, &s) in screened.iter().enumerate() {
            if s > bar && Some(w) != self.exclude {
                best.push(s);
                if best.len() == 2 * k {
                    best.select_nth_unstable_by(k - 1, desc);
                    best.truncate(k);
                    bar = best[k - 1];
                }
            }
        }
        if best.len() < k {
            return None;
        }
        best.select_nth_unstable_by(k - 1, desc);
        Some(best[k - 1])
    }
}
