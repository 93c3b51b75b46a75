//! Positive pointwise mutual information (PPMI) matrices.
//!
//! Following Bullinaria & Levy (2007) and the paper's matrix-completion
//! setup, the co-occurrence table is transformed into the PPMI matrix
//! `max(0, log(p(i,j) / (p(i) p(j))))`, and only the positive (observed)
//! entries are kept.

use std::ops::Range;
use std::sync::{Mutex, PoisonError};

use embedstab_linalg::{pool, vecops, Mat, SketchOp};

use crate::codec;
use crate::cooc::Cooc;

/// Rows (or, for [`SparseMatrix::apply_t`], columns) per pool item in the
/// row-split loops of this module: enough items for two workers to
/// balance, each far heavier than its queue step.
const ROW_BLOCK: usize = 64;

/// `0..n` in [`ROW_BLOCK`]-sized ranges.
fn row_blocks(n: usize) -> Vec<Range<usize>> {
    (0..n)
        .step_by(ROW_BLOCK)
        .map(|lo| lo..(lo + ROW_BLOCK).min(n))
        .collect()
}

/// Fills the rows of `out` on the pool, one [`ROW_BLOCK`] of rows per
/// item: `fill(rows, block)` writes output rows `rows` into `block`
/// (row-major, zeroed). Each output row is written by exactly one item,
/// so the split cannot change a bit.
fn fill_row_blocks(out: &mut Mat, fill: impl Fn(Range<usize>, &mut [f64]) + Sync) {
    let cols = out.cols();
    if cols == 0 {
        return;
    }
    let slots: Vec<(usize, Mutex<&mut [f64]>)> = out
        .as_mut_slice()
        .chunks_mut(ROW_BLOCK * cols)
        .enumerate()
        .map(|(b, block)| (b * ROW_BLOCK, Mutex::new(block)))
        .collect();
    pool::parallel_map(&slots, |(start, slot)| {
        let mut block = slot.lock().unwrap_or_else(PoisonError::into_inner);
        let rows = *start..*start + block.len() / cols;
        fill(rows, &mut block);
    });
}

/// A row-sparse matrix (list of `(col, value)` per row), used for PPMI
/// statistics consumed by the matrix-completion embedding trainer.
///
/// Every row is kept sorted by column ([`SparseMatrix::push`] inserts in
/// place, [`SparseMatrix::decode_from`] rejects unsorted rows), which is
/// what lets [`SparseMatrix::apply_t`] find a column range in a row by
/// binary search.
#[derive(Clone, Debug)]
pub struct SparseMatrix {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<Vec<(u32, f64)>>,
}

impl SparseMatrix {
    /// Creates an empty sparse matrix of the given shape.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        SparseMatrix {
            n_rows,
            n_cols,
            rows: vec![Vec::new(); n_rows],
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Inserts an entry at its column's place in row `i` (no dedup;
    /// callers insert each coordinate once). Pushing a row's columns in
    /// increasing order appends.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn push(&mut self, i: u32, j: u32, v: f64) {
        assert!(
            (i as usize) < self.n_rows && (j as usize) < self.n_cols,
            "index out of bounds"
        );
        let row = &mut self.rows[i as usize];
        let at = row.partition_point(|&(c, _)| c <= j);
        row.insert(at, (j, v));
    }

    /// The `(col, value)` entries of row `i`.
    pub fn row(&self, i: usize) -> &[(u32, f64)] {
        &self.rows[i]
    }

    /// Total number of stored entries.
    pub fn nnz(&self) -> usize {
        self.rows.iter().map(Vec::len).sum()
    }

    /// Iterates over `(row, col, value)` triples in row-major order.
    pub fn iter_entries(&self) -> impl Iterator<Item = (u32, u32, f64)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(i, r)| r.iter().map(move |&(j, v)| (i as u32, j, v)))
    }

    /// Collects all entries into a vector (row-major order).
    pub fn to_entries(&self) -> Vec<(u32, u32, f64)> {
        self.iter_entries().collect()
    }

    /// Materializes as a dense matrix (tests / small inputs only).
    pub fn to_dense(&self) -> Mat {
        let mut m = Mat::zeros(self.n_rows, self.n_cols);
        for (i, j, v) in self.iter_entries() {
            m[(i as usize, j as usize)] = v;
        }
        m
    }

    /// The value at `(i, j)`, zero if absent.
    pub fn get(&self, i: u32, j: u32) -> f64 {
        let row = &self.rows[i as usize];
        row.binary_search_by_key(&j, |&(c, _)| c)
            .map_or(0.0, |at| row[at].1)
    }

    /// Appends the matrix to `out` in the world-cache byte layout:
    /// `n_rows: u64, n_cols: u64`, then per row a `u64` entry count
    /// followed by `(col: u32, value: f64)` pairs in stored order.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.n_rows as u64);
        codec::put_u64(out, self.n_cols as u64);
        for row in &self.rows {
            codec::put_u64(out, row.len() as u64);
            for &(j, v) in row {
                codec::put_u32(out, j);
                codec::put_f64(out, v);
            }
        }
    }

    /// Reads one [`SparseMatrix::encode_into`]-encoded matrix from the
    /// front of `r`, advancing it; per-row entry order is preserved
    /// exactly. Returns `None` on truncated or inconsistent input —
    /// including a row whose columns do not strictly increase, and
    /// non-finite values, which [`ppmi`] never stores and which would
    /// silently poison downstream training.
    pub fn decode_from(r: &mut &[u8]) -> Option<SparseMatrix> {
        let n_rows = usize::try_from(codec::take_u64(r)?).ok()?;
        let n_cols = usize::try_from(codec::take_u64(r)?).ok()?;
        if r.len() < n_rows.checked_mul(8)? {
            return None; // cheaper bound check before allocating rows
        }
        let mut rows = Vec::with_capacity(n_rows);
        for _ in 0..n_rows {
            let len = codec::take_len(r, 12)?;
            let mut row = Vec::with_capacity(len);
            for _ in 0..len {
                let j = codec::take_u32(r)?;
                if (j as usize) >= n_cols || row.last().is_some_and(|&(c, _)| c >= j) {
                    return None;
                }
                let v = codec::take_f64(r)?;
                if !v.is_finite() {
                    return None;
                }
                row.push((j, v));
            }
            rows.push(row);
        }
        Some(SparseMatrix {
            n_rows,
            n_cols,
            rows,
        })
    }
}

/// Sparse products for the randomized SVD's range finder: the PPMI
/// matrix never has to be densified to be factorized. Each product costs
/// `O(nnz * k)` against the dense path's `O(n_rows * n_cols * k)` — the
/// difference between the warm incremental retrain and a retrain that
/// spends most of its time multiplying stored zeros.
impl SketchOp for SparseMatrix {
    fn op_shape(&self) -> (usize, usize) {
        (self.n_rows, self.n_cols)
    }

    /// `A * x`: accumulates `v * x[j]` into output row `i` per stored
    /// entry, in stored order. Output rows are split across the pool; a
    /// row's sum never depends on the split.
    fn apply(&self, x: &Mat) -> Mat {
        assert_eq!(x.rows(), self.n_cols, "A * x shape mismatch");
        let k = x.cols();
        let mut out = Mat::zeros(self.n_rows, k);
        fill_row_blocks(&mut out, |rows, block| {
            for (i, out_row) in rows.zip(block.chunks_exact_mut(k)) {
                for &(j, v) in &self.rows[i] {
                    vecops::axpy(v, x.row(j as usize), out_row);
                }
            }
        });
        out
    }

    /// `A^T * x`: scatters `v * x[i]` into output row `j` per stored
    /// entry. Output rows (columns of `A`) are split across the pool by
    /// range; each item walks the input rows in order and takes its
    /// range's entries by binary search, so every output row still
    /// accumulates its terms in input-row order, whatever the split.
    fn apply_t(&self, x: &Mat) -> Mat {
        assert_eq!(x.rows(), self.n_rows, "A^T * x shape mismatch");
        let k = x.cols();
        let mut out = Mat::zeros(self.n_cols, k);
        fill_row_blocks(&mut out, |cols, block| {
            for (i, row) in self.rows.iter().enumerate() {
                let lo = row.partition_point(|&(j, _)| (j as usize) < cols.start);
                for &(j, v) in &row[lo..] {
                    if j as usize >= cols.end {
                        break;
                    }
                    let at = j as usize - cols.start;
                    vecops::axpy(v, x.row(i), &mut block[at * k..(at + 1) * k]);
                }
            }
        });
        out
    }
}

/// Row `i` of the PPMI matrix of `cooc`, given its marginals and total:
/// `ln(c_ij * T / (r_i * r_j))` for every stored `c_ij` whose value is
/// positive, in column order. The row is gathered in `scratch` and
/// returned at exact capacity, one allocation per row (growing rows by
/// doubling made the allocator, not the arithmetic, the refresh's cost).
fn ppmi_row(
    cooc: &Cooc,
    row_sums: &[f64],
    total: f64,
    i: usize,
    scratch: &mut Vec<(u32, f64)>,
) -> Vec<(u32, f64)> {
    let ri = row_sums[i];
    if total <= 0.0 || ri <= 0.0 {
        return Vec::new();
    }
    scratch.clear();
    for &(j, c) in cooc.row(i) {
        let rj = row_sums[j as usize];
        if rj <= 0.0 {
            continue;
        }
        let val = (c * total / (ri * rj)).ln();
        if val > 0.0 {
            scratch.push((j, val));
        }
    }
    scratch.to_vec()
}

/// Builds the PPMI matrix from a co-occurrence table.
///
/// `ppmi(i, j) = max(0, ln( c_ij * total / (r_i * r_j) ))` where `r` are row
/// marginals; zero entries are dropped. Rows are built on the worker pool,
/// `ROW_BLOCK` at a time; each row is one item's, so the split cannot
/// change a bit.
pub fn ppmi(cooc: &Cooc) -> SparseMatrix {
    let n = cooc.n();
    let (row_sums, total) = (cooc.row_sums(), cooc.total());
    let rows = pool::parallel_map(&row_blocks(n), |rows| {
        let mut scratch = Vec::new();
        rows.clone()
            .map(|i| ppmi_row(cooc, &row_sums, total, i, &mut scratch))
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    SparseMatrix {
        n_rows: n,
        n_cols: n,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cooc::CoocConfig;
    use crate::generate::Corpus;

    fn count(docs: Vec<Vec<u32>>, vocab_size: usize, config: &CoocConfig) -> Cooc {
        Cooc::count(&Corpus::from_docs(docs), vocab_size, config).expect("valid corpus")
    }

    #[test]
    fn sketch_op_products_match_dense() {
        let docs = vec![vec![0u32, 1, 2, 0, 1], vec![2, 3, 1, 0], vec![3, 3, 0, 4]];
        let cooc = count(docs, 5, &CoocConfig::default());
        let p = ppmi(&cooc);
        let dense = p.to_dense();
        let x = Mat::from_fn(5, 3, |i, j| (i * 3 + j) as f64 * 0.25 - 1.0);
        let (ax, dax) = (p.apply(&x), dense.matmul(&x));
        let (atx, datx) = (p.apply_t(&x), dense.matmul_tn(&x));
        assert_eq!(p.op_shape(), (5, 5));
        for i in 0..5 {
            for j in 0..3 {
                assert!((ax[(i, j)] - dax[(i, j)]).abs() < 1e-12);
                assert!((atx[(i, j)] - datx[(i, j)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn ppmi_nonnegative_and_symmetric() {
        let docs = vec![vec![0, 1, 2, 0, 1], vec![2, 3, 1, 0], vec![3, 3, 0]];
        let cooc = count(docs, 4, &CoocConfig::default());
        let p = ppmi(&cooc);
        for (i, j, v) in p.iter_entries() {
            assert!(v > 0.0);
            assert!((p.get(j, i) - v).abs() < 1e-12, "asymmetric at ({i},{j})");
        }
    }

    #[test]
    fn ppmi_hand_computed() {
        // Single doc [0, 1], window 1: counts c(0,1)=c(1,0)=1, total=2,
        // r0=r1=1 => pmi = ln(1*2/(1*1)) = ln 2 for both entries.
        let cooc = count(
            vec![vec![0, 1]],
            2,
            &CoocConfig {
                window: 1,
                distance_weighting: false,
            },
        );
        let p = ppmi(&cooc);
        assert_eq!(p.nnz(), 2);
        assert!((p.get(0, 1) - 2.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn independent_words_have_no_ppmi() {
        // A long alternating sequence of two words makes them *negatively*
        // associated beyond chance within window 1? Actually alternation is
        // perfect association. Instead: uniform random text should give PMI
        // near zero, so most entries are dropped or tiny.
        use rand::{RngExt, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let doc: Vec<u32> = (0..20_000).map(|_| rng.random_range(0..8u32)).collect();
        let cooc = count(
            vec![doc],
            8,
            &CoocConfig {
                window: 2,
                distance_weighting: false,
            },
        );
        let p = ppmi(&cooc);
        for (_, _, v) in p.iter_entries() {
            assert!(v < 0.15, "uniform text should have near-zero PMI, got {v}");
        }
    }

    #[test]
    fn sparse_codec_round_trips_bitwise() {
        let docs = vec![vec![0, 1, 2, 0, 1], vec![2, 3, 1, 0], vec![3, 3, 0]];
        let cooc = count(docs, 4, &CoocConfig::default());
        let p = ppmi(&cooc);
        let mut bytes = Vec::new();
        p.encode_into(&mut bytes);
        let r = &mut bytes.as_slice();
        let back = SparseMatrix::decode_from(r).expect("decodes");
        assert!(r.is_empty());
        assert_eq!((back.n_rows(), back.n_cols()), (p.n_rows(), p.n_cols()));
        let bits = |m: &SparseMatrix| {
            m.iter_entries()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&p));
        for cut in 0..bytes.len() {
            assert!(SparseMatrix::decode_from(&mut &bytes[..cut]).is_none());
        }
        // A value corrupted to a NaN/infinity is a miss, not a silently
        // poisoned matrix: the first entry's f64 sits right after the two
        // u64 dims, the first row length, and the u32 column index.
        assert!(!p.row(0).is_empty(), "fixture must exercise the value path");
        let first_value_end = 8 + 8 + 8 + 4 + 8;
        let mut corrupt = bytes;
        for b in corrupt[first_value_end - 8..first_value_end].iter_mut() {
            *b = 0xFF; // negative NaN bit pattern
        }
        assert!(SparseMatrix::decode_from(&mut corrupt.as_slice()).is_none());
    }

    fn bits(m: &SparseMatrix) -> Vec<(u32, u32, u64)> {
        m.iter_entries()
            .map(|(i, j, v)| (i, j, v.to_bits()))
            .collect()
    }

    #[test]
    fn recompute_all_rows_matches_from_scratch_bitwise() {
        // The streaming refresh: `ppmi` over a table grown by `accumulate`
        // is bitwise the PPMI of one count over the concatenated corpus.
        let base = vec![vec![0u32, 1, 2, 0, 1], vec![2, 3, 1, 0]];
        let delta = vec![vec![3u32, 3, 0], vec![1, 2, 2]];
        let config = CoocConfig::default();
        let mut cooc = count(base.clone(), 4, &config);
        cooc.accumulate(&delta, &config).expect("valid delta");
        let mut full = base;
        full.extend(delta);
        assert_eq!(bits(&ppmi(&cooc)), bits(&ppmi(&count(full, 4, &config))));
    }

    #[test]
    fn sparse_matrix_basics() {
        let mut m = SparseMatrix::new(3, 3);
        m.push(0, 2, 1.5);
        m.push(2, 0, 2.5);
        m.push(0, 1, 0.5);
        assert_eq!(m.nnz(), 3);
        assert_eq!(m.get(0, 2), 1.5);
        assert_eq!(m.get(1, 1), 0.0);
        // Out-of-order pushes land at their column's place.
        assert_eq!(m.row(0), &[(1, 0.5), (2, 1.5)]);
        // A row stored out of column order does not decode.
        let mut bytes = Vec::new();
        m.encode_into(&mut bytes);
        assert!(SparseMatrix::decode_from(&mut bytes.as_slice()).is_some());
        let first = 8 + 8 + 8; // n_rows, n_cols, row 0's length
        let (a, b) = (first..first + 12, first + 12..first + 24);
        let entry0 = bytes[a.clone()].to_vec();
        bytes.copy_within(b.clone(), a.start);
        bytes[b].copy_from_slice(&entry0);
        assert!(SparseMatrix::decode_from(&mut bytes.as_slice()).is_none());
        let d = m.to_dense();
        assert_eq!(d[(2, 0)], 2.5);
        assert_eq!(d[(1, 1)], 0.0);
    }
}
