//! The k-nearest-neighbors measure (Hellrich & Hahn 2016; Antoniak & Mimno
//! 2018; Wendlandt et al. 2018).

use embedstab_embeddings::Embedding;
use embedstab_linalg::{cosine_top_k, row_norms};
use rand::{Rng, RngExt, SeedableRng};

use super::DistanceMeasure;

/// The k-NN measure: average overlap of the `k` nearest neighbors (by
/// cosine similarity) of `Q` randomly sampled query words, reported as the
/// distance `1 - overlap`.
///
/// Neighbors come from the shared cosine top-k kernel
/// ([`embedstab_linalg::cosine_top_k`]), the same one the serving layer's
/// `try_nearest_batch` uses. Similarity is the scalar
/// [`cosine_similarity`](embedstab_linalg::vecops::cosine_similarity)
/// (`0` for a zero row), ranked descending with NaN last and the lower
/// word id first on ties, and the query word itself is never its own
/// neighbor. The kernel screens with the blocked GEMM (a thin last tile
/// with a lane-split dot loop) and rescores the boundary exactly, so the
/// neighbor sets, and hence the distance, are bitwise those of a naive
/// scan over every word.
///
/// The paper uses `k = 5` (tuned in Appendix D.3) and `Q = 1000`.
#[derive(Clone, Debug)]
pub struct KnnMeasure {
    k: usize,
    queries: usize,
    seed: u64,
}

impl KnnMeasure {
    /// Creates the measure with `k` neighbors and `queries` sampled query
    /// words (capped at the vocabulary size at evaluation time).
    ///
    /// # Panics
    ///
    /// Panics if `k` or `queries` is zero.
    pub fn new(k: usize, queries: usize, seed: u64) -> Self {
        assert!(k > 0, "k must be positive");
        assert!(queries > 0, "queries must be positive");
        KnnMeasure { k, queries, seed }
    }

    /// The top-`k` neighbor lists of the measure's sampled query words
    /// in `x`: one side of [`DistanceMeasure::distance`], for callers that
    /// compare many embeddings against one (the serving gate keeps the
    /// live snapshot's lists).
    ///
    /// # Panics
    ///
    /// Panics if `x` has fewer than 2 words.
    pub fn neighbors(&self, x: &Embedding) -> Vec<Vec<u32>> {
        let n = x.vocab_size();
        assert!(n >= 2, "need at least two words for neighbors");
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let queries = sample_distinct(self.queries.min(n), n, &mut rng);
        neighbors(x, &queries, self.k.min(n - 1))
    }

    /// Mean top-`k` neighbor overlap of `x` and `y` in `[0, 1]` (1 =
    /// identical neighbor structure), given `x`'s
    /// [`KnnMeasure::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if `x_neighbors` was not computed over `y`'s vocabulary
    /// size, or that vocabulary has fewer than 2 words.
    pub fn overlap_from_neighbors(&self, x_neighbors: &[Vec<u32>], y: &Embedding) -> f64 {
        let ny = self.neighbors(y);
        assert_eq!(x_neighbors.len(), ny.len(), "vocabulary mismatch");
        let k = self.k.min(y.vocab_size() - 1);
        let mut total = 0.0;
        for (a, b) in x_neighbors.iter().zip(&ny) {
            let inter = a.iter().filter(|w| b.contains(w)).count();
            total += inter as f64 / k as f64;
        }
        total / ny.len() as f64
    }
}

impl DistanceMeasure for KnnMeasure {
    /// `1 -` [`KnnMeasure::overlap_from_neighbors`] over `x`'s
    /// [`KnnMeasure::neighbors`].
    ///
    /// # Panics
    ///
    /// Panics if vocabularies differ or have fewer than 2 words.
    fn distance(&self, x: &Embedding, y: &Embedding) -> f64 {
        assert_eq!(x.vocab_size(), y.vocab_size(), "vocabulary mismatch");
        1.0 - self.overlap_from_neighbors(&self.neighbors(x), y)
    }
}

fn sample_distinct(count: usize, n: usize, rng: &mut impl Rng) -> Vec<u32> {
    if count >= n {
        return (0..n as u32).collect();
    }
    // Partial Fisher-Yates.
    let mut ids: Vec<u32> = (0..n as u32).collect();
    for i in 0..count {
        let j = rng.random_range(i..n);
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids
}

/// The ids of the `k` most cosine-similar words to each query word,
/// excluding the query itself.
fn neighbors(emb: &Embedding, queries: &[u32], k: usize) -> Vec<Vec<u32>> {
    let rows: Vec<usize> = queries.iter().map(|&q| q as usize).collect();
    let vocab = emb.mat();
    cosine_top_k(
        vocab,
        &row_norms(vocab),
        &vocab.select_rows(&rows),
        k,
        Some(queries),
    )
    .into_iter()
    .map(|list| list.into_iter().map(|(w, _)| w).collect())
    .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_linalg::{vecops, Mat};

    #[test]
    fn identical_embeddings_have_full_overlap() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let e = Embedding::new(Mat::random_normal(30, 5, &mut rng));
        let m = KnnMeasure::new(3, 100, 0);
        assert_eq!(m.distance(&e, &e), 0.0);
    }

    #[test]
    fn rotation_preserves_neighbors() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let x = Mat::random_normal(30, 5, &mut rng);
        let (q, _) = Mat::random_normal(5, 5, &mut rng).qr();
        let y = x.matmul(&q);
        let m = KnnMeasure::new(3, 100, 0);
        assert!(
            m.distance(&Embedding::new(x), &Embedding::new(y)) < 0.001,
            "cosine neighbors are rotation-invariant"
        );
    }

    #[test]
    fn unrelated_embeddings_have_low_overlap() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);
        let x = Embedding::new(Mat::random_normal(200, 8, &mut rng));
        let y = Embedding::new(Mat::random_normal(200, 8, &mut rng));
        let m = KnnMeasure::new(5, 100, 0);
        let d = m.distance(&x, &y);
        // Random chance of hitting the same neighbor is ~k/n.
        assert!(d > 0.85, "distance {d}");
    }

    #[test]
    fn top_k_excludes_query() {
        let e = Embedding::new(Mat::from_rows(&[&[1.0, 0.0], &[0.9, 0.1], &[0.0, 1.0]]));
        let nbrs = neighbors(&e, &[0], 2);
        assert!(!nbrs[0].contains(&0));
        assert_eq!(nbrs[0][0], 1, "closest neighbor of word 0 is word 1");
    }

    #[test]
    fn deterministic_queries() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let x = Embedding::new(Mat::random_normal(60, 4, &mut rng));
        let y = Embedding::new(Mat::random_normal(60, 4, &mut rng));
        let m = KnnMeasure::new(5, 20, 11);
        assert_eq!(m.distance(&x, &y).to_bits(), m.distance(&x, &y).to_bits());
    }

    /// The reference: the scalar scan the kernel replaced. Every other
    /// word is scored with `cosine_similarity` and the first `k` under the
    /// NaN-last descending order (lower id on ties) are kept.
    fn naive_top_k(emb: &Embedding, q: u32, k: usize) -> Vec<u32> {
        let qv = emb.vector(q);
        let mut sims: Vec<(f64, u32)> = (0..emb.vocab_size() as u32)
            .filter(|&w| w != q)
            .map(|w| (vecops::cosine_similarity(qv, emb.vector(w)), w))
            .collect();
        sims.select_nth_unstable_by(k - 1, |a, b| {
            crate::stats::cmp_desc_nan_last(a.0, b.0).then(a.1.cmp(&b.1))
        });
        sims.truncate(k);
        sims.into_iter().map(|(_, w)| w).collect()
    }

    /// `KnnMeasure::distance` computed with [`naive_top_k`].
    fn naive_distance(m: &KnnMeasure, x: &Embedding, y: &Embedding) -> f64 {
        let n = x.vocab_size();
        let k = m.k.min(n - 1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(m.seed);
        let queries = sample_distinct(m.queries.min(n), n, &mut rng);
        let mut total = 0.0;
        for &q in &queries {
            let nx = naive_top_k(x, q, k);
            let ny = naive_top_k(y, q, k);
            let inter = nx.iter().filter(|w| ny.contains(w)).count();
            total += inter as f64 / k as f64;
        }
        1.0 - total / queries.len() as f64
    }

    /// Uniform `bits`-bit levels on `[-1, 1]` (values clipped there first),
    /// the shape of a quantized embedding: few distinct cosines, many ties.
    fn levels(m: &Mat, bits: u32) -> Mat {
        let top = ((1u32 << bits) - 1) as f64;
        Mat::from_fn(m.rows(), m.cols(), |i, j| {
            let idx = ((m[(i, j)].clamp(-1.0, 1.0) + 1.0) / 2.0 * top).round();
            -1.0 + 2.0 * idx / top
        })
    }

    #[test]
    fn distance_is_bitwise_the_naive_scan() {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(6);
        // Vocab smaller than one 128-query tile, then not a multiple of it.
        for &(n, d) in &[(30usize, 5usize), (150, 8)] {
            let base = Mat::random_normal(n, d, &mut rng);
            let mut noisy = base.clone();
            noisy.axpy(0.3, &Mat::random_normal(n, d, &mut rng));
            let mut dup = base.clone();
            for i in (0..n).step_by(3) {
                let src = base.row((i + 1) % n).to_vec();
                dup.row_mut(i).copy_from_slice(&src);
            }
            let pairs = [
                ("random", base.clone(), noisy.clone()),
                ("1-bit", levels(&base, 1), levels(&noisy, 1)),
                ("2-bit", levels(&base, 2), levels(&noisy, 2)),
                ("duplicate rows", dup, base.clone()),
            ];
            for (label, a, b) in pairs {
                let (x, y) = (Embedding::new(a), Embedding::new(b));
                for &(k, q) in &[(5usize, 1000usize), (3, 17), (n - 1, 40), (n + 4, 1000)] {
                    let m = KnnMeasure::new(k, q, 9);
                    assert_eq!(
                        m.distance(&x, &y).to_bits(),
                        naive_distance(&m, &x, &y).to_bits(),
                        "{label}: n {n}, d {d}, k {k}, queries {q}"
                    );
                }
            }
        }
    }
}
