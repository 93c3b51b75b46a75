//! Negative sampling: the word2vec noise distribution (unigram counts
//! raised to the 3/4 power) and the one update step CBOW and fastText
//! skipgram share.
//!
//! [`NegativeStep::apply`] gives the same bits as the word2vec loop it
//! replaced, which drew each negative just before its update and computed
//! each dot product against the output row as it stood then. It draws the
//! negatives first, in the same rng order. When the target and the
//! negatives are distinct, no update touches another's output row, so
//! their dot products are computed up front as interleaved chains
//! ([`vecops::dot_rows`], each bitwise [`vecops::dot`]). With a repeated
//! word they run one at a time, each after the previous update, as
//! before. The sigmoid and `axpy` updates then run in the original order.
//! A step asked for no loss skips the `ln`s, and nothing else changes.

use embedstab_corpus::AliasTable;
use embedstab_linalg::{vecops, Mat};
use rand::Rng;

/// The word2vec negative-sampling distribution: word probabilities
/// proportional to `count^0.75`, with O(1) sampling via an alias table.
#[derive(Clone, Debug)]
pub struct NegativeTable {
    table: AliasTable,
}

impl NegativeTable {
    /// Builds the table from raw unigram counts.
    ///
    /// Words with zero count get a tiny floor weight so the distribution is
    /// well-defined even when the corpus misses rare vocabulary entries.
    ///
    /// # Panics
    ///
    /// Panics if `counts` is empty.
    pub fn new(counts: &[u64]) -> Self {
        assert!(!counts.is_empty(), "counts must be non-empty");
        let weights: Vec<f64> = counts
            .iter()
            .map(|&c| (c as f64).powf(0.75).max(1e-3))
            .collect();
        NegativeTable {
            table: AliasTable::new(&weights),
        }
    }

    /// Draws a negative sample different from `exclude`.
    pub fn sample(&self, exclude: u32, rng: &mut impl Rng) -> u32 {
        // Rejection on the excluded id terminates quickly because no single
        // word carries most of the ^0.75-smoothed mass.
        for _ in 0..64 {
            let w = self.table.sample(rng) as u32;
            if w != exclude {
                return w;
            }
        }
        // Pathological fallback (single-word vocabularies in tests).
        (exclude + 1) % self.table.len() as u32
    }

    /// Number of words.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// True if the table is empty (never constructible).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }
}

/// One negative-sampling update against the output matrix, with the
/// buffers it reuses from step to step.
#[derive(Clone, Debug)]
pub struct NegativeStep<'t> {
    table: &'t NegativeTable,
    /// The target, then the negatives, in draw order.
    words: Vec<u32>,
    dots: Vec<f64>,
    grad: Vec<f64>,
}

impl<'t> NegativeStep<'t> {
    /// A step drawing `negatives` words per target from `table`, for
    /// `dim`-dimensional vectors.
    pub fn new(table: &'t NegativeTable, negatives: usize, dim: usize) -> Self {
        NegativeStep {
            table,
            words: Vec::with_capacity(negatives + 1),
            dots: vec![0.0; negatives + 1],
            grad: vec![0.0; dim],
        }
    }

    /// Trains `output` to score `target` above the negatives against
    /// `input`, at learning rate `lr`. Draws the negatives from `rng`,
    /// adds the logistic loss to `loss` when one is given, and leaves the
    /// gradient for the input side in [`NegativeStep::input_grad`].
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output`'s rows differ from the step's `dim`,
    /// or a drawn word is out of `output`'s range.
    pub fn apply(
        &mut self,
        output: &mut Mat,
        input: &[f64],
        target: u32,
        lr: f64,
        rng: &mut impl Rng,
        mut loss: Option<&mut f64>,
    ) {
        self.words.clear();
        self.words.push(target);
        for _ in 1..self.dots.len() {
            self.words.push(self.table.sample(target, rng));
        }
        let distinct = self
            .words
            .iter()
            .enumerate()
            .all(|(i, w)| !self.words[..i].contains(w));
        if distinct {
            self.dots.iter_mut().for_each(|d| *d = 0.0);
            let out = &*output;
            let words = &self.words;
            vecops::dot_rows(&mut self.dots, input, |i| out.row(words[i] as usize));
        }
        self.grad.iter_mut().for_each(|x| *x = 0.0);
        for (s, &w) in self.words.iter().enumerate() {
            let orow = output.row_mut(w as usize);
            let dot = if distinct {
                self.dots[s]
            } else {
                vecops::dot(orow, input)
            };
            let f = vecops::sigmoid(dot);
            let label = if s == 0 { 1.0 } else { 0.0 };
            if let Some(loss) = loss.as_deref_mut() {
                *loss -= if s == 0 {
                    f.max(1e-12).ln()
                } else {
                    (1.0 - f).max(1e-12).ln()
                };
            }
            let g = (label - f) * lr;
            vecops::axpy(g, orow, &mut self.grad);
            vecops::axpy(g, input, orow);
        }
    }

    /// The input-side gradient of the last [`NegativeStep::apply`],
    /// already scaled by its learning rate.
    pub fn input_grad(&mut self) -> &mut [f64] {
        &mut self.grad
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn smoothing_flattens_distribution() {
        let counts = [1000u64, 10, 10, 10];
        let table = NegativeTable::new(&counts);
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let mut hits = [0usize; 4];
        for _ in 0..50_000 {
            hits[table.sample(u32::MAX, &mut rng) as usize] += 1;
        }
        // Raw ratio would be 1000/1030 ~ 0.97; smoothed is
        // 1000^.75/(1000^.75+3*10^.75) ~ 0.91.
        let p0 = hits[0] as f64 / 50_000.0;
        assert!(p0 < 0.94 && p0 > 0.86, "p0 = {p0}");
    }

    #[test]
    fn excludes_requested_word() {
        let table = NegativeTable::new(&[5, 5]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(table.sample(0, &mut rng), 1);
        }
    }

    #[test]
    fn zero_counts_still_sampleable() {
        let table = NegativeTable::new(&[0, 0, 7]);
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        // Should not loop forever or panic.
        for _ in 0..100 {
            let w = table.sample(2, &mut rng);
            assert!(w < 2);
        }
    }
}
