//! Windowed co-occurrence counting.

use std::collections::HashMap;
use std::fmt;

use crate::codec;
use crate::generate::Corpus;

/// A validation error from co-occurrence counting or increment streaming.
///
/// Counting used to be panic-only; the streaming path
/// (`embedstab_stream`) applies increments inside a long-lived service
/// where malformed input must surface as a typed error, never crash the
/// process. [`Cooc::count`] keeps its panicking contract by unwrapping
/// this type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CoocError {
    /// `CoocConfig::window` was zero: every window would be empty, so the
    /// count would silently be an empty table — statistically meaningless
    /// and almost certainly a caller bug.
    ZeroWindow,
    /// A token id at or beyond the vocabulary size.
    TokenOutOfVocab {
        /// The offending token id.
        token: u32,
        /// The vocabulary size it failed against.
        vocab_size: usize,
    },
}

impl fmt::Display for CoocError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CoocError::ZeroWindow => {
                write!(f, "window must be positive (window == 0 counts nothing)")
            }
            CoocError::TokenOutOfVocab { token, vocab_size } => {
                write!(f, "token id {token} out of vocabulary (size {vocab_size})")
            }
        }
    }
}

impl std::error::Error for CoocError {}

/// Configuration for co-occurrence counting.
#[derive(Clone, Copy, Debug)]
pub struct CoocConfig {
    /// Symmetric context window size.
    pub window: usize,
    /// If true, a pair at distance `d` contributes weight `1/d`
    /// (GloVe-style); otherwise weight `1`.
    pub distance_weighting: bool,
}

impl Default for CoocConfig {
    fn default() -> Self {
        CoocConfig {
            window: 8,
            distance_weighting: false,
        }
    }
}

/// A symmetric co-occurrence table over a vocabulary of size `n`.
///
/// Both `(i, j)` and `(j, i)` are stored, so row sums are the standard
/// marginals used by PPMI.
#[derive(Clone, Debug)]
pub struct Cooc {
    n: usize,
    map: HashMap<u64, f64>,
    total: f64,
}

#[inline]
fn key(i: u32, j: u32) -> u64 {
    ((i as u64) << 32) | j as u64
}

impl Cooc {
    /// Counts co-occurrences over all documents of a corpus. Windows do not
    /// cross document boundaries.
    ///
    /// # Panics
    ///
    /// Panics if `config.window` is zero or a token id is `>= vocab_size`.
    /// [`Cooc::try_count`] is the non-panicking equivalent.
    pub fn count(corpus: &Corpus, vocab_size: usize, config: &CoocConfig) -> Self {
        match Self::try_count(corpus, vocab_size, config) {
            Ok(c) => c,
            Err(CoocError::ZeroWindow) => panic!("window must be positive"),
            Err(e @ CoocError::TokenOutOfVocab { .. }) => {
                panic!("token id out of vocabulary: {e}")
            }
        }
    }

    /// Counts co-occurrences like [`Cooc::count`], but reports invalid
    /// input as a typed [`CoocError`] instead of panicking — the contract
    /// long-lived services (the streaming retrainer) need.
    ///
    /// # Errors
    ///
    /// [`CoocError::ZeroWindow`] if `config.window == 0`,
    /// [`CoocError::TokenOutOfVocab`] if any token id is `>= vocab_size`.
    pub fn try_count(
        corpus: &Corpus,
        vocab_size: usize,
        config: &CoocConfig,
    ) -> Result<Self, CoocError> {
        let mut c = Cooc::empty(vocab_size);
        c.accumulate(corpus.docs(), config)?;
        Ok(c)
    }

    /// An empty table over a vocabulary of size `vocab_size` — the
    /// starting point for [`Cooc::accumulate`] streaming.
    pub fn empty(vocab_size: usize) -> Self {
        Cooc {
            n: vocab_size,
            map: HashMap::new(),
            total: 0.0,
        }
    }

    /// Streams additional documents into the table, returning the sorted
    /// ids of rows whose counts changed (the dirty set).
    ///
    /// This is the streaming primitive behind `embedstab_stream`: because
    /// each map entry and the running `total` are plain `+=` accumulators,
    /// feeding documents in across any number of `accumulate` calls
    /// produces **bitwise-identical** state — map values, `total`,
    /// [`Cooc::entries`] and [`Cooc::row_sums`] — to one
    /// [`Cooc::count`] over the concatenated corpus: every accumulator
    /// sees the same additions in the same (document) order, and
    /// [`Cooc::row_sums`] re-sums in sorted-entry order regardless of how
    /// the map grew. Windows never cross document boundaries, so
    /// increments at document granularity leave earlier documents' pair
    /// contributions untouched.
    ///
    /// All tokens are validated *before* any mutation, so an error leaves
    /// the table exactly as it was (strong exception safety) — a
    /// half-applied increment would silently skew every statistic
    /// downstream.
    ///
    /// # Errors
    ///
    /// [`CoocError::ZeroWindow`] if `config.window == 0`,
    /// [`CoocError::TokenOutOfVocab`] on the first token id `>= self.n()`.
    pub fn accumulate(
        &mut self,
        docs: &[Vec<u32>],
        config: &CoocConfig,
    ) -> Result<Vec<u32>, CoocError> {
        if config.window == 0 {
            return Err(CoocError::ZeroWindow);
        }
        for doc in docs {
            for &t in doc {
                if (t as usize) >= self.n {
                    return Err(CoocError::TokenOutOfVocab {
                        token: t,
                        vocab_size: self.n,
                    });
                }
            }
        }
        let mut touched = vec![false; self.n];
        for doc in docs {
            for (t, &a) in doc.iter().enumerate() {
                let end = (t + config.window + 1).min(doc.len());
                for (dist, &b) in doc[t + 1..end].iter().enumerate() {
                    let w = if config.distance_weighting {
                        1.0 / (dist + 1) as f64
                    } else {
                        1.0
                    };
                    *self.map.entry(key(a, b)).or_insert(0.0) += w;
                    *self.map.entry(key(b, a)).or_insert(0.0) += w;
                    self.total += 2.0 * w;
                    touched[a as usize] = true;
                    touched[b as usize] = true;
                }
            }
        }
        Ok(touched
            .iter()
            .enumerate()
            .filter_map(|(i, &hit)| hit.then_some(i as u32))
            .collect())
    }

    /// Vocabulary size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of stored (directed) non-zero entries.
    pub fn nnz(&self) -> usize {
        self.map.len()
    }

    /// Total mass (sum over all stored entries).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The count for pair `(i, j)`, zero if unobserved.
    pub fn get(&self, i: u32, j: u32) -> f64 {
        self.map.get(&key(i, j)).copied().unwrap_or(0.0)
    }

    /// All `(i, j, count)` entries, sorted by `(i, j)` for determinism.
    pub fn entries(&self) -> Vec<(u32, u32, f64)> {
        let mut out: Vec<(u32, u32, f64)> = self
            .map
            .iter()
            .map(|(&k, &v)| ((k >> 32) as u32, k as u32, v))
            .collect();
        out.sort_unstable_by_key(|&(i, j, _)| ((i as u64) << 32) | j as u64);
        out
    }

    /// Per-row views of the table: for each row `i`, its `(j, count)`
    /// entries sorted by `j`. This is [`Cooc::entries`] chunked by row —
    /// same entries, same within-row order — but built with one
    /// `O(len log len)` sort *per row* instead of one global sort, which
    /// is markedly cheaper at large `nnz` and what the incremental PPMI
    /// refresh ([`crate::ppmi::recompute_rows`]) iterates.
    pub fn rows_sorted(&self) -> Vec<Vec<(u32, f64)>> {
        let mut rows: Vec<Vec<(u32, f64)>> = vec![Vec::new(); self.n];
        for (&k, &v) in &self.map {
            rows[(k >> 32) as usize].push((k as u32, v));
        }
        for row in rows.iter_mut() {
            row.sort_unstable_by_key(|&(j, _)| j);
        }
        rows
    }

    /// Row marginals `r_i = sum_j count(i, j)`.
    ///
    /// Accumulated in sorted `(i, j)` order, **not** map-iteration order:
    /// float addition is order-sensitive, and hash-map iteration order
    /// varies per process, so summing the map directly would make the PPMI
    /// statistics (and everything trained from them) differ bitwise
    /// between processes — breaking the shard-fleet guarantee that a
    /// sharded run reproduces the unsharded run exactly.
    pub fn row_sums(&self) -> Vec<f64> {
        let mut sums = vec![0.0; self.n];
        for (i, _, v) in self.entries() {
            sums[i as usize] += v;
        }
        sums
    }

    /// Appends the table to `out` in the world-cache byte layout:
    /// `n: u64, total: f64 (raw bits), nnz: u64, sorted (i: u32, j: u32,
    /// count: f64) entries`. The running `total` is stored rather than
    /// recomputed on decode because it was accumulated in counting order —
    /// re-summing the sorted entries would round differently.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.n as u64);
        codec::put_f64(out, self.total);
        codec::put_u64(out, self.map.len() as u64);
        for (i, j, v) in self.entries() {
            codec::put_u32(out, i);
            codec::put_u32(out, j);
            codec::put_f64(out, v);
        }
    }

    /// Reads one [`Cooc::encode_into`]-encoded table from the front of
    /// `r`, advancing it. Returns `None` on truncated or inconsistent
    /// input — including non-finite or negative counts, which no counting
    /// run can produce and which would silently poison PPMI (and
    /// everything trained from it) with NaNs; a decoded table answers
    /// [`Cooc::get`] / [`Cooc::entries`] / [`Cooc::row_sums`] bitwise
    /// identically to the one encoded.
    pub fn decode_from(r: &mut &[u8]) -> Option<Cooc> {
        let n = usize::try_from(codec::take_u64(r)?).ok()?;
        let total = codec::take_f64(r)?;
        if !total.is_finite() || total < 0.0 {
            return None;
        }
        let nnz = codec::take_len(r, 16)?;
        let mut map = HashMap::with_capacity(nnz);
        for _ in 0..nnz {
            let i = codec::take_u32(r)?;
            let j = codec::take_u32(r)?;
            if (i as usize) >= n || (j as usize) >= n {
                return None;
            }
            let v = codec::take_f64(r)?;
            if !v.is_finite() || v < 0.0 {
                return None;
            }
            if map.insert(key(i, j), v).is_some() {
                return None; // duplicate coordinates: corrupt input
            }
        }
        Some(Cooc { n, map, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Corpus {
        Corpus::from_docs(vec![vec![0, 1, 2], vec![1, 1]])
    }

    #[test]
    fn window_one_flat_counts() {
        let c = Cooc::count(
            &tiny_corpus(),
            3,
            &CoocConfig {
                window: 1,
                distance_weighting: false,
            },
        );
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(1, 0), 1.0);
        assert_eq!(c.get(1, 2), 1.0);
        assert_eq!(c.get(0, 2), 0.0);
        // (1,1) appears once in doc 2, stored in both directions onto the
        // same key, so it accumulates 2.
        assert_eq!(c.get(1, 1), 2.0);
        // Three undirected pairs, each stored in both directions.
        assert_eq!(c.total(), 6.0);
    }

    #[test]
    fn window_two_distance_weighted() {
        let c = Cooc::count(
            &tiny_corpus(),
            3,
            &CoocConfig {
                window: 2,
                distance_weighting: true,
            },
        );
        assert_eq!(c.get(0, 1), 1.0);
        assert_eq!(c.get(0, 2), 0.5);
        assert_eq!(c.get(2, 0), 0.5);
    }

    #[test]
    fn symmetric() {
        let docs = vec![vec![0, 1, 2, 3, 0, 2], vec![3, 2, 1]];
        let c = Cooc::count(&Corpus::from_docs(docs), 4, &CoocConfig::default());
        for i in 0..4u32 {
            for j in 0..4u32 {
                assert_eq!(c.get(i, j), c.get(j, i), "asymmetry at ({i},{j})");
            }
        }
        let sums = c.row_sums();
        assert!((sums.iter().sum::<f64>() - c.total()).abs() < 1e-9);
    }

    #[test]
    fn no_cross_document_pairs() {
        let docs = vec![vec![0], vec![1]];
        let c = Cooc::count(
            &Corpus::from_docs(docs),
            2,
            &CoocConfig {
                window: 5,
                distance_weighting: false,
            },
        );
        assert_eq!(c.get(0, 1), 0.0);
        assert_eq!(c.nnz(), 0);
    }

    #[test]
    #[should_panic(expected = "out of vocabulary")]
    fn out_of_vocab_panics() {
        let docs = vec![vec![0, 9]];
        let _ = Cooc::count(&Corpus::from_docs(docs), 2, &CoocConfig::default());
    }

    #[test]
    fn codec_round_trips_bitwise() {
        let docs = vec![vec![2, 0, 1, 2, 0, 3, 1], vec![3, 2, 1]];
        let c = Cooc::count(
            &Corpus::from_docs(docs),
            4,
            &CoocConfig {
                window: 3,
                distance_weighting: true,
            },
        );
        let mut bytes = Vec::new();
        c.encode_into(&mut bytes);
        let r = &mut bytes.as_slice();
        let back = Cooc::decode_from(r).expect("decodes");
        assert!(r.is_empty());
        assert_eq!(back.n(), c.n());
        assert_eq!(back.total().to_bits(), c.total().to_bits());
        let bits = |c: &Cooc| {
            c.entries()
                .into_iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&back), bits(&c));
        let sum_bits = |c: &Cooc| {
            c.row_sums()
                .into_iter()
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        assert_eq!(sum_bits(&back), sum_bits(&c));
        // Truncations decode to None, never panic.
        for cut in 0..bytes.len() {
            assert!(Cooc::decode_from(&mut &bytes[..cut]).is_none());
        }
        // A corrupt count (negative/NaN via a smashed sign-exponent byte)
        // is a miss, not NaN statistics: the first entry's f64 occupies
        // bytes 32..40 (n: 8, total: 8, nnz: 8, i+j: 8).
        let mut corrupt = bytes.clone();
        corrupt[39] = 0xFF;
        assert!(Cooc::decode_from(&mut corrupt.as_slice()).is_none());
        // Same for a corrupt total.
        let mut corrupt = bytes;
        corrupt[15] = 0xFF;
        assert!(Cooc::decode_from(&mut corrupt.as_slice()).is_none());
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_panics_in_count() {
        let _ = Cooc::count(
            &tiny_corpus(),
            3,
            &CoocConfig {
                window: 0,
                distance_weighting: false,
            },
        );
    }

    #[test]
    fn try_count_reports_typed_errors() {
        let zero = CoocConfig {
            window: 0,
            distance_weighting: false,
        };
        assert_eq!(
            Cooc::try_count(&tiny_corpus(), 3, &zero).expect_err("zero window"),
            CoocError::ZeroWindow
        );
        let oov = Cooc::try_count(
            &Corpus::from_docs(vec![vec![0, 9]]),
            2,
            &CoocConfig::default(),
        );
        assert_eq!(
            oov.expect_err("out-of-vocab token"),
            CoocError::TokenOutOfVocab {
                token: 9,
                vocab_size: 2
            }
        );
        let ok = Cooc::try_count(&tiny_corpus(), 3, &CoocConfig::default()).expect("valid corpus");
        let counted = Cooc::count(&tiny_corpus(), 3, &CoocConfig::default());
        assert_eq!(ok.total().to_bits(), counted.total().to_bits());
    }

    #[test]
    fn accumulate_error_leaves_table_untouched() {
        let config = CoocConfig::default();
        let mut c = Cooc::count(&tiny_corpus(), 3, &config);
        let before_total = c.total().to_bits();
        let before_entries = c.entries();
        // The bad token sits at the *end* of the batch: a validate-as-you-go
        // implementation would have already mutated the table by then.
        let err = c
            .accumulate(&[vec![0, 1], vec![2, 7]], &config)
            .expect_err("out-of-vocab batch must be rejected");
        assert_eq!(
            err,
            CoocError::TokenOutOfVocab {
                token: 7,
                vocab_size: 3
            }
        );
        assert_eq!(c.total().to_bits(), before_total);
        assert_eq!(c.entries(), before_entries);
    }

    #[test]
    fn accumulate_reports_sorted_dirty_rows() {
        let mut c = Cooc::empty(6);
        let dirty = c
            .accumulate(&[vec![5, 2], vec![2, 0]], &CoocConfig::default())
            .expect("valid batch");
        assert_eq!(dirty, vec![0, 2, 5]);
        // A batch with no in-window pairs dirties nothing.
        let dirty = c
            .accumulate(
                &[vec![4], vec![1]],
                &CoocConfig {
                    window: 3,
                    distance_weighting: false,
                },
            )
            .expect("valid batch");
        assert!(dirty.is_empty());
    }

    #[test]
    fn streamed_batches_match_one_shot_count_bitwise() {
        let docs = vec![
            vec![2, 0, 1, 2, 0, 3, 1],
            vec![3, 2, 1],
            vec![0, 0, 3],
            vec![1, 3, 2, 0],
        ];
        let config = CoocConfig {
            window: 2,
            distance_weighting: true,
        };
        let one_shot = Cooc::count(&Corpus::from_docs(docs.clone()), 4, &config);
        let mut streamed = Cooc::empty(4);
        for batch in docs.chunks(1) {
            streamed.accumulate(batch, &config).expect("valid batch");
        }
        assert_eq!(streamed.total().to_bits(), one_shot.total().to_bits());
        let bits = |c: &Cooc| {
            c.entries()
                .into_iter()
                .map(|(i, j, v)| (i, j, v.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&streamed), bits(&one_shot));
        let sum_bits = |c: &Cooc| {
            c.row_sums()
                .into_iter()
                .map(f64::to_bits)
                .collect::<Vec<_>>()
        };
        assert_eq!(sum_bits(&streamed), sum_bits(&one_shot));
    }

    #[test]
    fn entries_sorted_and_deterministic() {
        let docs = vec![vec![2, 0, 1, 2, 0]];
        let corpus = Corpus::from_docs(docs);
        let a = Cooc::count(&corpus, 3, &CoocConfig::default()).entries();
        let b = Cooc::count(&corpus, 3, &CoocConfig::default()).entries();
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }
}
