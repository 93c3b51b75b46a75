//! Windowed co-occurrence counting.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::codec;
use crate::generate::Corpus;

/// A validation error from co-occurrence counting or increment streaming.
///
/// The streaming path (`embedstab_stream`) applies increments inside a
/// long-lived service where malformed input must surface as a typed
/// error, never crash the process; [`Cooc::count`] and
/// [`Cooc::accumulate`] both report it.
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
///
/// **Storage.** Row `i` is a `Vec<(j, count)>` kept sorted by `j`, so
/// every reader — [`Cooc::entries`], [`Cooc::row_sums`],
/// the PPMI builders, the byte encoding — walks the table in `(i, j)`
/// order with no sort and no hash-order dependence. Rows past the last
/// stored one are empty and need not be allocated, so a decoded table
/// costs memory in proportion to its entries, not to the vocabulary size
/// its header claims. A whole-corpus count
/// ([`Cooc::count`]) accumulates in a scratch hash map and converts
/// once into rows of exact capacity; [`Cooc::accumulate`] into a standing
/// table updates its rows in place (binary search, insert on a new
/// column). Either way every count is a plain `+=` accumulator that sees
/// the same additions in the same (document) order, so both paths — and
/// any split of a corpus into increments — hold bitwise the same table.
#[derive(Clone, Debug)]
pub struct Cooc {
    n: usize,
    rows: Vec<Vec<(u32, f64)>>,
    total: f64,
}

#[inline]
fn key(i: u32, j: u32) -> u64 {
    ((i as u64) << 32) | j as u64
}

/// The hasher of [`Cooc::count`]'s scratch map: the packed `(i, j)`
/// key through the MurmurHash3 64-bit finalizer. Token ids need no
/// defence against chosen collisions, and SipHash cost most of a count.
/// The map's layout never reaches a result: its entries are moved into
/// sorted rows before anything reads them.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn finish(&self) -> u64 {
        let mut x = self.0;
        x ^= x >> 33;
        x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
        x ^= x >> 33;
        x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        x ^ (x >> 33)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 << 8) | u64::from(b);
        }
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key;
    }
}

/// Checks every token of `docs` against `vocab_size` before anything is
/// counted.
fn validate(docs: &[Vec<u32>], vocab_size: usize, config: &CoocConfig) -> Result<(), CoocError> {
    if config.window == 0 {
        return Err(CoocError::ZeroWindow);
    }
    for &t in docs.iter().flatten() {
        if (t as usize) >= vocab_size {
            return Err(CoocError::TokenOutOfVocab {
                token: t,
                vocab_size,
            });
        }
    }
    Ok(())
}

/// Calls `add(a, b, w)` for every in-window pair of every document, in
/// counting order: documents in order, then left token, then distance.
fn for_each_pair(docs: &[Vec<u32>], config: &CoocConfig, mut add: impl FnMut(u32, u32, f64)) {
    for doc in docs {
        for (t, &a) in doc.iter().enumerate() {
            let end = (t + config.window + 1).min(doc.len());
            for (dist, &b) in doc[t + 1..end].iter().enumerate() {
                let w = if config.distance_weighting {
                    1.0 / (dist + 1) as f64
                } else {
                    1.0
                };
                add(a, b, w);
            }
        }
    }
}

/// Adds `w` to column `j` of a sorted row, inserting the column if new.
#[inline]
fn add_to_row(row: &mut Vec<(u32, f64)>, j: u32, w: f64) {
    match row.binary_search_by_key(&j, |&(c, _)| c) {
        Ok(at) => row[at].1 += w,
        // `0.0 + w`, as a fresh accumulator starting at zero would add it.
        Err(at) => row.insert(at, (j, 0.0 + w)),
    }
}

impl Cooc {
    /// Counts co-occurrences over all documents of a corpus. Windows do not
    /// cross document boundaries.
    ///
    /// The counts accumulate in a scratch hash map (one lookup per pair,
    /// however long the rows grow), which is then moved once into sorted
    /// rows of exact capacity.
    ///
    /// # Errors
    ///
    /// [`CoocError::ZeroWindow`] if `config.window == 0`,
    /// [`CoocError::TokenOutOfVocab`] if any token id is `>= vocab_size`.
    pub fn count(
        corpus: &Corpus,
        vocab_size: usize,
        config: &CoocConfig,
    ) -> Result<Self, CoocError> {
        let docs = corpus.docs();
        validate(docs, vocab_size, config)?;
        let mut map: HashMap<u64, f64, BuildHasherDefault<PairHasher>> = HashMap::default();
        let mut total = 0.0;
        for_each_pair(docs, config, |a, b, w| {
            *map.entry(key(a, b)).or_insert(0.0) += w;
            *map.entry(key(b, a)).or_insert(0.0) += w;
            total += 2.0 * w;
        });
        let mut lens = vec![0usize; vocab_size];
        for &k in map.keys() {
            lens[(k >> 32) as usize] += 1;
        }
        let mut rows: Vec<Vec<(u32, f64)>> = lens.into_iter().map(Vec::with_capacity).collect();
        for (k, v) in map {
            rows[(k >> 32) as usize].push((k as u32, v));
        }
        for row in &mut rows {
            row.sort_unstable_by_key(|&(j, _)| j);
        }
        Ok(Cooc {
            n: vocab_size,
            rows,
            total,
        })
    }

    /// An empty table over a vocabulary of size `vocab_size` — the
    /// starting point for [`Cooc::accumulate`] streaming.
    pub fn empty(vocab_size: usize) -> Self {
        Cooc {
            n: vocab_size,
            rows: Vec::new(),
            total: 0.0,
        }
    }

    /// Streams additional documents into the table, returning the sorted
    /// ids of rows whose counts changed (the dirty set).
    ///
    /// This is the streaming primitive behind `embedstab_stream`: because
    /// each count and the running `total` are plain `+=` accumulators
    /// updated in place, feeding documents in across any number of
    /// `accumulate` calls produces **bitwise-identical** state — counts,
    /// `total`, [`Cooc::entries`] and [`Cooc::row_sums`] — to one
    /// [`Cooc::count`] over the concatenated corpus: every accumulator
    /// sees the same additions in the same (document) order. Windows
    /// never cross document boundaries, so increments at document
    /// granularity leave earlier documents' pair contributions untouched.
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
        validate(docs, self.n, config)?;
        if self.rows.len() < self.n {
            self.rows.resize_with(self.n, Vec::new);
        }
        let mut touched = vec![false; self.n];
        let (rows, total) = (&mut self.rows, &mut self.total);
        for_each_pair(docs, config, |a, b, w| {
            add_to_row(&mut rows[a as usize], b, w);
            add_to_row(&mut rows[b as usize], a, w);
            *total += 2.0 * w;
            touched[a as usize] = true;
            touched[b as usize] = true;
        });
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
        self.rows.iter().map(Vec::len).sum()
    }

    /// Total mass (sum over all stored entries).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// The `(j, count)` entries of row `i`, sorted by `j` (empty for an
    /// id at or beyond the vocabulary).
    pub(crate) fn row(&self, i: usize) -> &[(u32, f64)] {
        self.rows.get(i).map_or(&[], Vec::as_slice)
    }

    /// The count for pair `(i, j)`, zero if unobserved.
    pub fn get(&self, i: u32, j: u32) -> f64 {
        let row = self.row(i as usize);
        row.binary_search_by_key(&j, |&(c, _)| c)
            .map_or(0.0, |at| row[at].1)
    }

    /// All `(i, j, count)` entries, sorted by `(i, j)`.
    pub fn entries(&self) -> Vec<(u32, u32, f64)> {
        let mut out = Vec::with_capacity(self.nnz());
        for (i, row) in self.rows.iter().enumerate() {
            out.extend(row.iter().map(|&(j, v)| (i as u32, j, v)));
        }
        out
    }

    /// Row marginals `r_i = sum_j count(i, j)`, each summed in `j` order.
    ///
    /// The order is fixed by the storage, not by how the table grew: float
    /// addition is order-sensitive, and a sum in hash-map iteration order
    /// would differ bitwise between processes — breaking the shard-fleet
    /// guarantee that a sharded run reproduces the unsharded run exactly.
    pub fn row_sums(&self) -> Vec<f64> {
        (0..self.n)
            .map(|i| {
                let mut sum = 0.0;
                for &(_, v) in self.row(i) {
                    sum += v;
                }
                sum
            })
            .collect()
    }

    /// Appends the table to `out` in the world-cache byte layout:
    /// `n: u64, total: f64 (raw bits), nnz: u64, sorted (i: u32, j: u32,
    /// count: f64) entries`. The running `total` is stored rather than
    /// recomputed on decode because it was accumulated in counting order —
    /// re-summing the sorted entries would round differently.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u64(out, self.n as u64);
        codec::put_f64(out, self.total);
        codec::put_u64(out, self.nnz() as u64);
        for (i, row) in self.rows.iter().enumerate() {
            for &(j, v) in row {
                codec::put_u32(out, i as u32);
                codec::put_u32(out, j);
                codec::put_f64(out, v);
            }
        }
    }

    /// Reads one [`Cooc::encode_into`]-encoded table from the front of
    /// `r`, advancing it. Returns `None` on truncated or inconsistent
    /// input — entries out of `(i, j)` order or repeated (the encoder
    /// writes each coordinate once, in order), and non-finite or negative
    /// counts, which no counting run can produce and which would silently
    /// poison PPMI (and everything trained from it) with NaNs; a decoded
    /// table answers [`Cooc::get`] / [`Cooc::entries`] /
    /// [`Cooc::row_sums`] bitwise identically to the one encoded.
    pub fn decode_from(r: &mut &[u8]) -> Option<Cooc> {
        let n = usize::try_from(codec::take_u64(r)?).ok()?;
        let total = codec::take_f64(r)?;
        if !total.is_finite() || total < 0.0 {
            return None;
        }
        let nnz = codec::take_len(r, 16)?;
        let mut rows: Vec<Vec<(u32, f64)>> = Vec::new();
        let mut last: Option<u64> = None;
        for _ in 0..nnz {
            let i = codec::take_u32(r)?;
            let j = codec::take_u32(r)?;
            if (i as usize) >= n || (j as usize) >= n || last >= Some(key(i, j)) {
                return None; // out of range, out of order or repeated
            }
            last = Some(key(i, j));
            let v = codec::take_f64(r)?;
            if !v.is_finite() || v < 0.0 {
                return None;
            }
            if rows.len() <= i as usize {
                rows.resize_with(i as usize + 1, Vec::new);
            }
            rows[i as usize].push((j, v));
        }
        Some(Cooc { n, rows, total })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_corpus() -> Corpus {
        Corpus::from_docs(vec![vec![0, 1, 2], vec![1, 1]])
    }

    fn count(corpus: &Corpus, vocab_size: usize, config: &CoocConfig) -> Cooc {
        Cooc::count(corpus, vocab_size, config).expect("valid corpus")
    }

    #[test]
    fn window_one_flat_counts() {
        let c = count(
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
        let c = count(
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
        let c = count(&Corpus::from_docs(docs), 4, &CoocConfig::default());
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
        let c = count(
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
    fn codec_round_trips_bitwise() {
        let docs = vec![vec![2, 0, 1, 2, 0, 3, 1], vec![3, 2, 1]];
        let c = count(
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
    fn decode_rejects_out_of_order_and_repeated_entries() {
        let c = count(&tiny_corpus(), 3, &CoocConfig::default());
        let mut bytes = Vec::new();
        c.encode_into(&mut bytes);
        assert!(c.nnz() >= 2);
        // Entries are 16 bytes each, after the 24-byte header.
        let entry = |k: usize| 24 + 16 * k..24 + 16 * (k + 1);
        let mut swapped = bytes.clone();
        let (first, second) = (bytes[entry(0)].to_vec(), bytes[entry(1)].to_vec());
        swapped[entry(0)].copy_from_slice(&second);
        swapped[entry(1)].copy_from_slice(&first);
        assert!(Cooc::decode_from(&mut swapped.as_slice()).is_none());
        let mut repeated = bytes.clone();
        repeated[entry(1)].copy_from_slice(&first);
        assert!(Cooc::decode_from(&mut repeated.as_slice()).is_none());
        // The untouched bytes still decode.
        assert!(Cooc::decode_from(&mut bytes.as_slice()).is_some());
    }

    #[test]
    fn decode_allocates_only_the_rows_it_stores() {
        // A header claiming a huge vocabulary with no entries decodes to
        // an empty table without allocating a row per claimed word.
        let mut bytes = Vec::new();
        codec::put_u64(&mut bytes, u64::from(u32::MAX));
        codec::put_f64(&mut bytes, 0.0);
        codec::put_u64(&mut bytes, 0);
        let c = Cooc::decode_from(&mut bytes.as_slice()).expect("decodes");
        assert_eq!((c.n(), c.nnz()), (u32::MAX as usize, 0));
        assert!(c.row(7).is_empty());
    }

    #[test]
    fn count_reports_typed_errors() {
        let zero = CoocConfig {
            window: 0,
            distance_weighting: false,
        };
        assert_eq!(
            Cooc::count(&tiny_corpus(), 3, &zero).expect_err("zero window"),
            CoocError::ZeroWindow
        );
        let oov = Cooc::count(
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
    }

    #[test]
    fn accumulate_error_leaves_table_untouched() {
        let config = CoocConfig::default();
        let mut c = count(&tiny_corpus(), 3, &config);
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
        let one_shot = count(&Corpus::from_docs(docs.clone()), 4, &config);
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
        let a = count(&corpus, 3, &CoocConfig::default()).entries();
        let b = count(&corpus, 3, &CoocConfig::default()).entries();
        assert_eq!(a, b);
        for w in a.windows(2) {
            assert!(w[0].0 < w[1].0 || (w[0].0 == w[1].0 && w[0].1 < w[1].1));
        }
    }
}
