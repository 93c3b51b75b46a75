//! Property test for the streaming subsystem's bitwise contract: however
//! a corpus is split into increments, streaming the pieces through
//! [`Cooc::accumulate`] (what `ContinuousRetrainer::ingest` runs)
//! reproduces the one-shot [`Cooc::count`] over the whole corpus bit for
//! bit — map values, `total`, `entries()`, `row_sums()`.
//!
//! This is the invariant everything downstream (incremental PPMI, the
//! content fingerprint, checkpoint resume) stands on, so it is checked
//! over arbitrary corpora and arbitrary k-splits, not just the curated
//! cases in the unit tests.

use embedstab_corpus::{Cooc, CoocConfig, Corpus};
use proptest::prelude::*;

const VOCAB: usize = 12;

/// An arbitrary small corpus (documents of in-vocabulary tokens, empty
/// documents allowed), a window from 1..=4, and a k-split of the corpus
/// expressed as cut fractions.
type Scenario = (Vec<Vec<u32>>, usize, Vec<f64>);

fn scenario() -> impl Strategy<Value = Scenario> {
    (
        collection::vec(collection::vec(0u32..VOCAB as u32, 0..12), 1..16),
        1usize..5,
        collection::vec(0.0f64..1.0, 0..4),
    )
}

/// Splits `docs` at the given fractional cut points into k contiguous
/// batches (k = cuts.len() + 1), preserving order; batches may be empty.
fn split(docs: &[Vec<u32>], cuts: &[f64]) -> Vec<Vec<Vec<u32>>> {
    let mut idx: Vec<usize> = cuts
        .iter()
        .map(|f| ((docs.len() as f64) * f) as usize)
        .collect();
    idx.sort_unstable();
    let mut batches = Vec::with_capacity(idx.len() + 1);
    let mut start = 0;
    for cut in idx {
        batches.push(docs[start..cut].to_vec());
        start = cut;
    }
    batches.push(docs[start..].to_vec());
    batches
}

fn bits(c: &Cooc) -> (u64, Vec<(u32, u32, u64)>, Vec<u64>) {
    (
        c.total().to_bits(),
        c.entries()
            .into_iter()
            .map(|(i, j, v)| (i, j, v.to_bits()))
            .collect(),
        c.row_sums().iter().map(|v| v.to_bits()).collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn any_k_split_streams_to_the_one_shot_bits(
        (docs, window, cuts) in scenario(),
        dw in 0usize..2,
    ) {
        let config = CoocConfig { window, distance_weighting: dw == 1 };
        let one_shot =
            Cooc::count(&Corpus::from_docs(docs.clone()), VOCAB, &config).expect("tokens in vocab");

        let mut streamed = Cooc::empty(VOCAB);
        for batch in split(&docs, &cuts) {
            streamed.accumulate(&batch, &config).expect("tokens in vocab");
        }

        prop_assert_eq!(bits(&streamed), bits(&one_shot));
    }

    #[test]
    fn dirty_rows_cover_exactly_the_changed_rows(
        (docs, window, _) in scenario(),
    ) {
        // One batch against an empty table: the reported dirty rows must
        // be exactly the rows with nonzero counts, sorted and deduplicated.
        let config = CoocConfig { window, distance_weighting: false };
        let mut table = Cooc::empty(VOCAB);
        let dirty_rows = table.accumulate(&docs, &config).expect("tokens in vocab");

        let mut expected: Vec<u32> = (0..VOCAB as u32)
            .filter(|&i| table.entries().iter().any(|&(r, _, _)| r == i))
            .collect();
        expected.sort_unstable();
        prop_assert_eq!(dirty_rows, expected);
    }
}
