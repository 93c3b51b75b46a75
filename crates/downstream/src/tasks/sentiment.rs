//! Synthetic binary sentiment datasets standing in for SST-2, MR, Subj, and
//! MPQA (paper Section 3, Appendix C.3.1).
//!
//! Each dataset owns a sentiment direction `beta` in the latent space.
//! A sentence is sampled by drawing a document vector biased along
//! `±beta` (its label) and then sampling words from the latent model's
//! unigram-modulated softmax around that vector. Words therefore carry
//! label information exactly to the extent that embeddings recover the
//! latent space — mirroring how real sentiment words carry polarity.
//! The four presets differ in size, sentence length, signal strength, and
//! label noise, giving the spread of task difficulty the paper's four
//! datasets exhibit.

use embedstab_corpus::{codec, DocPlan, LatentModel};
use embedstab_linalg::{vecops, Mat};
use rand::{RngExt, SeedableRng};

/// One labelled sentence.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SentimentExample {
    /// Word ids.
    pub tokens: Vec<u32>,
    /// Binary sentiment label.
    pub label: bool,
}

/// A generated dataset with fixed train/validation/test splits.
#[derive(Clone, Debug)]
pub struct SentimentDataset {
    /// Dataset name (e.g. `"sst2"`).
    pub name: String,
    /// Training split.
    pub train: Vec<SentimentExample>,
    /// Validation split (hyperparameter tuning).
    pub valid: Vec<SentimentExample>,
    /// Test split (instability is measured here).
    pub test: Vec<SentimentExample>,
}

impl SentimentDataset {
    /// Appends the dataset to `out` in the world-cache byte layout: the
    /// name (length-prefixed UTF-8), then the train/valid/test splits,
    /// each a `u64`-counted list of `(tokens: length-prefixed u32 list,
    /// label: u8)` examples.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        codec::put_u32(out, self.name.len() as u32);
        out.extend_from_slice(self.name.as_bytes());
        for split in [&self.train, &self.valid, &self.test] {
            codec::put_u64(out, split.len() as u64);
            for ex in split {
                codec::put_u32_slice(out, &ex.tokens);
                out.push(ex.label as u8);
            }
        }
    }

    /// Reads one [`SentimentDataset::encode_into`]-encoded dataset from
    /// the front of `r`, advancing it. Returns `None` on truncated or
    /// inconsistent input.
    pub fn decode_from(r: &mut &[u8]) -> Option<SentimentDataset> {
        let name_len = codec::take_u32(r)? as usize;
        if r.len() < name_len {
            return None;
        }
        let name = std::str::from_utf8(&r[..name_len]).ok()?.to_string();
        *r = &r[name_len..];
        let mut splits = Vec::with_capacity(3);
        for _ in 0..3 {
            // Each example costs at least its 8-byte token-count prefix
            // plus the label byte.
            let n = codec::take_len(r, 9)?;
            let mut split = Vec::with_capacity(n);
            for _ in 0..n {
                let tokens = codec::take_u32_slice(r)?;
                let (&label, rest) = r.split_first()?;
                *r = rest;
                if label > 1 {
                    return None;
                }
                split.push(SentimentExample {
                    tokens,
                    label: label == 1,
                });
            }
            splits.push(split);
        }
        let test = splits.pop().expect("three splits");
        let valid = splits.pop().expect("three splits");
        let train = splits.pop().expect("three splits");
        Some(SentimentDataset {
            name,
            train,
            valid,
            test,
        })
    }
}

/// Generator parameters for one sentiment dataset.
#[derive(Clone, Debug)]
pub struct SentimentSpec {
    /// Dataset name.
    pub name: String,
    /// Split sizes.
    pub n_train: usize,
    /// Validation size.
    pub n_valid: usize,
    /// Test size.
    pub n_test: usize,
    /// Sentence length range (inclusive).
    pub len_range: (usize, usize),
    /// How strongly the document vector is biased along the sentiment
    /// direction; higher = easier task.
    pub strength: f64,
    /// Standard deviation of the document-vector noise.
    pub doc_noise: f64,
    /// Probability of flipping a label after generation.
    pub label_noise: f64,
    /// Word softmax temperature.
    pub temperature: f64,
    /// Generator seed (also seeds the dataset's `beta`).
    pub seed: u64,
}

impl SentimentSpec {
    /// SST-2 analogue: the headline dataset of the paper's figures.
    pub fn sst2() -> Self {
        SentimentSpec {
            name: "sst2".into(),
            n_train: 1600,
            n_valid: 300,
            n_test: 700,
            len_range: (8, 20),
            strength: 1.0,
            doc_noise: 0.8,
            label_noise: 0.06,
            temperature: 1.0,
            seed: 101,
        }
    }

    /// MR analogue: the paper's least stable sentiment task.
    pub fn mr() -> Self {
        SentimentSpec {
            name: "mr".into(),
            n_train: 1200,
            n_valid: 250,
            n_test: 600,
            len_range: (10, 24),
            strength: 0.6,
            doc_noise: 1.0,
            label_noise: 0.12,
            temperature: 1.1,
            seed: 102,
        }
    }

    /// Subj analogue: the paper's most stable sentiment task.
    pub fn subj() -> Self {
        SentimentSpec {
            name: "subj".into(),
            n_train: 2000,
            n_valid: 300,
            n_test: 700,
            len_range: (8, 18),
            strength: 1.5,
            doc_noise: 0.6,
            label_noise: 0.02,
            temperature: 0.9,
            seed: 103,
        }
    }

    /// MPQA analogue: short phrases.
    pub fn mpqa() -> Self {
        SentimentSpec {
            name: "mpqa".into(),
            n_train: 1400,
            n_valid: 250,
            n_test: 600,
            len_range: (2, 7),
            strength: 1.1,
            doc_noise: 0.8,
            label_noise: 0.08,
            temperature: 1.0,
            seed: 104,
        }
    }

    /// The paper's four sentiment datasets.
    pub fn all_four() -> Vec<SentimentSpec> {
        vec![Self::sst2(), Self::mr(), Self::subj(), Self::mpqa()]
    }

    /// Generates the dataset from a latent model (deterministic given the
    /// spec).
    ///
    /// Generation is split in two (see [`LatentModel::sample_documents`]).
    /// A serial plan walks the seeded stream and draws each sentence's
    /// vector, length and label noise; the words, which hold almost all
    /// the cost, are then sampled on the worker pool. Every word takes
    /// exactly one draw, so the plan skips a sentence's words to reach its
    /// label-noise draw, and the dataset is bitwise that of drawing the
    /// sentences in turn, at any pool width.
    ///
    /// # Panics
    ///
    /// Panics if the length range is empty or inverted.
    pub fn generate(&self, model: &LatentModel) -> SentimentDataset {
        assert!(
            self.len_range.0 >= 1 && self.len_range.0 <= self.len_range.1,
            "invalid sentence length range"
        );
        let mut rng = rand::rngs::StdRng::seed_from_u64(self.seed);
        let d = model.word_vecs.cols();
        // The dataset's sentiment direction in latent space. A word's
        // projection onto a fixed direction shrinks as 1/sqrt(D), so the
        // signal strength is rescaled to keep task difficulty comparable
        // across latent dimensions (presets were calibrated at D = 16).
        let mut beta = Mat::random_normal(1, d, &mut rng).into_vec();
        vecops::normalize(&mut beta);
        let strength = self.strength * (d as f64 / 16.0).sqrt();

        let total = self.n_train + self.n_valid + self.n_test;
        let mut labels = Vec::with_capacity(total);
        let sentences = model.sample_documents(self.temperature, &mut rng, |rng| {
            if labels.len() == total {
                return None;
            }
            let label = labels.len() % 2 == 0; // balanced labels
            let sign = if label { 1.0 } else { -1.0 };
            let noise = Mat::random_normal(1, d, rng);
            let h: Vec<f64> = (0..d)
                .map(|j| sign * strength * beta[j] + self.doc_noise * noise[(0, j)])
                .collect();
            let len = rng.random_range(self.len_range.0..=self.len_range.1);
            let plan = DocPlan::reserve(h, len, rng);
            labels.push(if rng.random::<f64>() < self.label_noise {
                !label
            } else {
                label
            });
            Some(plan)
        });
        let mut examples: Vec<SentimentExample> = sentences
            .into_iter()
            .zip(labels)
            .map(|(tokens, label)| SentimentExample { tokens, label })
            .collect();
        crate::nn::shuffle(&mut examples, &mut rng);
        let mut valid = examples.split_off(self.n_train);
        let test = valid.split_off(self.n_valid);
        SentimentDataset {
            name: self.name.clone(),
            train: examples,
            valid,
            test,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use embedstab_corpus::LatentModelConfig;

    fn model() -> LatentModel {
        LatentModel::new(&LatentModelConfig {
            vocab_size: 300,
            n_topics: 8,
            ..Default::default()
        })
    }

    #[test]
    fn splits_have_requested_sizes() {
        let m = model();
        let spec = SentimentSpec {
            n_train: 100,
            n_valid: 20,
            n_test: 30,
            ..SentimentSpec::sst2()
        };
        let ds = spec.generate(&m);
        assert_eq!(ds.train.len(), 100);
        assert_eq!(ds.valid.len(), 20);
        assert_eq!(ds.test.len(), 30);
    }

    #[test]
    fn labels_roughly_balanced() {
        let m = model();
        let ds = SentimentSpec::sst2().generate(&m);
        let pos = ds.train.iter().filter(|e| e.label).count();
        let frac = pos as f64 / ds.train.len() as f64;
        assert!((frac - 0.5).abs() < 0.1, "positive fraction {frac}");
    }

    #[test]
    fn deterministic_given_spec() {
        let m = model();
        let a = SentimentSpec::mr().generate(&m);
        let b = SentimentSpec::mr().generate(&m);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn codec_round_trips_every_split() {
        let m = model();
        let ds = SentimentSpec {
            n_train: 40,
            n_valid: 10,
            n_test: 15,
            ..SentimentSpec::mpqa()
        }
        .generate(&m);
        let mut bytes = Vec::new();
        ds.encode_into(&mut bytes);
        let r = &mut bytes.as_slice();
        let back = SentimentDataset::decode_from(r).expect("decodes");
        assert!(r.is_empty());
        assert_eq!(back.name, ds.name);
        assert_eq!(back.train, ds.train);
        assert_eq!(back.valid, ds.valid);
        assert_eq!(back.test, ds.test);
        for cut in 0..bytes.len() {
            assert!(SentimentDataset::decode_from(&mut &bytes[..cut]).is_none());
        }
    }

    #[test]
    fn labels_are_learnable_from_latent_vectors() {
        // A linear probe on ground-truth latent averages must beat chance
        // comfortably; otherwise embeddings could never learn the task.
        let m = model();
        let ds = SentimentSpec::sst2().generate(&m);
        // Score = <avg latent vector of sentence, mean difference direction>.
        let d = m.word_vecs.cols();
        let avg = |e: &SentimentExample| -> Vec<f64> {
            let mut v = vec![0.0; d];
            for &t in &e.tokens {
                vecops::axpy(
                    1.0 / e.tokens.len() as f64,
                    m.word_vecs.row(t as usize),
                    &mut v,
                );
            }
            v
        };
        let mut mean_pos = vec![0.0; d];
        let mut mean_neg = vec![0.0; d];
        let (mut np, mut nn) = (0.0, 0.0);
        for e in &ds.train {
            let v = avg(e);
            if e.label {
                vecops::axpy(1.0, &v, &mut mean_pos);
                np += 1.0;
            } else {
                vecops::axpy(1.0, &v, &mut mean_neg);
                nn += 1.0;
            }
        }
        let w: Vec<f64> = (0..d)
            .map(|j| mean_pos[j] / np - mean_neg[j] / nn)
            .collect();
        let mut correct = 0;
        for e in &ds.test {
            let pred = vecops::dot(&avg(e), &w) > 0.0;
            if pred == e.label {
                correct += 1;
            }
        }
        let acc = correct as f64 / ds.test.len() as f64;
        assert!(
            acc > 0.65,
            "latent probe accuracy {acc} too low for learnable task"
        );
    }

    #[test]
    fn presets_have_distinct_names() {
        let names: Vec<String> = SentimentSpec::all_four()
            .into_iter()
            .map(|s| s.name)
            .collect();
        assert_eq!(names, vec!["sst2", "mr", "subj", "mpqa"]);
    }
}
