//! BiLSTM sequence tagger (Akbik et al., 2018 architecture, minus the
//! character-level features), used for the paper's NER task, plus the
//! BiLSTM-CRF variant of Appendix E.2.
//!
//! The LSTM forward and backward passes (backpropagation through time) are
//! written from scratch and verified against finite differences in the
//! test suite.
//!
//! Both taggers, in training and in prediction, run one pass over a
//! per-fit `Scratch`: flat `T x d` inputs, and per direction the flat
//! `T x 4h` gates and `T x h` cell and hidden states, reused from
//! sentence to sentence, with one gradient block per parameter block.
//!
//! **Same bits as the step-by-step loop.** Speed comes only from running
//! independent chains of floating-point operations side by side; every
//! chain runs in the order of a textbook loop that computes one timestep
//! and one gate row at a time, so the results are that loop's bits:
//! - a gate's pre-activation is `dot(w_r, [x_t; h_{t-1}]) + b_r`: one
//!   chain from `0.0`, left to right. Its input part runs for every step
//!   before the recurrence (one chain per token, the tokens side by side),
//!   and the recurrence continues it over `h_{t-1}` (every gate row side
//!   by side), both through [`vecops::dot_cols`];
//! - an emission is `dot(w_out_k, [hf_t; hb_t]) + b_out_k`, continued
//!   over the two halves by [`vecops::dot_rows`];
//! - each weight-gradient entry sums its terms from the last step to the
//!   first, one row at a time after the recurrence, skipping the steps
//!   whose gate gradient is exactly zero (and the output layer skips zero
//!   emission gradients). At `t == 0` the recurrent columns still add
//!   `da * 0.0`, which is NaN when `da` is infinite;
//! - word dropout draws only when its probability is positive, in token
//!   order; no sum is fused into a `mul_add`; Adam and the per-block
//!   gradient clipping are unchanged.
//!
//! `tests/golden_rows.rs` pins the resulting bits.

use embedstab_embeddings::Embedding;
use embedstab_linalg::{vecops, Mat};
use rand::{Rng, RngExt, SeedableRng};

use crate::models::crf::Crf;
use crate::nn::{clip_global_norm, shuffle, Adam};
use crate::tasks::ner::{TaggedSentence, N_TAGS};

/// Hyperparameters for the BiLSTM taggers.
#[derive(Clone, Debug)]
pub struct LstmConfig {
    /// Hidden units per direction.
    pub hidden: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Training epochs.
    pub epochs: usize,
    /// Probability of zeroing a whole word vector during training
    /// (flair-style word dropout; paper Table 6b uses 0.05).
    pub word_dropout: f64,
    /// Maximum global gradient norm per parameter block.
    pub clip: f64,
    /// Seed for weight initialization.
    pub init_seed: u64,
    /// Seed for sentence order and dropout.
    pub sample_seed: u64,
}

impl Default for LstmConfig {
    fn default() -> Self {
        LstmConfig {
            hidden: 16,
            lr: 0.01,
            epochs: 5,
            word_dropout: 0.05,
            clip: 5.0,
            init_seed: 0,
            sample_seed: 0,
        }
    }
}

/// One LSTM direction: gates stacked as `[i; f; g; o]` in a
/// `4h x (d + h)` weight matrix plus a `4h` bias.
#[derive(Clone, Debug)]
struct LstmDir {
    w: Mat,
    b: Vec<f64>,
    h: usize,
    d: usize,
}

/// One direction's activations for the current sentence, in processing
/// order, plus its gradient buffers.
#[derive(Default)]
struct DirState {
    /// `T x 4h`: gate pre-activations, then `[i, f, g, o]` activations.
    gates: Vec<f64>,
    /// `(T + 1) x h`: row `t + 1` is `c_t`; row 0 is the zero `c_{-1}`.
    cs: Vec<f64>,
    /// `T x h`: `tanh(c_t)`.
    tanh_cs: Vec<f64>,
    /// `(T + 1) x h`: row `t + 1` is `h_t`; row 0 is the zero `h_{-1}`.
    hs: Vec<f64>,
    /// `T x h`: the loss gradient flowing into `h_t` from the output layer.
    dh: Vec<f64>,
    /// `T x 4h`: the gradient of the gate pre-activations.
    da: Vec<f64>,
    /// `h x 4h`: the recurrent weight columns, transposed.
    w_rec: Vec<f64>,
    /// One gate row's input chains, one per (padded) token.
    lanes: Vec<f64>,
    dh_rec: Vec<f64>,
    dc_rec: Vec<f64>,
}

/// Clears `buf` to `len` zeros, keeping its allocation.
fn zeroed(buf: &mut Vec<f64>, len: usize) {
    buf.clear();
    buf.resize(len, 0.0);
}

/// Input row `t` in processing order: token order, or reversed.
fn step_input(xs: &[f64], d: usize, t: usize, reverse: bool) -> &[f64] {
    let t_len = xs.len() / d;
    let i = if reverse { t_len - 1 - t } else { t };
    &xs[i * d..(i + 1) * d]
}

impl LstmDir {
    fn new(d: usize, h: usize, rng: &mut impl Rng) -> Self {
        let scale = 1.0 / (h as f64).sqrt();
        let w = Mat::random_uniform(4 * h, d + h, -scale, scale, rng);
        let mut b = vec![0.0; 4 * h];
        // Standard forget-gate bias initialization.
        for fb in b[h..2 * h].iter_mut() {
            *fb = 1.0;
        }
        LstmDir { w, b, h, d }
    }

    /// Runs the direction over a sentence, filling `st`. `xt` holds the
    /// `T` inputs as the columns of a `d x tp` matrix (token order,
    /// zero-padded to `tp` columns); `reverse` processes them last first.
    fn forward(&self, xt: &[f64], t_len: usize, reverse: bool, st: &mut DirState) {
        let (h, d) = (self.h, self.d);
        let g4 = 4 * h;
        let tp = xt.len() / d;
        zeroed(&mut st.gates, t_len * g4);
        zeroed(&mut st.cs, (t_len + 1) * h);
        zeroed(&mut st.tanh_cs, t_len * h);
        zeroed(&mut st.hs, (t_len + 1) * h);
        // The input part of every gate's chain, for every step: per gate
        // row, one chain per token.
        for r in 0..g4 {
            zeroed(&mut st.lanes, tp);
            vecops::dot_cols(&mut st.lanes, &self.w.row(r)[..d], xt);
            for (t, &a) in st.lanes[..t_len].iter().enumerate() {
                let step = if reverse { t_len - 1 - t } else { t };
                st.gates[step * g4 + r] = a;
            }
        }
        // The recurrent columns, transposed: row j holds every gate's
        // weight on h_{t-1}[j].
        st.w_rec.resize(h * g4, 0.0);
        for r in 0..g4 {
            for (j, &w) in self.w.row(r)[d..].iter().enumerate() {
                st.w_rec[j * g4 + r] = w;
            }
        }
        for t in 0..t_len {
            let gates = &mut st.gates[t * g4..(t + 1) * g4];
            vecops::dot_cols(gates, &st.hs[t * h..(t + 1) * h], &st.w_rec);
            for (a, &b) in gates.iter_mut().zip(&self.b) {
                *a += b;
            }
            let (c_prev, c) = st.cs[t * h..(t + 2) * h].split_at_mut(h);
            let tanh_c = &mut st.tanh_cs[t * h..(t + 1) * h];
            let h_new = &mut st.hs[(t + 1) * h..(t + 2) * h];
            for j in 0..h {
                let i = vecops::sigmoid(gates[j]);
                let f = vecops::sigmoid(gates[h + j]);
                let g = gates[2 * h + j].tanh();
                let o = vecops::sigmoid(gates[3 * h + j]);
                gates[j] = i;
                gates[h + j] = f;
                gates[2 * h + j] = g;
                gates[3 * h + j] = o;
                c[j] = f * c_prev[j] + i * g;
                tanh_c[j] = c[j].tanh();
                h_new[j] = o * tanh_c[j];
            }
        }
    }

    /// Backpropagation through time from `st.dh` (the output layer's
    /// gradient into each `h_t`). Adds the weight and bias gradients to
    /// `gw` and `gb`, which the caller zeroes.
    fn backward(&self, xs: &[f64], reverse: bool, st: &mut DirState, gw: &mut Mat, gb: &mut [f64]) {
        let (h, d) = (self.h, self.d);
        let g4 = 4 * h;
        let t_len = xs.len() / d;
        zeroed(&mut st.da, t_len * g4);
        zeroed(&mut st.dh_rec, h);
        zeroed(&mut st.dc_rec, h);
        for t in (0..t_len).rev() {
            let gates = &st.gates[t * g4..(t + 1) * g4];
            let tanh_c = &st.tanh_cs[t * h..(t + 1) * h];
            let c_prev = &st.cs[t * h..(t + 1) * h];
            let dh = &st.dh[t * h..(t + 1) * h];
            let da = &mut st.da[t * g4..(t + 1) * g4];
            for j in 0..h {
                let dh_tot = dh[j] + st.dh_rec[j];
                let o = gates[3 * h + j];
                let dc_tot = st.dc_rec[j] + dh_tot * o * (1.0 - tanh_c[j] * tanh_c[j]);
                let i = gates[j];
                let f = gates[h + j];
                let g = gates[2 * h + j];
                da[j] = dc_tot * g * i * (1.0 - i);
                da[h + j] = dc_tot * c_prev[j] * f * (1.0 - f);
                da[2 * h + j] = dc_tot * i * (1.0 - g * g);
                da[3 * h + j] = dh_tot * tanh_c[j] * o * (1.0 - o);
                st.dc_rec[j] = dc_tot * f;
            }
            // Recurrent gradient into h_{t-1}.
            st.dh_rec.iter_mut().for_each(|x| *x = 0.0);
            for (r, &da_r) in da.iter().enumerate() {
                if da_r != 0.0 {
                    vecops::axpy(da_r, &self.w.row(r)[d..], &mut st.dh_rec);
                }
            }
        }
        // Weight gradients, one row at a time, each over t descending.
        for (r, gb_r) in gb.iter_mut().enumerate() {
            let (gx, gh) = gw.row_mut(r).split_at_mut(d);
            for t in (0..t_len).rev() {
                let da_r = st.da[t * g4 + r];
                if da_r != 0.0 {
                    vecops::axpy(da_r, step_input(xs, d, t, reverse), gx);
                    vecops::axpy(da_r, &st.hs[t * h..(t + 1) * h], gh);
                    *gb_r += da_r;
                }
            }
        }
    }
}

/// Everything one sentence's pass needs, kept across the sentences of a
/// fit (or a prediction run) so no step allocates.
struct Scratch {
    /// `T x d`: the sentence's word vectors in token order.
    xs: Vec<f64>,
    /// `d x tp`: `xs` transposed, zero-padded to a multiple of 8 tokens.
    xt: Vec<f64>,
    fwd: DirState,
    bwd: DirState,
    /// `T x n_tags` emission scores.
    emis: Mat,
}

impl Scratch {
    fn new() -> Self {
        Scratch {
            xs: Vec::new(),
            xt: Vec::new(),
            fwd: DirState::default(),
            bwd: DirState::default(),
            emis: Mat::zeros(0, 0),
        }
    }

    /// Loads the word vectors of `tokens`. With an `rng`, each word is
    /// zeroed with probability `dropout`, drawing only when `dropout > 0`.
    fn embed(
        &mut self,
        emb: &Embedding,
        tokens: &[u32],
        dropout: f64,
        mut rng: Option<&mut rand::rngs::StdRng>,
    ) {
        self.xs.clear();
        for &t in tokens {
            if let Some(r) = rng.as_deref_mut() {
                if dropout > 0.0 && r.random::<f64>() < dropout {
                    self.xs.resize(self.xs.len() + emb.dim(), 0.0);
                    continue;
                }
            }
            self.xs.extend_from_slice(emb.vector(t));
        }
    }
}

/// `m` as a `rows x cols` matrix of zeros, keeping its allocation.
fn zeroed_mat(m: &mut Mat, rows: usize, cols: usize) {
    let mut data = std::mem::replace(m, Mat::zeros(0, 0)).into_vec();
    zeroed(&mut data, rows * cols);
    *m = Mat::from_vec(rows, cols, data);
}

/// Shared BiLSTM encoder + linear emission layer.
#[derive(Clone, Debug)]
struct BiLstmCore {
    fwd: LstmDir,
    bwd: LstmDir,
    w_out: Mat, // n_tags x 2h
    b_out: Vec<f64>,
}

/// One gradient block per parameter block, reused across sentences.
struct CoreGrads {
    wf: Mat,
    bf: Vec<f64>,
    wb: Mat,
    bb: Vec<f64>,
    wout: Mat,
    bout: Vec<f64>,
}

impl CoreGrads {
    fn new(core: &BiLstmCore) -> Self {
        let zeros_like = |m: &Mat| Mat::zeros(m.rows(), m.cols());
        CoreGrads {
            wf: zeros_like(&core.fwd.w),
            bf: vec![0.0; core.fwd.b.len()],
            wb: zeros_like(&core.bwd.w),
            bb: vec![0.0; core.bwd.b.len()],
            wout: zeros_like(&core.w_out),
            bout: vec![0.0; core.b_out.len()],
        }
    }

    fn zero(&mut self) {
        for block in [
            self.wf.as_mut_slice(),
            &mut self.bf,
            self.wb.as_mut_slice(),
            &mut self.bb,
            self.wout.as_mut_slice(),
            &mut self.bout,
        ] {
            block.iter_mut().for_each(|g| *g = 0.0);
        }
    }
}

impl BiLstmCore {
    fn new(d: usize, h: usize, n_tags: usize, rng: &mut impl Rng) -> Self {
        BiLstmCore {
            fwd: LstmDir::new(d, h, rng),
            bwd: LstmDir::new(d, h, rng),
            w_out: Mat::random_uniform(n_tags, 2 * h, -0.1, 0.1, rng),
            b_out: vec![0.0; n_tags],
        }
    }

    /// Runs both directions over `s.xs` and fills `s.emis` with the
    /// emission scores: `dot(w_out_k, [hf_t; hb_t]) + b_out_k`.
    fn emissions(&self, s: &mut Scratch) {
        let (h, d) = (self.fwd.h, self.fwd.d);
        let t_len = s.xs.len() / d;
        let tp = t_len.next_multiple_of(8);
        zeroed(&mut s.xt, d * tp);
        for (t, x) in s.xs.chunks_exact(d).enumerate() {
            for (j, &v) in x.iter().enumerate() {
                s.xt[j * tp + t] = v;
            }
        }
        self.fwd.forward(&s.xt, t_len, false, &mut s.fwd);
        self.bwd.forward(&s.xt, t_len, true, &mut s.bwd);
        let n_tags = self.w_out.rows();
        zeroed_mat(&mut s.emis, t_len, n_tags);
        for t in 0..t_len {
            let row = s.emis.row_mut(t);
            let hf = &s.fwd.hs[(t + 1) * h..(t + 2) * h];
            let hb = &s.bwd.hs[(t_len - t) * h..(t_len - t + 1) * h];
            vecops::dot_rows(row, hf, |k| &self.w_out.row(k)[..h]);
            vecops::dot_rows(row, hb, |k| &self.w_out.row(k)[h..]);
            for (e, &b) in row.iter_mut().zip(&self.b_out) {
                *e += b;
            }
        }
    }

    /// Backward pass from the emission gradients `d_emis` to every
    /// parameter gradient, written into `g`.
    fn backward(&self, s: &mut Scratch, d_emis: &Mat, g: &mut CoreGrads) {
        let h = self.fwd.h;
        let t_len = s.xs.len() / self.fwd.d;
        let n_tags = self.w_out.rows();
        g.zero();
        zeroed(&mut s.fwd.dh, t_len * h);
        zeroed(&mut s.bwd.dh, t_len * h);
        for t in 0..t_len {
            let tb = t_len - 1 - t;
            let hf = &s.fwd.hs[(t + 1) * h..(t + 2) * h];
            let hb = &s.bwd.hs[(tb + 1) * h..(tb + 2) * h];
            for k in 0..n_tags {
                let dl = d_emis[(t, k)];
                if dl == 0.0 {
                    continue;
                }
                let (gf, gbk) = g.wout.row_mut(k).split_at_mut(h);
                vecops::axpy(dl, hf, gf);
                vecops::axpy(dl, hb, gbk);
                g.bout[k] += dl;
                let wrow = self.w_out.row(k);
                vecops::axpy(dl, &wrow[..h], &mut s.fwd.dh[t * h..(t + 1) * h]);
                vecops::axpy(dl, &wrow[h..], &mut s.bwd.dh[tb * h..(tb + 1) * h]);
            }
        }
        self.fwd
            .backward(&s.xs, false, &mut s.fwd, &mut g.wf, &mut g.bf);
        self.bwd
            .backward(&s.xs, true, &mut s.bwd, &mut g.wb, &mut g.bb);
    }
}

/// Optimizer bundle for the core (one Adam per parameter block).
struct CoreOpt {
    wf: Adam,
    bf: Adam,
    wb: Adam,
    bb: Adam,
    wout: Adam,
    bout: Adam,
}

impl CoreOpt {
    fn new(core: &BiLstmCore, lr: f64) -> Self {
        CoreOpt {
            wf: Adam::new(core.fwd.w.as_slice().len(), lr),
            bf: Adam::new(core.fwd.b.len(), lr),
            wb: Adam::new(core.bwd.w.as_slice().len(), lr),
            bb: Adam::new(core.bwd.b.len(), lr),
            wout: Adam::new(core.w_out.as_slice().len(), lr),
            bout: Adam::new(core.b_out.len(), lr),
        }
    }

    fn step(&mut self, core: &mut BiLstmCore, grads: &mut CoreGrads, clip: f64) {
        clip_global_norm(grads.wf.as_mut_slice(), clip);
        clip_global_norm(&mut grads.bf, clip);
        clip_global_norm(grads.wb.as_mut_slice(), clip);
        clip_global_norm(&mut grads.bb, clip);
        clip_global_norm(grads.wout.as_mut_slice(), clip);
        clip_global_norm(&mut grads.bout, clip);
        self.wf.step(core.fwd.w.as_mut_slice(), grads.wf.as_slice());
        self.bf.step(&mut core.fwd.b, &grads.bf);
        self.wb.step(core.bwd.w.as_mut_slice(), grads.wb.as_slice());
        self.bb.step(&mut core.bwd.b, &grads.bb);
        self.wout
            .step(core.w_out.as_mut_slice(), grads.wout.as_slice());
        self.bout.step(&mut core.b_out, &grads.bout);
    }
}

/// Softmax cross-entropy over `emis`; writes the emission gradient into
/// `d` and returns the loss.
fn softmax_ce(emis: &Mat, tags: &[u8], d: &mut Mat) -> f64 {
    let t_len = emis.rows();
    let k = emis.cols();
    zeroed_mat(d, t_len, k);
    let mut loss = 0.0;
    let inv = 1.0 / t_len as f64;
    for t in 0..t_len {
        let probs = d.row_mut(t);
        probs.copy_from_slice(emis.row(t));
        vecops::softmax_inplace(probs);
        let gold = tags[t] as usize;
        loss -= probs[gold].max(1e-12).ln() * inv;
        for (j, p) in probs.iter_mut().enumerate() {
            *p = (*p - if j == gold { 1.0 } else { 0.0 }) * inv;
        }
    }
    loss
}

/// The BiLSTM tagger used for the paper's NER experiments (no CRF layer,
/// as in the main study).
#[derive(Clone, Debug)]
pub struct BiLstmTagger {
    core: BiLstmCore,
}

impl BiLstmTagger {
    /// Trains the tagger on fixed embeddings.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or `config.hidden` is zero.
    pub fn train(emb: &Embedding, train: &[TaggedSentence], config: &LstmConfig) -> Self {
        Self::train_with_report(emb, train, config).0
    }

    /// Trains and returns per-epoch mean losses.
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or `config.hidden` is zero.
    pub fn train_with_report(
        emb: &Embedding,
        train: &[TaggedSentence],
        config: &LstmConfig,
    ) -> (Self, Vec<f64>) {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        assert!(config.hidden > 0, "hidden size must be positive");
        let mut init_rng = rand::rngs::StdRng::seed_from_u64(config.init_seed);
        let mut core = BiLstmCore::new(emb.dim(), config.hidden, N_TAGS, &mut init_rng);
        let mut opt = CoreOpt::new(&core, config.lr);
        let mut grads = CoreGrads::new(&core);
        let mut scratch = Scratch::new();
        let mut d_emis = Mat::zeros(0, 0);
        let mut sample_rng = rand::rngs::StdRng::seed_from_u64(config.sample_seed);
        let mut order: Vec<usize> = (0..train.len()).collect();
        let mut losses = Vec::with_capacity(config.epochs);
        for _ in 0..config.epochs {
            shuffle(&mut order, &mut sample_rng);
            let mut epoch_loss = 0.0;
            for &i in &order {
                let s = &train[i];
                if s.tokens.is_empty() {
                    continue;
                }
                scratch.embed(emb, &s.tokens, config.word_dropout, Some(&mut sample_rng));
                core.emissions(&mut scratch);
                epoch_loss += softmax_ce(&scratch.emis, &s.tags, &mut d_emis);
                core.backward(&mut scratch, &d_emis, &mut grads);
                opt.step(&mut core, &mut grads, config.clip);
            }
            losses.push(epoch_loss / train.len() as f64);
        }
        (BiLstmTagger { core }, losses)
    }

    /// Predicted tags for one sentence.
    pub fn predict(&self, emb: &Embedding, tokens: &[u32]) -> Vec<u8> {
        self.predict_with(emb, tokens, &mut Scratch::new())
    }

    fn predict_with(&self, emb: &Embedding, tokens: &[u32], scratch: &mut Scratch) -> Vec<u8> {
        if tokens.is_empty() {
            return Vec::new();
        }
        scratch.embed(emb, tokens, 0.0, None);
        self.core.emissions(scratch);
        argmax_tags(&scratch.emis)
    }

    /// Predicted tags for every sentence of a dataset split.
    pub fn predict_all(&self, emb: &Embedding, sentences: &[TaggedSentence]) -> Vec<Vec<u8>> {
        let mut scratch = Scratch::new();
        sentences
            .iter()
            .map(|s| self.predict_with(emb, &s.tokens, &mut scratch))
            .collect()
    }
}

/// The BiLSTM-CRF tagger (paper Appendix E.2).
#[derive(Clone, Debug)]
pub struct BiLstmCrfTagger {
    core: BiLstmCore,
    crf: Crf,
}

impl BiLstmCrfTagger {
    /// Trains the tagger (CRF negative log-likelihood objective).
    ///
    /// # Panics
    ///
    /// Panics if the training set is empty or `config.hidden` is zero.
    pub fn train(emb: &Embedding, train: &[TaggedSentence], config: &LstmConfig) -> Self {
        assert!(!train.is_empty(), "cannot train on an empty dataset");
        assert!(config.hidden > 0, "hidden size must be positive");
        let mut init_rng = rand::rngs::StdRng::seed_from_u64(config.init_seed);
        let mut core = BiLstmCore::new(emb.dim(), config.hidden, N_TAGS, &mut init_rng);
        let mut crf = Crf::new(N_TAGS);
        let mut opt = CoreOpt::new(&core, config.lr);
        let mut grads = CoreGrads::new(&core);
        let mut scratch = Scratch::new();
        let mut crf_trans_opt = Adam::new(N_TAGS * N_TAGS, config.lr);
        let mut crf_start_opt = Adam::new(N_TAGS, config.lr);
        let mut crf_end_opt = Adam::new(N_TAGS, config.lr);
        let mut sample_rng = rand::rngs::StdRng::seed_from_u64(config.sample_seed);
        let mut order: Vec<usize> = (0..train.len()).collect();
        for _ in 0..config.epochs {
            shuffle(&mut order, &mut sample_rng);
            for &i in &order {
                let s = &train[i];
                if s.tokens.is_empty() {
                    continue;
                }
                scratch.embed(emb, &s.tokens, config.word_dropout, Some(&mut sample_rng));
                core.emissions(&mut scratch);
                let inv = 1.0 / s.tokens.len() as f64;
                let (_nll, mut cgrads, d_emis) = crf.nll_and_grads(&scratch.emis, &s.tags);
                let d_emis = d_emis.scale(inv);
                core.backward(&mut scratch, &d_emis, &mut grads);
                opt.step(&mut core, &mut grads, config.clip);
                let mut gt = cgrads.trans.scale(inv);
                clip_global_norm(gt.as_mut_slice(), config.clip);
                crf_trans_opt.step(crf.trans.as_mut_slice(), gt.as_slice());
                for g in cgrads.start.iter_mut() {
                    *g *= inv;
                }
                for g in cgrads.end.iter_mut() {
                    *g *= inv;
                }
                crf_start_opt.step(&mut crf.start, &cgrads.start);
                crf_end_opt.step(&mut crf.end, &cgrads.end);
            }
        }
        BiLstmCrfTagger { core, crf }
    }

    /// Predicted tags for one sentence (Viterbi decoding).
    pub fn predict(&self, emb: &Embedding, tokens: &[u32]) -> Vec<u8> {
        self.predict_with(emb, tokens, &mut Scratch::new())
    }

    fn predict_with(&self, emb: &Embedding, tokens: &[u32], scratch: &mut Scratch) -> Vec<u8> {
        if tokens.is_empty() {
            return Vec::new();
        }
        scratch.embed(emb, tokens, 0.0, None);
        self.core.emissions(scratch);
        self.crf.viterbi(&scratch.emis)
    }

    /// Predicted tags for every sentence of a dataset split.
    pub fn predict_all(&self, emb: &Embedding, sentences: &[TaggedSentence]) -> Vec<Vec<u8>> {
        let mut scratch = Scratch::new();
        sentences
            .iter()
            .map(|s| self.predict_with(emb, &s.tokens, &mut scratch))
            .collect()
    }
}

fn argmax_tags(emis: &Mat) -> Vec<u8> {
    (0..emis.rows())
        .map(|t| {
            let row = emis.row(t);
            let mut best = 0usize;
            for j in 1..row.len() {
                if row[j] > row[best] {
                    best = j;
                }
            }
            best as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tasks::ner::NerSpec;
    use embedstab_corpus::{LatentModel, LatentModelConfig};

    fn setup() -> (LatentModel, crate::tasks::ner::NerDataset, Embedding) {
        let model = LatentModel::new(&LatentModelConfig {
            vocab_size: 300,
            n_topics: 10,
            ..Default::default()
        });
        let ds = NerSpec {
            n_train: 150,
            n_valid: 20,
            n_test: 80,
            ..Default::default()
        }
        .generate(&model);
        let emb = Embedding::new(model.word_vecs.clone());
        (model, ds, emb)
    }

    /// The softmax cross-entropy loss of `core` on `xs` (`T x d`, token
    /// order), and its gradients when `grads` is given.
    fn loss_of(core: &BiLstmCore, xs: &[f64], tags: &[u8], grads: Option<&mut CoreGrads>) -> f64 {
        let mut s = Scratch::new();
        s.xs.extend_from_slice(xs);
        core.emissions(&mut s);
        let mut d_emis = Mat::zeros(0, 0);
        let loss = softmax_ce(&s.emis, tags, &mut d_emis);
        if let Some(g) = grads {
            core.backward(&mut s, &d_emis, g);
        }
        loss
    }

    /// One direction's per-step `(gates, cs, tanh_cs, hs)`.
    type StepVecs = (Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<Vec<f64>>, Vec<Vec<f64>>);

    /// The step-by-step loop the pass must reproduce bit for bit: one
    /// timestep and one gate row at a time over `zin = [x_t; h_{t-1}]`,
    /// fresh vectors per step.
    fn reference_forward(dir: &LstmDir, xs: &[Vec<f64>]) -> StepVecs {
        let (h, d) = (dir.h, dir.d);
        let (mut gs, mut cs, mut tcs, mut hs) = (vec![], vec![], vec![], vec![]);
        let (mut h_prev, mut c_prev) = (vec![0.0; h], vec![0.0; h]);
        for x in xs {
            let zin: Vec<f64> = x.iter().chain(&h_prev).copied().collect();
            let mut g: Vec<f64> = (0..4 * h)
                .map(|r| vecops::dot(dir.w.row(r), &zin) + dir.b[r])
                .collect();
            let (mut c, mut tc, mut hn) = (vec![0.0; h], vec![0.0; h], vec![0.0; h]);
            for j in 0..h {
                let i = vecops::sigmoid(g[j]);
                let f = vecops::sigmoid(g[h + j]);
                let gg = g[2 * h + j].tanh();
                let o = vecops::sigmoid(g[3 * h + j]);
                (g[j], g[h + j], g[2 * h + j], g[3 * h + j]) = (i, f, gg, o);
                c[j] = f * c_prev[j] + i * gg;
                tc[j] = c[j].tanh();
                hn[j] = o * tc[j];
            }
            assert_eq!(zin.len(), d + h);
            (h_prev, c_prev) = (hn.clone(), c.clone());
            gs.push(g);
            cs.push(c);
            tcs.push(tc);
            hs.push(hn);
        }
        (gs, cs, tcs, hs)
    }

    /// Backpropagation through time in the same step-by-step order:
    /// `t` descending, each row's `axpy` over `zin` as `t` goes.
    fn reference_backward(
        dir: &LstmDir,
        xs: &[Vec<f64>],
        fw: &StepVecs,
        dhs: &[Vec<f64>],
    ) -> (Mat, Vec<f64>) {
        let (gates, cs, tanh_cs, hs) = fw;
        let (h, d) = (dir.h, dir.d);
        let mut gw = Mat::zeros(4 * h, d + h);
        let mut gb = vec![0.0; 4 * h];
        let (mut dh_rec, mut dc_rec) = (vec![0.0; h], vec![0.0; h]);
        for t in (0..xs.len()).rev() {
            let (g, tc) = (&gates[t], &tanh_cs[t]);
            let mut da = vec![0.0; 4 * h];
            for j in 0..h {
                let dh_tot = dhs[t][j] + dh_rec[j];
                let (i, f, gg, o) = (g[j], g[h + j], g[2 * h + j], g[3 * h + j]);
                let dc_tot = dc_rec[j] + dh_tot * o * (1.0 - tc[j] * tc[j]);
                let cp = if t == 0 { 0.0 } else { cs[t - 1][j] };
                da[j] = dc_tot * gg * i * (1.0 - i);
                da[h + j] = dc_tot * cp * f * (1.0 - f);
                da[2 * h + j] = dc_tot * i * (1.0 - gg * gg);
                da[3 * h + j] = dh_tot * tc[j] * o * (1.0 - o);
                dc_rec[j] = dc_tot * f;
            }
            let h_prev = if t == 0 {
                vec![0.0; h]
            } else {
                hs[t - 1].clone()
            };
            let zin: Vec<f64> = xs[t].iter().chain(&h_prev).copied().collect();
            dh_rec = vec![0.0; h];
            for (r, &da_r) in da.iter().enumerate() {
                if da_r != 0.0 {
                    vecops::axpy(da_r, &zin, gw.row_mut(r));
                    gb[r] += da_r;
                    vecops::axpy(da_r, &dir.w.row(r)[d..], &mut dh_rec);
                }
            }
        }
        (gw, gb)
    }

    #[test]
    fn pass_matches_the_step_by_step_loop_bitwise() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        for (d, h, t_len) in [(3usize, 4usize, 5usize), (5, 5, 9), (16, 8, 17), (1, 3, 1)] {
            let core = BiLstmCore::new(d, h, N_TAGS, &mut rng);
            let mut xs: Vec<Vec<f64>> = (0..t_len)
                .map(|_| Mat::random_normal(1, d, &mut rng).into_vec())
                .collect();
            // A dropped word, and signed zeros inside a vector.
            xs[t_len / 2].iter_mut().for_each(|v| *v = 0.0);
            xs[0][0] = -0.0;
            let tags: Vec<u8> = (0..t_len).map(|t| (t % N_TAGS) as u8).collect();
            let mut s = Scratch::new();
            s.xs = xs.concat();
            core.emissions(&mut s);
            let mut d_emis = Mat::zeros(0, 0);
            softmax_ce(&s.emis, &tags, &mut d_emis);
            let mut grads = CoreGrads::new(&core);
            core.backward(&mut s, &d_emis, &mut grads);

            let rev: Vec<Vec<f64>> = xs.iter().rev().cloned().collect();
            let fw = reference_forward(&core.fwd, &xs);
            let bw = reference_forward(&core.bwd, &rev);
            let mut want_emis = Mat::zeros(t_len, N_TAGS);
            let mut gout = Mat::zeros(N_TAGS, 2 * h);
            let mut gbout = [0.0; N_TAGS];
            let (mut dh_f, mut dh_b) = (vec![vec![0.0; h]; t_len], vec![vec![0.0; h]; t_len]);
            for t in 0..t_len {
                let concat: Vec<f64> = fw.3[t]
                    .iter()
                    .chain(&bw.3[t_len - 1 - t])
                    .copied()
                    .collect();
                for k in 0..N_TAGS {
                    want_emis[(t, k)] = vecops::dot(core.w_out.row(k), &concat) + core.b_out[k];
                    let dl = d_emis[(t, k)];
                    if dl == 0.0 {
                        continue;
                    }
                    vecops::axpy(dl, &concat, gout.row_mut(k));
                    gbout[k] += dl;
                    let wrow = core.w_out.row(k);
                    vecops::axpy(dl, &wrow[..h], &mut dh_f[t]);
                    vecops::axpy(dl, &wrow[h..], &mut dh_b[t_len - 1 - t]);
                }
            }
            let (gwf, gbf) = reference_backward(&core.fwd, &xs, &fw, &dh_f);
            let (gwb, gbb) = reference_backward(&core.bwd, &rev, &bw, &dh_b);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let shape = format!("d {d}, h {h}, T {t_len}");
            assert_eq!(
                bits(s.emis.as_slice()),
                bits(want_emis.as_slice()),
                "emissions, {shape}"
            );
            for (name, got, want) in [
                ("fwd w", grads.wf.as_slice(), gwf.as_slice()),
                ("fwd b", &grads.bf[..], &gbf[..]),
                ("bwd w", grads.wb.as_slice(), gwb.as_slice()),
                ("bwd b", &grads.bb[..], &gbb[..]),
                ("w_out", grads.wout.as_slice(), gout.as_slice()),
                ("b_out", &grads.bout[..], &gbout[..]),
            ] {
                assert_eq!(bits(got), bits(want), "{name} gradient, {shape}");
            }
        }
    }

    #[test]
    fn lstm_gradient_check() {
        // Finite differences through the full BiLSTM + softmax CE loss for
        // every entry of every parameter block: both directions' weights
        // (input and recurrent columns) and biases, and the output layer.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0);
        let core = BiLstmCore::new(3, 4, N_TAGS, &mut rng);
        let xs = Mat::random_normal(5, 3, &mut rng).into_vec();
        let tags = [0u8, 2, 1, 4, 0];
        let mut grads = CoreGrads::new(&core);
        loss_of(&core, &xs, &tags, Some(&mut grads));
        type Block = fn(&mut BiLstmCore) -> &mut [f64];
        let blocks: [(&str, Block, &[f64]); 6] = [
            ("fwd w", |c| c.fwd.w.as_mut_slice(), grads.wf.as_slice()),
            ("fwd b", |c| &mut c.fwd.b, &grads.bf),
            ("bwd w", |c| c.bwd.w.as_mut_slice(), grads.wb.as_slice()),
            ("bwd b", |c| &mut c.bwd.b, &grads.bb),
            ("w_out", |c| c.w_out.as_mut_slice(), grads.wout.as_slice()),
            ("b_out", |c| &mut c.b_out, &grads.bout),
        ];
        let eps = 1e-6;
        let mut c2 = core.clone();
        for (name, block, analytic) in blocks {
            assert_eq!(block(&mut c2).len(), analytic.len());
            for (i, &want) in analytic.iter().enumerate() {
                let orig = block(&mut c2)[i];
                block(&mut c2)[i] = orig + eps;
                let up = loss_of(&c2, &xs, &tags, None);
                block(&mut c2)[i] = orig - eps;
                let down = loss_of(&c2, &xs, &tags, None);
                block(&mut c2)[i] = orig;
                let fd = (up - down) / (2.0 * eps);
                assert!(
                    (fd - want).abs() < 1e-5,
                    "{name}[{i}]: fd {fd} vs analytic {want}"
                );
            }
        }
        // The recurrent columns (>= d) carry gradient, so the check above
        // exercised them and not only zeros.
        let h_cols = |m: &Mat| {
            (0..m.rows())
                .flat_map(|r| m.row(r)[3..].to_vec())
                .collect::<Vec<_>>()
        };
        assert!(h_cols(&grads.wf).iter().any(|&g| g != 0.0));
        assert!(h_cols(&grads.wb).iter().any(|&g| g != 0.0));
    }

    #[test]
    fn learns_ner_from_good_embeddings() {
        let (_m, ds, emb) = setup();
        let (tagger, losses) = BiLstmTagger::train_with_report(
            &emb,
            &ds.train,
            &LstmConfig {
                epochs: 6,
                hidden: 12,
                ..Default::default()
            },
        );
        assert!(
            losses.last().expect("losses") < &losses[0],
            "loss should fall: {losses:?}"
        );
        // Entity-token accuracy well above the 1-in-5 chance level.
        let preds = tagger.predict_all(&emb, &ds.test);
        let mut correct = 0usize;
        let mut total = 0usize;
        for (p, s) in preds.iter().zip(&ds.test) {
            for (j, (&pt, &gt)) in p.iter().zip(&s.tags).enumerate() {
                let _ = j;
                if gt != 0 {
                    total += 1;
                    if pt == gt {
                        correct += 1;
                    }
                }
            }
        }
        let acc = correct as f64 / total as f64;
        assert!(acc > 0.5, "entity-token accuracy {acc}");
    }

    #[test]
    fn crf_tagger_trains_and_predicts() {
        let (_m, ds, emb) = setup();
        let small: Vec<TaggedSentence> = ds.train[..60].to_vec();
        let tagger = BiLstmCrfTagger::train(
            &emb,
            &small,
            &LstmConfig {
                epochs: 3,
                hidden: 8,
                ..Default::default()
            },
        );
        let preds = tagger.predict_all(&emb, &ds.test[..20]);
        for (p, s) in preds.iter().zip(&ds.test[..20]) {
            assert_eq!(p.len(), s.tokens.len());
            assert!(p.iter().all(|&t| (t as usize) < N_TAGS));
        }
    }

    #[test]
    fn deterministic_given_seeds() {
        let (_m, ds, emb) = setup();
        let cfg = LstmConfig {
            epochs: 2,
            hidden: 8,
            ..Default::default()
        };
        let a = BiLstmTagger::train(&emb, &ds.train[..40], &cfg);
        let b = BiLstmTagger::train(&emb, &ds.train[..40], &cfg);
        assert_eq!(
            a.predict_all(&emb, &ds.test[..10]),
            b.predict_all(&emb, &ds.test[..10])
        );
    }

    #[test]
    fn empty_sentence_predicts_empty() {
        let (_m, ds, emb) = setup();
        let tagger = BiLstmTagger::train(
            &emb,
            &ds.train[..20],
            &LstmConfig {
                epochs: 1,
                hidden: 4,
                ..Default::default()
            },
        );
        assert!(tagger.predict(&emb, &[]).is_empty());
    }
}
