//! Metric names, the run report, and the result line.
//!
//! Every workload prints every end-to-end metric of [`END_TO_END`] (untraced
//! runs) or every per-layer metric of [`PER_LAYER`] (traced runs), as the
//! last line of standard output. A per-layer metric of a layer the workload
//! does not drive reads 0. The human-readable report goes to standard
//! error.

use std::collections::BTreeMap;
use std::path::Path;

use crate::stats::median;
use crate::trace::{self_by_name, Span};

/// `(name, unit)` of the end-to-end metrics. Each workload defines its
/// operation: a grid row (`sweep`), a retrain step (`retrain`) or a
/// request (`serve`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// `(name, unit)` of the per-layer metrics.
pub const PER_LAYER: [(&str, &str); 40] = [
    ("corpus.generate_s", "s"),
    ("embeddings.stats_s", "s"),
    ("downstream.datasets_s", "s"),
    ("embeddings.train_s", "s"),
    ("embeddings.pairs_trained", "count"),
    ("linalg.align_s", "s"),
    ("quant.quantize_s", "s"),
    ("downstream.sentiment_fit_s", "s"),
    ("downstream.ner_fit_s", "s"),
    ("linalg.measure_svd_s", "s"),
    ("core.eis_s", "s"),
    ("core.knn_s", "s"),
    ("core.pip_s", "s"),
    ("core.displacement_s", "s"),
    ("core.overlap_s", "s"),
    ("stream.ingest_ms", "ms"),
    ("stream.dirty_rows", "count"),
    ("corpus.ppmi_refresh_ms", "ms"),
    ("corpus.ppmi_nnz", "count"),
    ("embeddings.svd_retrain_ms", "ms"),
    ("serve.gate_score_ms", "ms"),
    ("core.knn_gate_ms", "ms"),
    ("linalg.gate_svd_ms", "ms"),
    ("serve.publish_ms", "ms"),
    ("serve.gate_promoted", "count"),
    ("serve.gate_held", "count"),
    ("serve.wire_encode_us", "us"),
    ("serve.wire_decode_us", "us"),
    ("serve.snapshot_lookup_us", "us"),
    ("serve.snapshot_nearest_us", "us"),
    ("serve.server_wait_us", "us"),
    ("serve.requests_ok", "count"),
    ("serve.requests_failed", "count"),
    ("serve.overloaded", "count"),
    ("serve.gen_lag_us", "us"),
    ("serve.low_rate_p50_us", "us"),
    ("serve.low_rate_p99_us", "us"),
    ("serve.promote_ms", "ms"),
    ("trace.uncovered_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// How a span-derived per-layer metric reduces its spans' self times.
#[derive(Clone, Copy)]
enum Reduce {
    /// Sum, in seconds (layers called many times per grid pass).
    TotalS,
    /// Median per call, in milliseconds (once per retrain step).
    MedianMs,
    /// Median per call, in microseconds (once per request).
    MedianUs,
    /// Number of spans.
    Count,
}

/// Per-layer metrics read straight off the spans: `(metric, span, reduce)`.
const FROM_SPANS: [(&str, &str, Reduce); 24] = [
    ("corpus.generate_s", "corpus.generate", Reduce::TotalS),
    ("embeddings.stats_s", "embeddings.stats", Reduce::TotalS),
    (
        "downstream.datasets_s",
        "downstream.datasets",
        Reduce::TotalS,
    ),
    ("embeddings.train_s", "embeddings.train", Reduce::TotalS),
    ("embeddings.pairs_trained", "sweep.pair", Reduce::Count),
    ("linalg.align_s", "linalg.align", Reduce::TotalS),
    ("quant.quantize_s", "quant.quantize", Reduce::TotalS),
    (
        "downstream.sentiment_fit_s",
        "downstream.sentiment_fit",
        Reduce::TotalS,
    ),
    ("downstream.ner_fit_s", "downstream.ner_fit", Reduce::TotalS),
    ("linalg.measure_svd_s", "linalg.measure_svd", Reduce::TotalS),
    ("core.eis_s", "core.eis", Reduce::TotalS),
    ("core.knn_s", "core.knn", Reduce::TotalS),
    ("core.pip_s", "core.pip", Reduce::TotalS),
    ("core.displacement_s", "core.displacement", Reduce::TotalS),
    ("core.overlap_s", "core.overlap", Reduce::TotalS),
    ("stream.ingest_ms", "stream.ingest", Reduce::MedianMs),
    (
        "corpus.ppmi_refresh_ms",
        "corpus.ppmi_refresh",
        Reduce::MedianMs,
    ),
    (
        "embeddings.svd_retrain_ms",
        "embeddings.svd_retrain",
        Reduce::MedianMs,
    ),
    ("serve.gate_score_ms", "serve.gate_score", Reduce::MedianMs),
    ("core.knn_gate_ms", "core.knn_gate", Reduce::MedianMs),
    ("linalg.gate_svd_ms", "linalg.gate_svd", Reduce::MedianMs),
    ("serve.publish_ms", "serve.publish", Reduce::MedianMs),
    (
        "serve.wire_encode_us",
        "serve.wire_encode",
        Reduce::MedianUs,
    ),
    (
        "serve.wire_decode_us",
        "serve.wire_decode",
        Reduce::MedianUs,
    ),
];

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    checks: Vec<(String, bool)>,
    metrics: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    /// Records an output check.
    pub fn check(&mut self, what: impl Into<String>, passed: bool) {
        self.checks.push((what.into(), passed));
    }

    /// Sets a metric (it must be one of the two tables).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(&PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.metrics.insert(name, value);
    }

    /// Adds a line to the human-readable report.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    pub fn correct(&self) -> bool {
        self.checks.iter().all(|&(_, ok)| ok)
    }

    /// Sets every span-derived per-layer metric whose spans were recorded,
    /// and notes the self time of every span name.
    pub fn add_span_metrics(&mut self, spans: &[Span]) {
        let by_name = self_by_name(spans);
        for (metric, span, reduce) in FROM_SPANS {
            let Some(times) = by_name.get(span) else {
                continue;
            };
            let ns: Vec<f64> = times.iter().map(|&t| t as f64).collect();
            let value = match reduce {
                Reduce::TotalS => ns.iter().sum::<f64>() / 1e9,
                Reduce::MedianMs => median(&ns) / 1e6,
                Reduce::MedianUs => median(&ns) / 1e3,
                Reduce::Count => ns.len() as f64,
            };
            self.set(metric, value);
        }
        self.note("self time by span (total s, calls):");
        for (name, times) in &by_name {
            let total: u64 = times.iter().sum();
            self.note(format!(
                "  {name:<28} {:>10.4} s {:>8}",
                total as f64 / 1e9,
                times.len()
            ));
        }
    }
}

/// Run metadata printed with every report.
pub struct Meta {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub nproc: usize,
}

/// The commit of the checkout, read from `.git` when there is one.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(c) = std::fs::read_to_string(Path::new(".git").join(r)) {
        return c.trim().to_string();
    }
    // A packed ref: `<hash> <ref>` lines.
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(r)
                    .and_then(|h| h.strip_suffix(' '))
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| format!("unknown ({r} not found)"))
}

/// Formats a metric value as a JSON number (non-finite values are null).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Prints the report to standard error and the result line to standard
/// output.
pub fn emit(meta: &Meta, out: &Outcome) {
    let env = std::env::var(embedstab_pipeline::pool::THREADS_ENV).unwrap_or("unset".into());
    eprintln!(
        "== perfbench workload={} seed={} seconds={} trace={} scale=small",
        meta.workload, meta.seed, meta.seconds, meta.trace as u8
    );
    eprintln!(
        "   nproc={} EMBEDSTAB_THREADS={env} commit={}",
        meta.nproc,
        git_commit()
    );
    for line in &out.notes {
        eprintln!("   {line}");
    }
    for (what, ok) in &out.checks {
        eprintln!("   check {}: {what}", if *ok { "ok  " } else { "FAIL" });
    }
    let table: &[(&str, &str)] = if meta.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    let mut correct = out.correct();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            // A layer this workload does not drive did no work.
            None if meta.trace => 0.0,
            // Only a run that stopped early leaves one unmeasured.
            None => {
                eprintln!("   check FAIL: {name} was not measured");
                correct = false;
                f64::NAN
            }
        };
        eprintln!("   {name:<28} {value:>14.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    eprintln!(
        "   attempted={} failed={} correct={correct}",
        out.attempted, out.failed
    );
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        fields.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tables here and `BENCHMARK.json` name the same metrics.
    #[test]
    fn tables_match_benchmark_json() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json next to the benchmark directory");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = json.matches("\"unit\":").count();
        assert_eq!(
            listed,
            END_TO_END.len() + PER_LAYER.len(),
            "extra metrics listed"
        );
    }

    #[test]
    fn span_metrics_reduce_self_time() {
        let span = |id, parent, name, start_ns, end_ns| Span {
            id,
            parent,
            name,
            request: 0,
            thread: 1,
            start_ns,
            end_ns,
        };
        let spans = vec![
            span(1, None, "retrain.step", 0, 10_000_000),
            span(2, Some(1), "stream.ingest", 0, 2_000_000),
            span(3, None, "retrain.step", 20_000_000, 30_000_000),
            span(4, Some(3), "stream.ingest", 20_000_000, 24_000_000),
            span(5, Some(3), "stream.ingest", 25_000_000, 26_000_000),
            span(6, None, "embeddings.train", 0, 1_500_000_000),
            span(7, None, "embeddings.train", 0, 500_000_000),
        ];
        let mut out = Outcome::default();
        out.add_span_metrics(&spans);
        assert_eq!(out.metrics["stream.ingest_ms"], 2.0);
        assert_eq!(out.metrics["embeddings.train_s"], 2.0);
        assert!(!out.metrics.contains_key("core.eis_s"));
    }

    #[test]
    fn json_numbers_keep_all_digits() {
        assert_eq!(json_number(1.2034567891234), "1.2034567891234");
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
