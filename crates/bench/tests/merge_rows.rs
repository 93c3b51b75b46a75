//! Shard fan-in: merging the per-shard JSONL row files must reproduce the
//! unsharded run exactly — bitwise, after canonical ordering — and be
//! idempotent under duplicate inputs.

use embedstab_bench::{
    check_shard_set, merge_fleet_results, merge_shard_rows, merge_shard_rows_partial,
    row_merge_key, rows_to_jsonl,
};
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::{Experiment, JsonlSink, Row, Scale, ShardFile, World};
use embedstab_quant::Precision;

#[test]
fn merged_shards_equal_the_unsharded_run_bitwise() {
    let mut params = Scale::Tiny.params();
    params.dims = vec![4, 8];
    params.precisions = vec![Precision::new(1), Precision::FULL];
    params.seeds = vec![0, 1];
    let world = World::build(&params, 0);
    let experiment = || {
        Experiment::new(&world)
            .tasks(["sst2"])
            .algos([embedstab_embeddings::Algo::Mc])
    };

    let dir = scratch_dir("merge_rows_test");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");

    // The unsharded reference, in canonical order.
    let mut reference = experiment().run();
    assert_eq!(reference.len(), 8);
    reference.sort_by_key(row_merge_key);

    // Three shard processes streaming to their own JSONL files (completion
    // order, so the files themselves are unordered).
    let n = 3;
    let shard_paths: Vec<_> = (0..n)
        .map(|index| {
            let stem = "rows_sst2_tiny".to_string();
            dir.join(
                ShardFile {
                    stem,
                    index,
                    shards: n,
                }
                .name(),
            )
        })
        .collect();
    for (i, path) in shard_paths.iter().enumerate() {
        experiment().shard(i, n).sink(JsonlSink::new(path)).run();
    }

    let merged = merge_shard_rows(&shard_paths).expect("merge");
    assert_eq!(
        rows_to_jsonl(&merged),
        rows_to_jsonl(&reference),
        "merged shards must equal the unsharded run bitwise"
    );

    // Duplicated inputs (a shard merged twice, or a re-run) de-duplicate
    // to the same canonical output.
    let mut doubled = shard_paths.clone();
    doubled.extend(shard_paths.iter().cloned());
    let deduped = merge_shard_rows(&doubled).expect("merge with duplicates");
    assert_eq!(rows_to_jsonl(&deduped), rows_to_jsonl(&reference));

    // And merging the merged output is a no-op (idempotent fan-in).
    let merged_path = dir.join("merged.jsonl");
    std::fs::write(&merged_path, rows_to_jsonl(&merged)).expect("write merged");
    let remerged = merge_shard_rows(&[&merged_path]).expect("re-merge");
    assert_eq!(rows_to_jsonl(&remerged), rows_to_jsonl(&reference));

    // An incomplete shard set must be an error, not a silently smaller
    // "canonical" file; --partial (the _partial variant) overrides.
    let incomplete = &shard_paths[..2];
    let err = merge_shard_rows(incomplete).expect_err("gap must error");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    assert!(
        err.to_string().contains("shard2of3"),
        "names the gap: {err}"
    );
    let salvaged = merge_shard_rows_partial(incomplete).expect("partial merge");
    assert!(salvaged.len() < reference.len());
    assert!(!salvaged.is_empty());

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn shard_suffix_parsing_and_set_checking() {
    let p = |s: &str| std::path::PathBuf::from(s);
    let parse = |name: &str| ShardFile::parse(name).map(|f| (f.stem, f.index, f.shards));
    assert_eq!(
        parse("rows_sst2_small.shard0of2.jsonl"),
        Some(("rows_sst2_small".to_string(), 0, 2))
    );
    assert_eq!(
        parse("rows_sst2_tiny.shard1of2.jsonl"),
        Some(("rows_sst2_tiny".to_string(), 1, 2))
    );
    assert_eq!(
        parse("a.b.c.shard0of16.jsonl"),
        Some(("a.b.c".to_string(), 0, 16))
    );
    // The writer and the parser agree.
    let file = ShardFile {
        stem: "rows_mr_paper".to_string(),
        index: 3,
        shards: 8,
    };
    assert_eq!(file.name(), "rows_mr_paper.shard3of8.jsonl");
    assert_eq!(ShardFile::parse(&file.name()), Some(file));
    // Non-shard files, malformed and out-of-range suffixes are not shards:
    // `i` and `n` are plain digits, with `n > 0` and `i < n`.
    for name in [
        "rows_sst2_tiny_0123456789abcdef.jsonl",
        "rows.shard2of2.jsonl",
        "rows.shard0of0.jsonl",
        "rows.shardXofY.jsonl",
        "rows.shard1of2.json",
        "rows.shardof2.jsonl",
        "rows.shard1of.jsonl",
        "shard1of2.jsonl",
        "rows.shard-1of2.jsonl",
        "rows.shard+1of2.jsonl",
        "rows.shard1of+2.jsonl",
    ] {
        assert_eq!(parse(name), None, "{name} is not a shard row file");
    }
    // The merge parses a path's file name: this lone shard is a gap.
    check_shard_set(&[p("results/a.shard1of2.jsonl")]).expect_err("shard0of2 missing");

    // Complete set, duplicates, and plain (non-shard) inputs all pass.
    check_shard_set(&[
        p("a.shard0of2.jsonl"),
        p("a.shard1of2.jsonl"),
        p("a.shard1of2.jsonl"),
        p("merged.jsonl"),
    ])
    .expect("complete set");
    // Independent stems are validated independently.
    check_shard_set(&[
        p("a.shard0of1.jsonl"),
        p("b.shard0of2.jsonl"),
        p("b.shard1of2.jsonl"),
    ])
    .expect("two complete stems");
    // A gap in either stem fails, naming the stem.
    let err =
        check_shard_set(&[p("a.shard0of1.jsonl"), p("b.shard0of2.jsonl")]).expect_err("gap in b");
    assert!(err.to_string().contains('b'), "{err}");
    assert!(err.to_string().contains("shard1of2"), "{err}");
    // Mixed shard counts for one stem fail even if each looks complete.
    let err = check_shard_set(&[
        p("a.shard0of1.jsonl"),
        p("a.shard0of2.jsonl"),
        p("a.shard1of2.jsonl"),
    ])
    .expect_err("mixed n");
    assert!(err.to_string().contains("mixed"), "{err}");
}

/// A row of the synthetic 2-shard fixture below.
fn fixture_row(dim: usize, seed: u64) -> Row {
    Row {
        task: "sst2".into(),
        algo: "MC".into(),
        dim,
        bits: 32,
        memory: 32 * dim as u64,
        seed,
        disagreement: 0.125,
        quality17: 0.75,
        quality18: 0.75,
        measures: None,
    }
}

#[test]
fn a_corrupt_shard_line_fails_every_merge_naming_file_and_line() {
    let dir = scratch_dir("merge_rows_corrupt");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let shard = |index| {
        dir.join(
            ShardFile {
                stem: "rows_sst2_tiny".to_string(),
                index,
                shards: 2,
            }
            .name(),
        )
    };
    let (shard0, shard1) = (shard(0), shard(1));
    let rows0 = [fixture_row(4, 0), fixture_row(8, 0), fixture_row(16, 0)];
    let mut lines: Vec<String> = rows_to_jsonl(&rows0).lines().map(String::from).collect();
    lines[1] = "{\"task\":\"sst2\",garbled".to_string();
    std::fs::write(&shard0, lines.join("\n") + "\n").expect("garbled shard0");
    std::fs::write(&shard1, rows_to_jsonl(&[fixture_row(4, 1)])).expect("shard1");

    let shards = [&shard0, &shard1];
    for (what, merged) in [
        ("checked", merge_shard_rows(&shards)),
        ("partial", merge_shard_rows_partial(&shards)),
    ] {
        let err = merged.expect_err(what);
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{what}");
        let msg = err.to_string();
        assert!(
            msg.contains(&shard0.display().to_string()) && msg.contains("line 2 does not parse"),
            "{what}: {msg}"
        );
    }
    // A shard file cut off mid-line is corrupt too.
    let whole = rows_to_jsonl(&rows0);
    std::fs::write(&shard0, &whole[..whole.len() - 3]).expect("cut shard0");
    let err = merge_shard_rows_partial(&shards).expect_err("cut off");
    assert!(
        err.to_string().contains("its last line is cut off"),
        "{err}"
    );

    // The binary exits 2 and writes nothing; the fleet's fan-in writes no
    // canonical file.
    let out = dir.join("merged.jsonl");
    for partial in [false, true] {
        let mut cmd = std::process::Command::new(env!("CARGO_BIN_EXE_merge_rows"));
        if partial {
            cmd.arg("--partial");
        }
        let output = cmd
            .arg("--out")
            .arg(&out)
            .args(shards)
            .output()
            .expect("merge_rows spawns");
        assert_eq!(output.status.code(), Some(2), "partial={partial}");
        assert!(String::from_utf8_lossy(&output.stderr).contains("cut off"));
        assert!(!out.exists(), "partial={partial}: nothing may be written");
    }
    merge_fleet_results(&dir, 2).expect_err("fleet fan-in");
    assert!(!dir.join("rows_sst2_tiny.jsonl").exists());
    std::fs::remove_dir_all(&dir).ok();
}
