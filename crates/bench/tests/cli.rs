//! Every bench binary reads its command line through one reader: `--help`
//! exits 0, and an unknown flag, a bad `--scale` or a bad `--shard` exits
//! 2 with the binary's usage before it creates anything.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicUsize, Ordering};

use embedstab_pipeline::cache::scratch_dir;

/// `(name, path, takes the grid flags)` for each listed binary.
macro_rules! binaries {
    ($($name:ident: $grid:expr,)*) => {
        [$((stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))), $grid),)*]
    };
}

/// Every binary of the bench crate, and whether it takes the grid flags.
const BINARIES: [(&str, &str, bool); 27] = binaries! {
    coordinator: false,
    fig10_kge_thresholds: true,
    fig11_bert: true,
    fig12_fasttext: true,
    fig13_complex_models: true,
    fig14_seeds_finetune: true,
    fig15_learning_rate: true,
    fig1_dimension_precision: true,
    fig2_memory_tradeoff: true,
    fig3_kge: true,
    fig4_6_sentiment_grids: true,
    fig7_8_quality: true,
    fig9_measure_scatter: true,
    fleet_coordinator: false,
    fleet_worker: false,
    incremental_retrain: false,
    merge_rows: false,
    prop1_validation: true,
    run_all: true,
    serve_front: false,
    serve_loadgen: false,
    table13_randomness: true,
    table1_spearman: true,
    table2_selection_error: true,
    table3_oracle_gap: true,
    table8_hyperparams: true,
    table9_11_extended_selection: true,
};

/// Runs `exe` with `args` in an empty scratch directory and checks that
/// it left the directory empty.
fn run(name: &str, exe: &str, args: &[&str]) -> Output {
    static RUNS: AtomicUsize = AtomicUsize::new(0);
    let run = RUNS.fetch_add(1, Ordering::Relaxed);
    let cwd = scratch_dir(&format!("cli_{name}_{run}"));
    fs::remove_dir_all(&cwd).ok();
    fs::create_dir_all(&cwd).expect("scratch dir");
    let output = Command::new(exe)
        .current_dir(&cwd)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("{name} does not spawn: {e}"));
    let left: Vec<_> = fs::read_dir(&cwd).expect("scratch dir").collect();
    assert!(left.is_empty(), "{name} {args:?} created {left:?}");
    fs::remove_dir_all(&cwd).ok();
    output
}

/// Checks that `name` refused `args` with exit 2, an error naming
/// `error`, and its own usage line.
fn refuses(name: &str, exe: &str, args: &[&str], error: &str) {
    let output = run(name, exe, args);
    let err = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(2), "{name} {args:?}:\n{err}");
    assert!(
        err.contains(error),
        "{name} {args:?} must say '{error}':\n{err}"
    );
    assert!(
        err.contains(&format!("usage: {name} ")),
        "{name} {args:?} must print its usage:\n{err}"
    );
}

#[test]
fn the_list_names_every_binary() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("src/bin");
    let files: BTreeSet<String> = fs::read_dir(dir)
        .expect("src/bin")
        .map(|e| e.expect("entry").file_name().to_string_lossy().to_string())
        .collect();
    let listed: BTreeSet<String> = BINARIES.iter().map(|b| format!("{}.rs", b.0)).collect();
    assert_eq!(files, listed);
}

#[test]
fn every_binary_refuses_an_unknown_flag_and_answers_help() {
    for (name, exe, _) in BINARIES {
        refuses(
            name,
            exe,
            &["--no-such-flag", "x"],
            "unknown argument '--no-such-flag'",
        );
        let help = run(name, exe, &["--help"]);
        assert_eq!(help.status.code(), Some(0), "{name} --help");
        let out = String::from_utf8_lossy(&help.stdout);
        assert!(out.contains(&format!("usage: {name} ")), "{name}:\n{out}");
    }
}

#[test]
fn grid_binaries_refuse_a_bad_scale_or_shard() {
    for (name, exe, _) in BINARIES.iter().filter(|b| b.2) {
        refuses(name, exe, &["--scale", "bogus"], "unknown scale 'bogus'");
        refuses(name, exe, &["--shard", "2/2"], "bad --shard '2/2'");
        refuses(name, exe, &["--scale"], "--scale needs a value");
    }
    for name in ["coordinator", "fleet_coordinator", "incremental_retrain"] {
        let exe = BINARIES.iter().find(|b| b.0 == name).expect("listed").1;
        refuses(name, exe, &["--scale", "bogus"], "unknown scale 'bogus'");
    }
}

#[test]
fn incremental_retrain_refuses_a_misspelt_flag() {
    let exe = env!("CARGO_BIN_EXE_incremental_retrain");
    let args = ["--scale", "tiny", "--stepz", "1"];
    refuses(
        "incremental_retrain",
        exe,
        &args,
        "unknown argument '--stepz'",
    );
}

#[test]
fn merge_rows_reads_no_flag_as_a_file() {
    let exe = env!("CARGO_BIN_EXE_merge_rows");
    let args = ["--out", "merged.jsonl", "--parital", "rows.shard0of1.jsonl"];
    refuses("merge_rows", exe, &args, "unknown argument '--parital'");
}
