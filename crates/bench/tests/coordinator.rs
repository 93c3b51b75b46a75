//! End-to-end contract of the shard coordinator, a loopback fleet, with
//! the real binaries. A 2-way sharded Tiny run whose two local workers
//! start together with `FLEET_FAIL_ONCE` armed must (a) lose exactly one
//! worker mid-slice and re-dispatch its slice, (b) pull nothing — the
//! workers share the coordinator's cache directory, (c) build the world
//! exactly once, in the coordinator, and (d) merge rows into canonical row
//! files byte for byte identical to an unsharded run's files. The
//! unsharded binary run after a coordinator in the same directory reads
//! the merged rows instead of recomputing them, and recomputes a
//! canonical file that is cut off, garbled or missing a configuration
//! back to the same bytes. A shard binary that always fails, or one that
//! does not exist, must end the coordinator with a failure status and no
//! merged rows. In every run, each line of the shared stderr starts with
//! a known `[tag]`: the coordinator, its workers and their shards write
//! their lines whole, so none splits another.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use embedstab_bench::row_stem;
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::{Scale, ShardFile};

const TASKS: [&str; 5] = ["sst2", "mr", "subj", "mpqa", "ner"];

/// Whether a stderr line starts with a tag one of the fleet's processes
/// writes: the coordinator, the fleet, a worker, the world and grid
/// caches, a shard's run and row files, or a task's progress.
fn has_known_tag(line: &str) -> bool {
    let Some(tag) = line
        .strip_prefix('[')
        .and_then(|rest| rest.split_once(']'))
        .map(|(tag, _)| tag)
    else {
        return false;
    };
    matches!(
        tag,
        "coordinator" | "fleet" | "fleet_worker" | "world" | "grid" | "run" | "rows"
    ) || tag.starts_with("worker local-")
        || tag
            .strip_suffix("/tiny")
            .is_some_and(|task| TASKS.contains(&task))
}

/// Runs `coordinator --shards 2 --bin <bin> --scale tiny` in `cwd` with
/// its cache in `root/cache`, returning its status and stderr. Panics if
/// it runs past `timeout` (after killing it): a coordinator must not hang.
fn coordinate(
    root: &Path,
    cwd: &Path,
    bin: &Path,
    env: &[(&str, &Path)],
    timeout: Duration,
) -> (ExitStatus, String) {
    fs::create_dir_all(cwd).expect("coordinator cwd");
    let mut child = Command::new(env!("CARGO_BIN_EXE_coordinator"))
        .current_dir(cwd)
        .args(["--shards", "2", "--scale", "tiny", "--bin"])
        .arg(bin)
        .arg("--cache-dir")
        .arg(root.join("cache"))
        .envs(env.iter().copied())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("coordinator spawns");
    let mut stderr = child.stderr.take().expect("piped stderr");
    let tee = thread::spawn(move || {
        let mut log = String::new();
        stderr.read_to_string(&mut log).ok();
        log
    });
    let start = Instant::now();
    let status = loop {
        if let Some(status) = child.try_wait().expect("coordinator waits") {
            break status;
        }
        if start.elapsed() > timeout {
            child.kill().ok();
            child.wait().ok();
            panic!(
                "coordinator still running after {timeout:?}:\n{}",
                tee.join().expect("tee thread")
            );
        }
        thread::sleep(Duration::from_millis(100));
    };
    let log = tee.join().expect("tee thread");
    let untagged: Vec<&str> = log.lines().filter(|l| !has_known_tag(l)).collect();
    assert!(
        untagged.is_empty(),
        "stderr lines without a known tag (split or stray output): {untagged:?}\n{log}"
    );
    (status, log)
}

/// The canonical row file name of a Tiny task, `<stem>.jsonl`.
fn canonical(task: &str) -> String {
    format!(
        "{}.jsonl",
        row_stem(task, Scale::Tiny, &Scale::Tiny.params())
    )
}

/// A path's file name.
fn key_name(path: &Path) -> String {
    path.file_name()
        .and_then(|n| n.to_str())
        .expect("utf-8 file name")
        .to_string()
}

/// The row files in `cwd/results` that are not shard files: the merges.
fn merged_files(cwd: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(cwd.join("results")) else {
        return Vec::new();
    };
    entries
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            let name = p.file_name().and_then(|n| n.to_str()).unwrap_or("");
            name.ends_with(".jsonl") && ShardFile::parse(name).is_none()
        })
        .collect()
}

#[test]
fn coordinated_shard_fleet_matches_unsharded_run_bitwise() {
    let root = scratch_dir("coordinator_e2e");
    fs::remove_dir_all(&root).ok();
    let sharded_cwd = root.join("sharded");
    let unsharded_cwd = root.join("unsharded");
    let marker = root.join("fail_once.marker");
    let fig2 = Path::new(env!("CARGO_BIN_EXE_fig2_memory_tradeoff"));

    // A loopback fleet of 2 workers that start together; the injection
    // marker lets exactly one of them die mid-slice.
    let (status, log) = coordinate(
        &root,
        &sharded_cwd,
        fig2,
        &[("FLEET_FAIL_ONCE", &marker)],
        Duration::from_secs(900),
    );
    assert!(status.success(), "coordinator failed:\n{log}");
    assert!(marker.exists(), "the injection marker must be left behind");
    assert_eq!(
        log.matches("injected failure: dying mid-slice").count(),
        1,
        "exactly one worker must die:\n{log}"
    );
    assert_eq!(
        log.matches("exited (exit status: 43)").count(),
        1,
        "the coordinator must reap the dead worker:\n{log}"
    );
    assert!(
        log.contains("requeued"),
        "the dead worker's slice must be re-queued:\n{log}"
    );
    // The workers share the coordinator's caches: nothing crosses the wire.
    assert!(
        !log.contains("pulled world cache") && !log.contains("pulled pair cache"),
        "local workers must pull nothing:\n{log}"
    );
    // The coordinator built the world once; every shard loaded it.
    assert_eq!(
        log.matches("[world] built").count(),
        1,
        "the world must be built exactly once, by the coordinator:\n{log}"
    );
    assert!(
        log.find("[world] built") < log.find("] serving "),
        "the coordinator builds the world before any worker starts:\n{log}"
    );
    assert!(
        log.matches("[world] loaded").count() >= 2,
        "every shard must load the cached world:\n{log}"
    );
    // Only committed rows reach results/: two shard files and one merge
    // per task, no logs and no worker leftovers.
    let mut names: Vec<String> = fs::read_dir(sharded_cwd.join("results"))
        .expect("results dir")
        .map(|e| e.expect("entry").file_name().to_string_lossy().to_string())
        .collect();
    names.sort();
    let mut expected: Vec<String> = TASKS
        .iter()
        .flat_map(|t| {
            let stem = row_stem(t, Scale::Tiny, &Scale::Tiny.params());
            let shard = |index| {
                ShardFile {
                    stem: stem.clone(),
                    index,
                    shards: 2,
                }
                .name()
            };
            [canonical(t), shard(0), shard(1)]
        })
        .collect();
    expected.sort();
    assert_eq!(
        names, expected,
        "results/ holds only committed and merged rows"
    );

    // The coordinator's cache holds the one world file it built, next to
    // the pairs its shards trained.
    let worlds: Vec<PathBuf> = fs::read_dir(root.join("cache"))
        .expect("cache dir")
        .map(|e| e.expect("entry").path())
        .filter(|p| key_name(p).starts_with("world_v"))
        .collect();
    assert_eq!(worlds.len(), 1, "one world file: {worlds:?}");
    assert!(
        fs::read_dir(root.join("cache"))
            .expect("cache dir")
            .any(|e| key_name(&e.expect("entry").path()).starts_with("pair_v")),
        "the shards' pairs stay in the coordinator's cache"
    );

    // Unsharded reference run of the same binary in its own working
    // directory, on its default cache directory holding a copy of the
    // coordinator's world file and no pairs — freshly trained pairs must
    // reproduce the shard rows exactly.
    let reference_cache = unsharded_cwd.join("cache");
    fs::create_dir_all(&reference_cache).expect("reference cache");
    fs::copy(&worlds[0], reference_cache.join(key_name(&worlds[0]))).expect("copy world");
    let output = Command::new(fig2)
        .current_dir(&unsharded_cwd)
        .args(["--scale", "tiny", "--fresh"])
        .output()
        .expect("fig2 spawns");
    assert!(
        output.status.success(),
        "unsharded fig2 failed:\n{}",
        String::from_utf8_lossy(&output.stderr)
    );
    assert!(
        String::from_utf8_lossy(&output.stderr).contains("[world] loaded"),
        "reference run must load the coordinator's world"
    );

    // The fleet's canonical files == the unsharded run's, byte for byte.
    for task in TASKS {
        let read = |cwd: &Path| {
            fs::read(cwd.join("results").join(canonical(task)))
                .unwrap_or_else(|e| panic!("missing {task} rows in {}: {e}", cwd.display()))
        };
        let merged = read(&sharded_cwd);
        assert!(!merged.is_empty());
        assert!(
            merged == read(&unsharded_cwd),
            "merged {task} rows differ from the unsharded run"
        );
    }

    fs::remove_dir_all(&root).ok();
}

/// Runs `table1_spearman --scale tiny` in `cwd` on the coordinator's
/// cache, returning its stdout and stderr.
fn table1(root: &Path, cwd: &Path) -> (String, String) {
    let output = Command::new(env!("CARGO_BIN_EXE_table1_spearman"))
        .current_dir(cwd)
        .args(["--scale", "tiny"])
        .arg("--cache-dir")
        .arg(root.join("cache"))
        .output()
        .expect("table1_spearman spawns");
    let stderr = String::from_utf8_lossy(&output.stderr).to_string();
    assert!(output.status.success(), "table1_spearman failed:\n{stderr}");
    (String::from_utf8_lossy(&output.stdout).to_string(), stderr)
}

#[test]
fn unsharded_binary_reads_the_fleet_merge_and_mends_bad_row_files() {
    let root = scratch_dir("coordinator_then_table1");
    fs::remove_dir_all(&root).ok();
    let cwd = root.join("cwd");
    let bin = Path::new(env!("CARGO_BIN_EXE_table1_spearman"));
    let (status, log) = coordinate(&root, &cwd, bin, &[], Duration::from_secs(600));
    assert!(status.success(), "coordinator failed:\n{log}");

    // The unsharded binary prints its table from the merged rows: no task
    // runs and the world is never touched.
    let (table, err) = table1(&root, &cwd);
    assert!(table.contains("=== Table 1"), "no table printed:\n{table}");
    assert!(
        !err.contains("[run]") && !err.contains("[world]"),
        "the merged rows must be read, not recomputed:\n{err}"
    );
    assert_eq!(err.matches("[rows] loaded 81 rows").count(), 3, "{err}");

    // A file cut off mid-line, one with a garbled line and one missing a
    // configuration are each recomputed to the merged bytes.
    let path = |task: &str| cwd.join("results").join(canonical(task));
    let merged: Vec<Vec<u8>> = ["sst2", "subj", "ner"]
        .iter()
        .map(|t| fs::read(path(t)).expect("merged rows"))
        .collect();
    let sst2 = &merged[0];
    fs::write(path("sst2"), &sst2[..sst2.len() - 10]).expect("cut sst2");
    let subj = String::from_utf8(merged[1].clone()).expect("utf-8");
    let mut lines: Vec<&str> = subj.lines().collect();
    lines[40] = "{\"task\":\"subj\",garbled";
    fs::write(path("subj"), lines.join("\n") + "\n").expect("garble subj");
    let ner = String::from_utf8(merged[2].clone()).expect("utf-8");
    let mut lines: Vec<&str> = ner.lines().collect();
    lines.remove(17);
    fs::write(path("ner"), lines.join("\n") + "\n").expect("drop a ner row");

    let (again, err) = table1(&root, &cwd);
    for why in [
        "its last line is cut off",
        "line 41 does not parse",
        "it holds 80 rows for a grid of 81",
    ] {
        assert_eq!(err.matches(why).count(), 1, "'{why}' missing:\n{err}");
    }
    assert_eq!(err.matches("[run]").count(), 3, "{err}");
    for (task, bytes) in ["sst2", "subj", "ner"].iter().zip(&merged) {
        assert!(
            fs::read(path(task)).expect("recomputed rows") == *bytes,
            "recomputed {task} rows differ from the merged ones"
        );
    }
    assert_eq!(again, table, "the table must not change");
    fs::remove_dir_all(&root).ok();
}

#[test]
fn failing_shard_binary_fails_the_fleet_without_merging() {
    let root = scratch_dir("coordinator_failing_shard");
    fs::remove_dir_all(&root).ok();
    fs::create_dir_all(&root).expect("scratch root");
    let shard = root.join("always_fails");
    fs::write(&shard, "#!/bin/sh\nexit 3\n").expect("write shard script");
    #[cfg(unix)]
    {
        use std::os::unix::fs::PermissionsExt;
        fs::set_permissions(&shard, fs::Permissions::from_mode(0o755)).expect("chmod");
    }
    let cwd = root.join("cwd");
    let (status, log) = coordinate(&root, &cwd, &shard, &[], Duration::from_secs(600));
    assert_eq!(status.code(), Some(1), "coordinator must exit 1:\n{log}");
    assert!(log.contains("FLEET FAILED"), "{log}");
    assert!(
        merged_files(&cwd).is_empty(),
        "nothing may be merged:\n{log}"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn missing_shard_binary_exits_once_every_worker_has() {
    let root = scratch_dir("coordinator_missing_shard");
    fs::remove_dir_all(&root).ok();
    let cwd = root.join("cwd");
    let missing = root.join("no_such_dir").join("no_such_binary");
    let (status, log) = coordinate(&root, &cwd, &missing, &[], Duration::from_secs(600));
    assert!(!status.success(), "coordinator must fail:\n{log}");
    assert_eq!(
        log.matches("[coordinator] worker local-").count(),
        2,
        "both workers must be reaped before the coordinator exits:\n{log}"
    );
    assert!(
        merged_files(&cwd).is_empty(),
        "nothing may be merged:\n{log}"
    );
    fs::remove_dir_all(&root).ok();
}
