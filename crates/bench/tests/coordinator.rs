//! End-to-end contract of the shard coordinator, a loopback fleet, with
//! the real binaries. A 2-way sharded Tiny run whose two local workers
//! start together with `FLEET_FAIL_ONCE` armed must (a) lose exactly one
//! worker mid-slice and re-dispatch its slice, (b) pull nothing — the
//! workers share the coordinator's cache directories, (c) build the world
//! exactly once, in the coordinator, and (d) merge rows bitwise identical
//! to an unsharded run of the same binary against the same world cache.
//! A shard binary that always fails, or one that does not exist, must end
//! the coordinator with a failure status and no merged rows.

use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitStatus, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use embedstab_bench::{row_merge_key, rows_to_jsonl};
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::Row;

const TASKS: [&str; 5] = ["sst2", "mr", "subj", "mpqa", "ner"];

/// Runs `coordinator --shards 2 --bin <bin> --scale tiny` in `cwd` with
/// caches under `root`, returning its status and stderr. Panics if it
/// runs past `timeout` (after killing it): a coordinator must not hang.
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
        .arg(root.join("pair-cache"))
        .arg("--world-cache")
        .arg(root.join("world-cache"))
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
    (status, tee.join().expect("tee thread"))
}

fn merged_files(cwd: &Path) -> Vec<PathBuf> {
    let Ok(entries) = fs::read_dir(cwd.join("results")) else {
        return Vec::new();
    };
    entries
        .map(|e| e.expect("entry").path())
        .filter(|p| p.to_string_lossy().ends_with(".merged.jsonl"))
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
            [
                format!("rows_{t}_tiny.merged.jsonl"),
                format!("rows_{t}_tiny.shard0of2.jsonl"),
                format!("rows_{t}_tiny.shard1of2.jsonl"),
            ]
        })
        .collect();
    expected.sort();
    assert_eq!(
        names, expected,
        "results/ holds only committed and merged rows"
    );

    // Unsharded reference run of the same binary, against the same (now
    // warm) world cache, in its own working directory with no shared pair
    // cache — freshly trained pairs must reproduce the shard rows exactly.
    fs::create_dir_all(&unsharded_cwd).expect("unsharded cwd");
    let output = Command::new(fig2)
        .current_dir(&unsharded_cwd)
        .args(["--scale", "tiny", "--fresh"])
        .arg("--world-cache")
        .arg(root.join("world-cache"))
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

    // Merged shard rows == unsharded rows, bitwise, for every task.
    for task in TASKS {
        let merged_path = sharded_cwd
            .join("results")
            .join(format!("rows_{task}_tiny.merged.jsonl"));
        let merged = fs::read_to_string(&merged_path)
            .unwrap_or_else(|e| panic!("missing merged rows for {task}: {e}"));
        let reference_path = unsharded_cwd
            .join("results")
            .join(format!("rows_{task}_tiny.json"));
        let body = fs::read_to_string(&reference_path)
            .unwrap_or_else(|e| panic!("missing reference rows for {task}: {e}"));
        let mut reference: Vec<Row> = serde_json::from_str(&body).expect("reference rows parse");
        assert!(!reference.is_empty());
        reference.sort_by_cached_key(row_merge_key);
        assert_eq!(
            merged,
            rows_to_jsonl(&reference),
            "merged {task} rows differ from the unsharded run"
        );
    }

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
