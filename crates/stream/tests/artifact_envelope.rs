//! The on-disk artifact formats — pair cache, world cache, snapshot, the
//! snapshot store's `LIVE` pointer and stream checkpoint — share one
//! checksummed envelope (`corpus::codec::seal`). These tests pin what
//! that buys:
//!
//! - **bit rot is a miss.** Flipping any one byte of a file (every offset,
//!   or 512 seeded offsets of the larger world file) makes every reader
//!   refuse it: the caches miss, `CacheStore` reports `Corrupt`, a
//!   checkpoint resume misses and a snapshot store fails to open, on a
//!   snapshot file or on its `LIVE` pointer. FNV-1a makes this exact:
//!   each step `h = (h ^ b) * p` is injective in `h` for a fixed byte, so
//!   any single-byte body change moves the checksum.
//! - **a crash leaves the prior state.** The states an interrupted
//!   `atomic_write` can leave are built on disk directly — a partial
//!   `*.tmp<pid>_<n>` sibling, or a snapshot renamed into place whose
//!   `LIVE` rewrite never happened — and reopening finds what was there
//!   before, with the next publish allocating a fresh version.

use std::fs;
use std::path::{Path, PathBuf};

use embedstab_embeddings::{Algo, Embedding};
use embedstab_linalg::Mat;
use embedstab_pipeline::cache::scratch_dir;
use embedstab_pipeline::{CacheStore, Scale, StoreError, World};
use embedstab_quant::Precision;
use embedstab_serve::{SnapshotStore, TenantRegistry, Version};
use embedstab_stream::{ContinuousRetrainer, RetrainerConfig};
use rand::{RngExt, SeedableRng};

fn fresh(label: &str) -> PathBuf {
    let dir = scratch_dir(label);
    fs::remove_dir_all(&dir).ok();
    dir
}

fn emb(seed: u64, n: usize, d: usize) -> Embedding {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    Embedding::new(Mat::random_normal(n, d, &mut rng))
}

fn key_of(path: &Path) -> String {
    path.file_name()
        .and_then(|n| n.to_str())
        .expect("utf8 file name")
        .to_string()
}

/// Writes `bytes` with byte `offset` flipped to `path`, runs `is_miss`,
/// and restores the original. Panics naming the offset of any hit.
fn assert_flips_miss(path: &Path, bytes: &[u8], offsets: &[usize], is_miss: impl Fn() -> bool) {
    for &offset in offsets {
        let mut flipped = bytes.to_vec();
        flipped[offset] ^= 0x01;
        fs::write(path, &flipped).expect("write flipped file");
        assert!(
            is_miss(),
            "a flip at byte {offset} of {} loaded as a hit",
            path.display()
        );
    }
    fs::write(path, bytes).expect("restore");
}

fn is_corrupt<T: std::fmt::Debug>(r: Result<T, StoreError>) -> bool {
    matches!(r, Err(StoreError::Corrupt { .. }))
}

/// A partial temporary sibling of `path`, as a crash inside
/// `atomic_write` before its rename leaves one.
fn leave_partial_temp(path: &Path, bytes: &[u8]) {
    let tmp = path.with_extension(format!("tmp{}_{}", std::process::id(), 9_999));
    fs::write(tmp, &bytes[..bytes.len() / 2]).expect("partial temp");
}

fn small_retrainer(registry_dir: &Path) -> ContinuousRetrainer {
    let mut config = RetrainerConfig::default();
    config.cooc.window = 2;
    let mut svc = ContinuousRetrainer::new(12, config, TenantRegistry::new(registry_dir))
        .expect("valid config");
    let docs = (0..24u32)
        .map(|d| (0..6u32).map(|i| (d * 5 + i * 7) % 12).collect())
        .collect();
    svc.ingest(docs).expect("in vocab");
    svc.retrain(2).expect("retrain stores a warm basis");
    svc
}

#[test]
fn every_byte_flip_of_a_pair_file_is_a_miss() {
    let root = fresh("envelope_flip_pair");
    let store = CacheStore::open(&root).expect("store");
    let pair_key = (Algo::Cbow, 3, 1);
    let (e17, e18) = (emb(1, 7, 3), emb(2, 7, 3));
    let path = store
        .store_pair(0xabcd, pair_key, &e17, &e18)
        .expect("store pair");
    let key = key_of(&path);
    let bytes = fs::read(&path).expect("read");
    let offsets: Vec<usize> = (0..bytes.len()).collect();
    assert_flips_miss(&path, &bytes, &offsets, || {
        let flipped = fs::read(&path).expect("read flipped");
        store.load_pair(0xabcd, pair_key).is_none()
            && is_corrupt(store.get(&key))
            && is_corrupt(store.put(&key, &flipped))
    });
    assert_eq!(
        store.load_pair(0xabcd, pair_key).expect("restored"),
        (e17, e18)
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn seeded_byte_flips_of_a_world_file_are_misses() {
    let root = fresh("envelope_flip_world");
    let params = Scale::Tiny.params();
    let store = CacheStore::open(&root).expect("store");
    let path = store
        .store_world(&World::build(&params, 0))
        .expect("store world");
    let key = key_of(&path);
    let bytes = fs::read(&path).expect("read");
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    // The whole header, then seeded offsets across the body.
    let mut offsets: Vec<usize> = (0..32).collect();
    offsets.extend((32..512).map(|_| rng.random_range(32..bytes.len())));
    assert_flips_miss(&path, &bytes, &offsets, || {
        let flipped = fs::read(&path).expect("read flipped");
        store.load_world(&params, 0).is_none()
            && is_corrupt(store.get(&key))
            && is_corrupt(store.put(&key, &flipped))
    });
    assert!(
        store.load_world(&params, 0).is_some(),
        "the restored file loads"
    );
    fs::remove_dir_all(&root).ok();
}

#[test]
fn every_byte_flip_of_a_snapshot_fails_the_open() {
    let dir = fresh("envelope_flip_snapshot");
    let mut store = SnapshotStore::open(&dir).expect("open");
    store
        .publish(&emb(3, 9, 4), Precision::new(4), Some(0.25))
        .expect("publish");
    let path = snapshot_files(&dir).pop().expect("one snapshot file");
    let bytes = fs::read(&path).expect("read");
    let offsets: Vec<usize> = (0..bytes.len()).collect();
    let open_fails =
        || SnapshotStore::open(&dir).is_err_and(|e| e.kind() == std::io::ErrorKind::InvalidData);
    assert_flips_miss(&path, &bytes, &offsets, open_fails);
    let reopened = SnapshotStore::open(&dir).expect("restored store opens");
    assert_eq!(reopened.live(), store.live());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_byte_flip_of_the_live_pointer_fails_the_open() {
    let dir = fresh("envelope_flip_live");
    let mut store = SnapshotStore::open(&dir).expect("open");
    for seed in 20..23 {
        store
            .publish(&emb(seed, 6, 3), Precision::new(4), None)
            .expect("publish");
    }
    store.rollback().expect("rollback to v2");
    let path = dir.join("LIVE");
    let bytes = fs::read(&path).expect("read LIVE");
    let offsets: Vec<usize> = (0..bytes.len()).collect();
    let open_fails =
        || SnapshotStore::open(&dir).is_err_and(|e| e.kind() == std::io::ErrorKind::InvalidData);
    assert_flips_miss(&path, &bytes, &offsets, open_fails);
    // The JSON pointer of earlier stores has no reader.
    fs::write(&path, br#"{"history":[1,2],"max_issued":3}"#).expect("write JSON LIVE");
    assert!(open_fails(), "a JSON LIVE pointer must fail the open");
    fs::write(&path, &bytes).expect("restore");
    let reopened = SnapshotStore::open(&dir).expect("restored store opens");
    assert_eq!(reopened.history(), vec![Version(1), Version(2)]);
    assert_eq!(reopened.live(), store.live());
    fs::remove_dir_all(&dir).ok();
}

#[test]
fn every_byte_flip_of_a_checkpoint_is_a_resume_miss() {
    let dir = fresh("envelope_flip_checkpoint");
    let svc = small_retrainer(&dir.join("tenants"));
    let path = svc.save_checkpoint(&dir).expect("checkpoint");
    let bytes = fs::read(&path).expect("read");
    let resume = || {
        let registry = TenantRegistry::new(dir.join("tenants"));
        ContinuousRetrainer::resume(&path, svc.config().clone(), registry).expect("read ok")
    };
    let offsets: Vec<usize> = (0..bytes.len()).collect();
    assert_flips_miss(&path, &bytes, &offsets, || resume().is_none());
    let resumed = resume().expect("the restored checkpoint resumes");
    assert_eq!(resumed.fingerprint(), svc.fingerprint());
    fs::remove_dir_all(&dir).ok();
}

fn snapshot_files(dir: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = fs::read_dir(dir)
        .expect("list store")
        .map(|e| e.expect("entry").path())
        .filter(|p| {
            let name = key_of(p);
            name.starts_with("snap_") && name.ends_with(".bin")
        })
        .collect();
    files.sort();
    files
}

#[test]
fn partial_temp_siblings_leave_every_format_in_its_prior_state() {
    let root = fresh("envelope_crash_temp");

    let store = CacheStore::open(root.join("cache")).expect("store");
    let pair_key = (Algo::Mc, 2, 0);
    let (e17, e18) = (emb(4, 5, 2), emb(5, 5, 2));
    let pair_path = store
        .store_pair(0x77, pair_key, &e17, &e18)
        .expect("store pair");
    leave_partial_temp(&pair_path, &fs::read(&pair_path).expect("read"));
    assert_eq!(
        store.load_pair(0x77, pair_key).expect("prior pair"),
        (e17, e18)
    );

    let params = Scale::Tiny.params();
    let world_path = store
        .store_world(&World::build(&params, 1))
        .expect("store world");
    leave_partial_temp(&world_path, &fs::read(&world_path).expect("read"));
    let loaded = store.load_world(&params, 1).expect("prior world");
    assert_eq!(
        loaded.stream_fingerprint(),
        World::build(&params, 1).stream_fingerprint()
    );

    // The temp files are not cache keys, so no fleet worker is offered one.
    assert_eq!(
        store.keys().expect("keys"),
        vec![key_of(&pair_path), key_of(&world_path)]
    );

    let snaps = root.join("snapshots");
    let mut store = SnapshotStore::open(&snaps).expect("open");
    store
        .publish(&emb(6, 6, 2), Precision::FULL, None)
        .expect("v1");
    store
        .publish(&emb(7, 6, 2), Precision::FULL, None)
        .expect("v2");
    let v2_path = snapshot_files(&snaps).pop().expect("v2 file");
    let v2_bytes = fs::read(&v2_path).expect("read");
    // A v3 publish and a LIVE rewrite that both died before their renames.
    leave_partial_temp(
        &v2_path.with_file_name("snap_v2_000000000003.bin"),
        &v2_bytes,
    );
    let live_path = snaps.join("LIVE");
    leave_partial_temp(&live_path, &fs::read(&live_path).expect("read LIVE"));
    let mut reopened = SnapshotStore::open(&snaps).expect("reopen");
    assert_eq!(reopened.history(), vec![Version(1), Version(2)]);
    assert_eq!(reopened.live(), store.live());
    let v3 = reopened
        .publish(&emb(8, 6, 2), Precision::FULL, None)
        .expect("v3");
    assert_eq!(v3, Version(3));

    let ckpt_dir = root.join("ckpt");
    let svc = small_retrainer(&root.join("tenants"));
    let ckpt = svc.save_checkpoint(&ckpt_dir).expect("checkpoint");
    leave_partial_temp(&ckpt, &fs::read(&ckpt).expect("read"));
    let registry = TenantRegistry::new(root.join("tenants"));
    let resumed = ContinuousRetrainer::resume(&ckpt, svc.config().clone(), registry)
        .expect("read ok")
        .expect("prior checkpoint");
    assert_eq!(resumed.fingerprint(), svc.fingerprint());
    assert_eq!(resumed.increments(), svc.increments());
    fs::remove_dir_all(&root).ok();
}

#[test]
fn snapshot_renamed_without_its_live_rewrite_keeps_the_prior_live_version() {
    let root = fresh("envelope_crash_live");
    let dir = root.join("store");
    let mut store = SnapshotStore::open(&dir).expect("open");
    store
        .publish(&emb(10, 6, 3), Precision::new(4), None)
        .expect("v1");
    store
        .publish(&emb(11, 6, 3), Precision::new(4), Some(0.1))
        .expect("v2");
    // A publish of v3 that crashed after its snapshot rename but before
    // the LIVE rewrite: the v3 file is in place, LIVE still says v2. The
    // file is built by a second store that got as far as v3.
    let mut other = SnapshotStore::open(root.join("other")).expect("open other");
    for seed in 12..15 {
        other
            .publish(&emb(seed, 6, 3), Precision::new(4), None)
            .expect("publish");
    }
    let v3_file = snapshot_files(&root.join("other")).pop().expect("v3 file");
    let landed = dir.join(v3_file.file_name().expect("name"));
    fs::copy(&v3_file, &landed).expect("v3 lands");

    let mut reopened = SnapshotStore::open(&dir).expect("reopen");
    assert_eq!(reopened.history(), vec![Version(1), Version(2)]);
    assert_eq!(reopened.live(), store.live());
    // The orphaned v3 is never reissued: the next publish is v4, and the
    // v3 file stays as it landed.
    let v4 = reopened
        .publish(&emb(15, 6, 3), Precision::new(4), None)
        .expect("v4");
    assert_eq!(v4, Version(4));
    assert_eq!(
        fs::read(&landed).expect("read v3"),
        fs::read(&v3_file).expect("read source")
    );
    let again = SnapshotStore::open(&dir).expect("reopen after v4");
    assert_eq!(again.history(), vec![Version(1), Version(2), Version(4)]);
    fs::remove_dir_all(&root).ok();
}
