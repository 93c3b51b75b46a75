//! Golden values for the three FNV-1a fingerprints that name cache and
//! checkpoint files: the pair-cache key [`World::fingerprint`], the
//! world-cache key [`world_fingerprint`], and the stream checkpoint key
//! [`World::stream_fingerprint`] (`corpus_state_fingerprint` over the
//! '18 corpus). A change to how any of them hashes would silently orphan
//! every cached world, pair and checkpoint on disk, so the values are
//! pinned here rather than merely checked for self-consistency.

use embedstab_pipeline::{world_fingerprint, Scale, World};

#[test]
fn tiny_fingerprints_are_pinned() {
    let params = Scale::Tiny.params();
    // (master seed, World::fingerprint, world_fingerprint, stream fingerprint)
    let golden: [(u64, u64, u64, u64); 2] = [
        (
            0,
            0x2011_491c_c492_a10d,
            0x7bdc_d801_1496_ab32,
            0x3648_f494_8419_d7f0,
        ),
        (
            7,
            0xbf5c_1b21_87dd_1c7a,
            0xdf53_fa48_9137_d5e5,
            0x8751_e74f_65c6_8575,
        ),
    ];
    for (seed, pair_fp, world_fp, stream_fp) in golden {
        let world = World::build(&params, seed);
        assert_eq!(
            world.fingerprint(),
            pair_fp,
            "World::fingerprint, seed {seed}"
        );
        assert_eq!(
            world_fingerprint(&params, seed),
            world_fp,
            "world_fingerprint, seed {seed}"
        );
        assert_eq!(
            world.stream_fingerprint(),
            stream_fp,
            "corpus_state_fingerprint, seed {seed}"
        );
    }
}
