//! On-disk corruption tolerance (ISSUE 9 satellite): truncating or
//! bit-flipping a persisted entry yields a clean miss — never a panic,
//! never a wrong front — bumps the store's `corrupt` counter *and* the
//! `store.corrupt` obs counter, unlinks the bad entry, and leaves the
//! store fully usable afterwards.

use cayman_hls::design::AcceleratorDesign;
use cayman_hls::inputs::CandidateKey;
use cayman_hls::interface::{InterfaceKind, InterfaceSpec};
use cayman_ir::loops::LoopId;
use cayman_ir::{BlockId, FuncId, InstrId};
use cayman_select::cache::{DesignKey, ModelId};
use cayman_store::codec::VERSION;
use cayman_store::{DiskStore, StoreOptions};
use std::fs;
use std::path::{Path, PathBuf};

fn tmp_store_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cayman-store-corrupt-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn sample_key(seed: u64) -> DesignKey {
    DesignKey {
        model: ModelId {
            name: "cayman",
            options: seed,
        },
        candidate: CandidateKey {
            func: FuncId(seed as u32 % 7),
            region_fp: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            blocks: vec![BlockId(1), BlockId(2), BlockId(seed as u32 % 5)],
            entries: 100 + seed,
            cpu_cycles: 4096 + seed,
            is_bb: seed.is_multiple_of(2),
        },
    }
}

fn sample_designs(seed: u64) -> Vec<AcceleratorDesign> {
    vec![AcceleratorDesign {
        func: FuncId(seed as u32 % 7),
        blocks: vec![BlockId(1), BlockId(2)],
        unroll: 1 + (seed as u32 % 8),
        pipelined: vec![LoopId(0)],
        pipelined_detail: vec![(LoopId(0), vec![BlockId(1)], 2)],
        interfaces: vec![(
            InstrId(3),
            InterfaceSpec {
                kind: InterfaceKind::BankedScratchpad,
                banks: 4,
                depth: 64,
                ports: 2,
            },
        )],
        seq_blocks: 2,
        accel_cycles_total: 123.5 + seed as f64,
        area: 0.25 * seed as f64,
        cpu_cycles: 4096 + seed,
        entries: 100 + seed,
    }]
}

/// The single `.cyd` entry file under `dir` (panics unless exactly one).
fn only_entry(dir: &Path) -> PathBuf {
    let mut found = Vec::new();
    for shard in fs::read_dir(dir.join("objects"))
        .expect("objects dir")
        .flatten()
    {
        for f in fs::read_dir(shard.path()).expect("shard dir").flatten() {
            if f.path().extension().is_some_and(|e| e == "cyd") {
                found.push(f.path());
            }
        }
    }
    assert_eq!(found.len(), 1, "expected exactly one entry, got {found:?}");
    found.pop().expect("one entry")
}

#[test]
fn truncated_entry_is_a_clean_miss_and_is_unlinked() {
    let dir = tmp_store_dir("truncate");
    let store = DiskStore::open(&dir).expect("open");
    let (key, designs) = (sample_key(1), sample_designs(1));
    store.save(&key, &designs);
    assert!(store.load(&key).is_some(), "sanity: clean entry loads");

    let path = only_entry(&dir);
    let bytes = fs::read(&path).expect("read entry");
    fs::write(&path, &bytes[..bytes.len() / 2]).expect("truncate entry");

    assert!(store.load(&key).is_none(), "truncated entry must miss");
    let stats = store.stats();
    assert_eq!(stats.corrupt, 1, "truncation counted as corrupt");
    assert!(!path.exists(), "bad entry unlinked for re-persist");

    // the store heals: re-save, reload
    store.save(&key, &designs);
    assert!(store.load(&key).is_some(), "store usable after corruption");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn bit_flipped_entry_is_a_clean_miss_with_obs_counter() {
    let dir = tmp_store_dir("bitflip");
    let store = DiskStore::open(&dir).expect("open");
    let (key, designs) = (sample_key(2), sample_designs(2));
    store.save(&key, &designs);

    let path = only_entry(&dir);
    let mut bytes = fs::read(&path).expect("read entry");
    // flip one bit deep in the payload (past magic/version/key header)
    let victim = bytes.len() * 3 / 4;
    bytes[victim] ^= 0x10;
    fs::write(&path, &bytes).expect("write flipped entry");

    cayman_obs::enable();
    let loaded = store.load(&key);
    let trace = cayman_obs::drain();
    cayman_obs::disable();

    assert!(
        loaded.is_none(),
        "bit-flipped entry must miss, never decode"
    );
    assert_eq!(store.stats().corrupt, 1);
    assert_eq!(store.stats().hits, 0);
    let corrupt_events: u64 = trace
        .events
        .iter()
        .filter_map(|e| match e.kind {
            cayman_obs::EventKind::Counter { delta } if e.name.to_string() == "store.corrupt" => {
                Some(delta)
            }
            _ => None,
        })
        .sum();
    assert!(
        corrupt_events >= 1,
        "store.corrupt obs counter must fire on corruption"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_skewed_entry_is_dropped_not_decoded() {
    let dir = tmp_store_dir("version");
    let store = DiskStore::open(&dir).expect("open");
    let (key, designs) = (sample_key(3), sample_designs(3));
    store.save(&key, &designs);

    let path = only_entry(&dir);
    let mut bytes = fs::read(&path).expect("read entry");
    bytes[4] = VERSION + 1; // byte 4 is the format version (after "CYDS")
    fs::write(&path, &bytes).expect("write skewed entry");

    assert!(store.load(&key).is_none(), "future-version entry must miss");
    let stats = store.stats();
    assert_eq!(stats.version_skew, 1);
    assert_eq!(stats.corrupt, 0, "version skew is not corruption");
    assert!(!path.exists(), "skewed entry unlinked for re-persist");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn version_1_entry_is_a_counted_skew_miss_never_a_hit() {
    // Version 1 keyed candidates by the whole function's content
    // fingerprint and version 2 by region prints that hashed immediates by
    // value; neither's entries may answer a version-3 lookup.
    assert_eq!(VERSION, 3);
    for old in 1..VERSION {
        let dir = tmp_store_dir(&format!("v{old}"));
        let store = DiskStore::open(&dir).expect("open");
        let (key, designs) = (sample_key(5), sample_designs(5));
        store.save(&key, &designs);

        // Rewrite the entry as a well-formed old entry: the old version
        // byte and a checksum that covers it, so only the version can
        // reject it.
        let path = only_entry(&dir);
        let mut bytes = fs::read(&path).expect("read entry");
        let body = bytes.len() - 8;
        bytes[4] = old;
        let checksum = cayman_ir::fingerprint::fnv1a(&bytes[..body]);
        bytes[body..].copy_from_slice(&checksum.to_le_bytes());
        fs::write(&path, &bytes).expect("write old entry");

        assert!(store.load(&key).is_none(), "a v{old} entry must miss");
        let stats = store.stats();
        assert_eq!(stats.version_skew, 1);
        assert_eq!((stats.hits, stats.corrupt), (0, 0));
        assert!(!path.exists(), "v{old} entry unlinked for re-persist");
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn garbage_and_empty_files_never_panic() {
    let dir = tmp_store_dir("garbage");
    let store = DiskStore::open(&dir).expect("open");
    let (key, designs) = (sample_key(4), sample_designs(4));
    store.save(&key, &designs);
    let path = only_entry(&dir);

    for garbage in [&b""[..], b"CY", b"CYDSnonsense", &[0xFFu8; 64][..]] {
        fs::write(&path, garbage).expect("write garbage");
        assert!(store.load(&key).is_none(), "garbage must be a clean miss");
        store.save(&key, &designs); // re-persist for the next round
    }
    assert_eq!(store.stats().corrupt as usize, 4);
    assert!(
        store.load(&key).is_some(),
        "store healthy after the gauntlet"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn eviction_sweep_bounds_store_size() {
    let dir = tmp_store_dir("evict");
    let store = DiskStore::open_with(
        &dir,
        StoreOptions {
            max_bytes: 2048,
            sweep_every: 8,
        },
    )
    .expect("open");
    for seed in 0..64 {
        store.save(&sample_key(seed), &sample_designs(seed));
    }
    store.sweep();
    assert!(
        store.total_bytes() <= 2048,
        "sweep must bound the store to max_bytes, got {}",
        store.total_bytes()
    );
    assert!(store.stats().evictions > 0, "over-full store must evict");
    assert!(store.entry_count() > 0, "eviction keeps the newest entries");
    let _ = fs::remove_dir_all(&dir);
}
