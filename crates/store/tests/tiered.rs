//! The two-level cache end to end: a `Framework` backed by a `DiskStore`
//! persists every cold `accel(v, R)` evaluation, and a *fresh* framework
//! (empty memory cache) over the same store serves the **bit-identical**
//! Pareto front with **zero** model evaluations — the ISSUE 9 acceptance
//! gate, asserted on every one of the 132 registry kernels.

use cayman::{Framework, SelectOptions};
use cayman_store::{fronts_bits_equal, DiskStore};
use std::path::PathBuf;
use std::sync::Arc;

fn tmp_store_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cayman-store-tiered-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn disk_warm_framework_runs_zero_model_evals() {
    let dir = tmp_store_dir("single");
    let store = Arc::new(DiskStore::open(&dir).expect("open store"));
    let w = &cayman::workloads::corpus::corpus()[0];
    let opts = SelectOptions::default();

    let mut cold_fw = Framework::from_workload(w).expect("analyse");
    cold_fw.set_design_store(Arc::clone(&store) as _);
    let cold = cold_fw.select(&opts);
    assert!(cold.stats.configs_evaluated > 0, "cold run models designs");
    assert!(store.stats().writes > 0, "cold run persists designs");

    let mut warm_fw = Framework::from_workload(w).expect("re-analyse");
    warm_fw.set_design_store(Arc::clone(&store) as _);
    let warm = warm_fw.select(&opts);
    assert!(
        fronts_bits_equal(&warm.pareto, &cold.pareto),
        "{}: disk-warm front diverges from cold front",
        w.name
    );
    assert_eq!(
        warm.stats.configs_evaluated, 0,
        "disk-warm selection must never re-run the model"
    );
    assert!(warm.stats.disk_hits > 0, "warm designs must come off disk");
    assert_eq!(store.stats().corrupt, 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn store_is_shared_across_frameworks_not_cleared_by_cache_clear() {
    let dir = tmp_store_dir("shared");
    let store = Arc::new(DiskStore::open(&dir).expect("open store"));
    let w = &cayman::workloads::corpus::corpus()[1];
    let opts = SelectOptions::default();

    let mut fw = Framework::from_workload(w).expect("analyse");
    fw.set_design_store(Arc::clone(&store) as _);
    let cold = fw.select(&opts);
    let persisted = store.entry_count();
    assert!(persisted > 0);

    // clearing the in-memory cache must not clear the shared store
    fw.clear_design_cache();
    assert_eq!(store.entry_count(), persisted, "clear() keeps the store");
    let reheat = fw.select(&opts);
    assert!(fronts_bits_equal(&reheat.pareto, &cold.pareto));
    assert_eq!(
        reheat.stats.configs_evaluated, 0,
        "after clear(), designs reload from disk instead of re-modelling"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// ISSUE 9 acceptance: fronts served from the on-disk store are
/// bit-identical to freshly computed fronts on **all 132** registry
/// kernels, with zero model evaluations disk-warm.
#[test]
fn disk_fronts_bit_identical_on_all_132_kernels() {
    let dir = tmp_store_dir("full132");
    let store = Arc::new(DiskStore::open(&dir).expect("open store"));
    let opts = SelectOptions::default();
    let workloads = cayman::workloads::full();
    assert_eq!(
        workloads.len(),
        132,
        "expected the full 132-kernel registry"
    );

    let mut warm_evals = 0usize;
    for w in &workloads {
        let mut cold_fw = Framework::from_workload(w).expect("analyse");
        cold_fw.set_design_store(Arc::clone(&store) as _);
        let cold = cold_fw.select(&opts);

        let mut warm_fw = Framework::from_workload(w).expect("re-analyse");
        warm_fw.set_design_store(Arc::clone(&store) as _);
        let warm = warm_fw.select(&opts);

        assert!(
            fronts_bits_equal(&warm.pareto, &cold.pareto),
            "{}: disk-served front diverges from freshly computed front",
            w.name
        );
        warm_evals += warm.stats.configs_evaluated;
    }
    assert_eq!(
        warm_evals, 0,
        "disk-warm selection must run zero cold accel(v, R) evaluations"
    );
    assert_eq!(store.stats().corrupt, 0, "no corruption in a clean store");
    assert_eq!(store.stats().key_mismatches, 0, "no address collisions");
    let _ = std::fs::remove_dir_all(&dir);
}
