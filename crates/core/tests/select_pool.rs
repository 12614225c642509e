//! The selection pool stays bounded: however many threads select at once,
//! the process holds at most `threads - 1` pool helpers, a sequential run
//! starts none, and every concurrent run's front still matches the
//! sequential one bit for bit.
//!
//! This file holds a single test so that no other test in the same process
//! can start helpers first. Helpers are counted by thread name through
//! procfs, so the test runs on Linux only.
#![cfg(target_os = "linux")]

use cayman::select::{run_selection, CaymanModel, DesignCache};
use cayman::{Framework, SelectOptions, SelectionResult, Solution};
use std::sync::Barrier;

/// Threads of this process named as pool helpers (`select.worker.<n>`).
fn pool_helpers() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .filter(|name| name.starts_with("select.worker."))
        .count()
}

/// A cold selection (fresh design cache) at `threads`.
fn cold_select(fw: &Framework, threads: usize) -> SelectionResult {
    let opts = SelectOptions {
        threads,
        ..Default::default()
    };
    run_selection(
        &fw.app.module,
        &fw.app.wpst,
        &fw.app.profile,
        &fw.app.inputs(),
        &opts,
        &CaymanModel(opts.model.clone()),
        &DesignCache::new(),
        None,
    )
}

fn fronts_identical(a: &[Solution], b: &[Solution]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.area.to_bits() == y.area.to_bits()
                && x.saved_seconds.to_bits() == y.saved_seconds.to_bits()
                && x.kernels.len() == y.kernels.len()
                && x.kernels
                    .iter()
                    .zip(&y.kernels)
                    .all(|(k, l)| k.node == l.node && k.design.blocks == l.design.blocks)
        })
}

#[test]
fn concurrent_selections_share_one_bounded_pool() {
    const CALLERS: usize = 8;
    const THREADS: usize = 4;
    let w = cayman::workloads::by_name("3mm").expect("workload exists");
    let fw = Framework::from_workload(&w).expect("analyses");

    let reference = cold_select(&fw, 1);
    assert_eq!(pool_helpers(), 0, "a threads: 1 run started pool helpers");

    let start = Barrier::new(CALLERS);
    let fronts: Vec<Vec<Solution>> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    (0..3)
                        .map(|_| {
                            let res = cold_select(&fw, THREADS);
                            let helpers = pool_helpers();
                            assert!(helpers < THREADS, "{helpers} pool helpers");
                            res.pareto
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        callers
            .into_iter()
            .flat_map(|c| c.join().expect("caller panicked"))
            .collect()
    });
    for front in &fronts {
        assert!(
            fronts_identical(&reference.pareto, front),
            "a concurrent threads: {THREADS} run changed the front"
        );
    }
    let helpers = pool_helpers();
    assert!(
        (1..THREADS).contains(&helpers),
        "{helpers} pool helpers after the runs"
    );
}
