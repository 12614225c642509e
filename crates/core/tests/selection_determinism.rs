//! Determinism guarantees of the selection DP on real benchmarks:
//!
//! * the Pareto front is **bit-identical** across thread budgets — parallel
//!   subtree evaluation must not change float summation order,
//! * a warm design cache reproduces the cold run's front exactly, while
//!   skipping every model invocation.

use cayman::{Framework, SelectOptions, Solution};

/// Representative polybench workloads: a flat multi-kernel app (atax), a
/// deep chained one (3mm), and a stencil (jacobi-2d).
const WORKLOADS: [&str; 3] = ["atax", "3mm", "jacobi-2d"];

fn assert_fronts_bit_identical(a: &[Solution], b: &[Solution], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: front lengths differ");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert_eq!(
            x.area.to_bits(),
            y.area.to_bits(),
            "{what}: area differs at solution {i}"
        );
        assert_eq!(
            x.saved_seconds.to_bits(),
            y.saved_seconds.to_bits(),
            "{what}: saving differs at solution {i}"
        );
        assert_eq!(
            x.kernels.len(),
            y.kernels.len(),
            "{what}: kernel count at {i}"
        );
        for (k, l) in x.kernels.iter().zip(&y.kernels) {
            assert_eq!(k.node, l.node, "{what}: kernel node at {i}");
            assert_eq!(
                k.design.blocks, l.design.blocks,
                "{what}: kernel blocks at {i}"
            );
            assert_eq!(
                k.design.unroll, l.design.unroll,
                "{what}: kernel unroll at {i}"
            );
        }
    }
}

#[test]
fn parallel_selection_is_deterministic_on_real_workloads() {
    for name in WORKLOADS {
        let w = cayman::workloads::by_name(name).expect("workload exists");
        let fw = Framework::from_workload(&w).expect("analyses");
        let seq = fw.select(&SelectOptions::default());
        assert!(seq.pareto.len() > 1, "{name}: selection found solutions");
        for threads in [2usize, 4, 7] {
            let par = fw.select(&SelectOptions {
                threads,
                ..Default::default()
            });
            assert_fronts_bit_identical(
                &seq.pareto,
                &par.pareto,
                &format!("{name} threads={threads}"),
            );
            assert_eq!(par.visited, seq.visited, "{name}: visited count");
            assert_eq!(
                par.stats.configs_considered, seq.stats.configs_considered,
                "{name}: configs considered"
            );
        }
    }
}

#[test]
fn warm_cache_selection_is_exact_on_real_workloads() {
    for name in WORKLOADS {
        let w = cayman::workloads::by_name(name).expect("workload exists");
        let fw = Framework::from_workload(&w).expect("analyses");
        let opts = SelectOptions::default();
        let cold = fw.select(&opts);
        assert!(cold.stats.cache_misses > 0, "{name}: cold run misses");
        assert_eq!(cold.stats.cache_hits, 0, "{name}: cold run has no hits");
        let warm = fw.select(&opts);
        assert_fronts_bit_identical(&cold.pareto, &warm.pareto, &format!("{name} warm"));
        assert_eq!(
            warm.stats.cache_misses, 0,
            "{name}: warm run fully memoised"
        );
        assert_eq!(
            warm.stats.cache_hits, cold.stats.cache_misses,
            "{name}: hit count mirrors cold misses"
        );
        assert_eq!(
            warm.stats.configs_evaluated, 0,
            "{name}: warm run never invokes the model"
        );
        // counters the DP derives from design flow stay identical
        assert_eq!(
            warm.stats.configs_considered, cold.stats.configs_considered,
            "{name}"
        );
        assert_eq!(warm.visited, cold.visited, "{name}");
    }
}

#[test]
fn parallel_and_cached_combine() {
    // threads > 1 against a warm cache — the fast path used by sweep
    // drivers — still reproduces the sequential cold front exactly.
    let w = cayman::workloads::by_name("atax").expect("atax");
    let fw = Framework::from_workload(&w).expect("analyses");
    let cold = fw.select(&SelectOptions::default());
    let fast = fw.select(&SelectOptions {
        threads: 4,
        ..Default::default()
    });
    assert_fronts_bit_identical(&cold.pareto, &fast.pareto, "atax parallel+warm");
    assert_eq!(fast.stats.cache_misses, 0);
    assert_eq!(fast.stats.threads, 4);
}
