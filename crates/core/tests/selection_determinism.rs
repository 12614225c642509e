//! Determinism guarantees of the selection DP on real benchmarks:
//!
//! * a warm design cache reproduces the cold run's front exactly, while
//!   skipping every model invocation, and two independently built
//!   frameworks' cold runs report equal `SelectStats`,
//! * concurrent selections through one framework (as `caymand`'s
//!   connection threads run them, sharing one design cache) each reproduce
//!   the sequential front **bit for bit**.

use cayman::{Framework, SelectOptions, Solution};
use std::sync::Barrier;

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
fn warm_cache_selection_is_exact_on_real_workloads() {
    for name in WORKLOADS {
        let w = cayman::workloads::by_name(name).expect("workload exists");
        let fw = Framework::from_workload(&w).expect("analyses");
        let opts = SelectOptions::default();
        let cold = fw.select(&opts);
        assert!(cold.stats.cache_misses > 0, "{name}: cold run misses");
        assert_eq!(cold.stats.cache_hits, 0, "{name}: cold run has no hits");
        // The stats are counts only: an independently built framework's
        // cold run reports the same snapshot.
        let twin = Framework::from_workload(&w).expect("analyses");
        assert_eq!(twin.select(&opts).stats, cold.stats, "{name}: cold stats");
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
fn concurrent_selections_share_one_framework_exactly() {
    const CALLERS: usize = 4;
    let w = cayman::workloads::by_name("3mm").expect("workload exists");
    let reference = Framework::from_workload(&w)
        .expect("analyses")
        .select(&SelectOptions::default());
    let fw = Framework::from_workload(&w).expect("analyses");
    let start = Barrier::new(CALLERS);
    let fronts: Vec<Vec<Solution>> = std::thread::scope(|s| {
        let callers: Vec<_> = (0..CALLERS)
            .map(|_| {
                s.spawn(|| {
                    start.wait();
                    (0..3)
                        .map(|_| fw.select(&SelectOptions::default()).pareto)
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
        assert_fronts_bit_identical(&reference.pareto, front, "3mm concurrent");
    }
    assert!(fw.cache_len() > 0, "the callers filled the shared cache");
}
