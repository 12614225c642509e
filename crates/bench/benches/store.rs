//! The persistent design store's tracked benchmark: full-suite selection
//! latency cold vs disk-warm vs memory-warm, written to `BENCH_store.json`.
//!
//! For every registry kernel, selection is timed in three cache states
//! against one `Framework` (analysis cost excluded — this measures the
//! store, not the front end):
//!
//! * **cold** — empty memory cache, empty `DiskStore`: every `accel(v, R)`
//!   runs the model and writes through to disk,
//! * **disk-warm** — memory cache cleared, same store directory: every
//!   design loads off disk, the model never runs (asserted per kernel,
//!   along with a bit-identical front),
//! * **memory-warm** — repeat selection against the warm stripes: the
//!   in-process upper bound the disk level is measured against.
//!
//! The headline target (ISSUE 9): disk-warm full-suite selection ≥ 5×
//! faster than cold.
//!
//! ```text
//! cargo bench -p cayman-bench --bench store            # full registry, writes JSON
//! cargo bench -p cayman-bench --bench store -- --smoke # CI: 20 kernels, no JSON
//! ```

use cayman::{Framework, SelectOptions};
use cayman_bench::harness::fmt_duration;
use cayman_bench::json;
use cayman_store::{fronts_bits_equal, DiskStore};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Timing repetitions per kernel per state (minimum reported; the paths are
/// deterministic, so min is the noise floor).
const REPS: usize = 3;

struct KernelPoint {
    name: &'static str,
    cold_s: f64,
    disk_warm_s: f64,
    mem_warm_s: f64,
    store_entries: usize,
}

fn measure_kernel(w: &cayman::workloads::Workload, scratch: &Path, index: usize) -> KernelPoint {
    let mut fw = Framework::from_workload(w).expect("registry kernel analyses");
    let opts = SelectOptions::default();

    // Cold: fresh store per rep so write-through cost is always included.
    let mut cold_s = f64::INFINITY;
    let mut cold_front = None;
    let mut warm_store = None;
    for rep in 0..REPS {
        let dir = scratch.join(format!("k{index}-r{rep}"));
        let store = Arc::new(DiskStore::open(&dir).expect("open store"));
        fw.clear_design_cache();
        fw.set_design_store(Arc::clone(&store) as _);
        let t0 = Instant::now();
        let res = fw.select(&opts);
        cold_s = cold_s.min(t0.elapsed().as_secs_f64());
        assert!(
            res.stats.configs_evaluated > 0,
            "{}: cold selection must run the model",
            w.name
        );
        cold_front = Some(res.pareto);
        warm_store = Some((store, dir));
    }
    let cold_front = cold_front.expect("at least one cold rep");
    let (store, warm_dir) = warm_store.expect("at least one cold rep");

    // Disk-warm: memory cleared, store kept — designs come off disk.
    let mut disk_warm_s = f64::INFINITY;
    for _ in 0..REPS {
        fw.clear_design_cache();
        let t0 = Instant::now();
        let res = fw.select(&opts);
        disk_warm_s = disk_warm_s.min(t0.elapsed().as_secs_f64());
        assert_eq!(
            res.stats.configs_evaluated, 0,
            "{}: disk-warm selection must never run the model",
            w.name
        );
        assert!(
            fronts_bits_equal(&res.pareto, &cold_front),
            "{}: disk-warm front diverges from cold front",
            w.name
        );
    }

    // Memory-warm: repeat selection, stripes already hot.
    let mut mem_warm_s = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let res = fw.select(&opts);
        mem_warm_s = mem_warm_s.min(t0.elapsed().as_secs_f64());
        assert_eq!(res.stats.configs_evaluated, 0, "{}", w.name);
    }

    let store_entries = store.entry_count();
    assert_eq!(store.stats().corrupt, 0, "{}: clean store", w.name);
    drop(store);
    let _ = std::fs::remove_dir_all(&warm_dir);

    KernelPoint {
        name: w.name,
        cold_s,
        disk_warm_s,
        mem_warm_s,
        store_entries,
    }
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx]
}

fn stats_of(mut vals: Vec<f64>) -> (f64, f64, f64, f64, f64) {
    vals.sort_by(f64::total_cmp);
    (
        percentile(&vals, 0.0),
        percentile(&vals, 0.25),
        percentile(&vals, 0.5),
        percentile(&vals, 0.75),
        percentile(&vals, 1.0),
    )
}

fn metric_json(o: &mut json::Obj, name: &str, vals: Vec<f64>) {
    let (min, p25, med, p75, max) = stats_of(vals);
    o.obj(name, |o| {
        o.f64("min_s", min, 9);
        o.f64("p25_s", p25, 9);
        o.f64("median_s", med, 9);
        o.f64("p75_s", p75, 9);
        o.f64("max_s", max, 9);
    });
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let mut workloads = cayman::workloads::full();
    if smoke {
        workloads.truncate(20);
    }
    let scratch = std::env::temp_dir().join(format!("cayman-bench-store-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).expect("create scratch dir");

    let points: Vec<KernelPoint> = workloads
        .iter()
        .enumerate()
        .map(|(i, w)| measure_kernel(w, &scratch, i))
        .collect();
    let _ = std::fs::remove_dir_all(&scratch);

    let cold_total: f64 = points.iter().map(|p| p.cold_s).sum();
    let disk_total: f64 = points.iter().map(|p| p.disk_warm_s).sum();
    let mem_total: f64 = points.iter().map(|p| p.mem_warm_s).sum();
    let entries_total: usize = points.iter().map(|p| p.store_entries).sum();
    let speedup_disk = cold_total / disk_total.max(1e-12);
    let speedup_mem = cold_total / mem_total.max(1e-12);
    println!(
        "# store over {} kernels: cold {} | disk-warm {} ({speedup_disk:.1}x) | \
         memory-warm {} ({speedup_mem:.1}x) | {entries_total} entries persisted",
        points.len(),
        fmt_duration(cold_total),
        fmt_duration(disk_total),
        fmt_duration(mem_total),
    );

    if smoke {
        assert!(
            disk_total < cold_total,
            "disk-warm total ({disk_total}s) must beat cold total ({cold_total}s)"
        );
        println!(
            "smoke mode: fronts bit-identical, disk-warm runs zero model evals; \
             BENCH_store.json left untouched"
        );
        return;
    }

    if speedup_disk < 5.0 {
        eprintln!("WARNING: disk-warm full-suite speedup {speedup_disk:.1}x below the 5x target");
    }

    let out = json::document(|o| {
        o.str("bench", "store");
        json::host(o);
        o.str(
            "note",
            "per-kernel minimum over repeated selection runs against one framework \
             (analysis excluded); cold = empty memory cache + empty DiskStore (model runs, \
             write-through), disk_warm = memory cache cleared + warm store (designs load \
             off disk, zero model evals, front asserted bit-identical), mem_warm = repeat \
             selection against warm stripes",
        );
        o.u64("kernels_measured", points.len() as u64);
        o.u64("store_entries_total", entries_total as u64);
        metric_json(o, "cold", points.iter().map(|p| p.cold_s).collect());
        metric_json(
            o,
            "disk_warm",
            points.iter().map(|p| p.disk_warm_s).collect(),
        );
        metric_json(o, "mem_warm", points.iter().map(|p| p.mem_warm_s).collect());
        o.f64("cold_total_s", cold_total, 6);
        o.f64("disk_warm_total_s", disk_total, 6);
        o.f64("mem_warm_total_s", mem_total, 6);
        o.f64("speedup_disk_warm_total", speedup_disk, 1);
        o.f64("speedup_mem_warm_total", speedup_mem, 1);
        o.arr("slowest_disk_warm", |a| {
            let mut by_disk: Vec<&KernelPoint> = points.iter().collect();
            by_disk.sort_by(|x, y| y.disk_warm_s.total_cmp(&x.disk_warm_s));
            for p in by_disk.iter().take(5) {
                a.obj(|o| {
                    o.str("name", p.name);
                    o.f64("cold_s", p.cold_s, 9);
                    o.f64("disk_warm_s", p.disk_warm_s, 9);
                    o.f64("mem_warm_s", p.mem_warm_s, 9);
                    o.u64("store_entries", p.store_entries as u64);
                });
            }
        });
    });
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_store.json");
    std::fs::write(&path, out).expect("write BENCH_store.json");
    println!("wrote {}", path.display());
}
