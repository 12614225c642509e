//! Ablation study: how much each of Cayman's mechanisms contributes.
//!
//! For a representative benchmark per suite, the 65%-budget speedup is
//! reported with mechanisms removed one at a time:
//!
//! * **full** — the complete model,
//! * **−interfaces** — coupled-only (the paper's own Fig. 6 ablation),
//! * **−unroll** — unroll factors restricted to {1} (no partial-sum
//!   reductions, no inner unrolling),
//! * **−duplication** — duplication factors restricted to {1} (no parallel
//!   pipeline instances from outer-loop unrolling),
//! * **−merging** — area saving set aside (speedup unchanged; reported as
//!   the area delta instead).
//!
//! ```text
//! cargo run --release -p cayman-bench --bin ablation [-- -O0|-O1|-O2] [--json] [benchmark...]
//! ```
//!
//! Positional arguments restrict the study to the named picks; `--json`
//! emits one machine-readable document on stdout instead of the table.

use cayman::{Framework, ModelOptions, SelectOptions, CVA6_TILE_AREA};
use cayman_bench::{framework_for, json, BenchArgs};

const PICKS: [&str; 6] = ["3mm", "atax", "jacobi-2d", "spmv", "epic", "nnet-test"];

fn speedup_with(fw: &Framework, model: ModelOptions) -> f64 {
    let opts = SelectOptions {
        model,
        ..Default::default()
    };
    let sel = fw.select(&opts);
    fw.speedup(sel.best_under(0.65 * CVA6_TILE_AREA))
}

/// Repeat run of the full model: every `accel(v, R)` hits the design cache
/// warmed by the `full` pass, so this measures the DP itself.
fn warm_rerun(fw: &Framework) -> cayman::SelectionResult {
    fw.select(&SelectOptions::default())
}

struct AblationRow {
    name: &'static str,
    full: f64,
    no_iface: f64,
    no_unroll: f64,
    no_dup: f64,
    merge_save: f64,
    cache_hits: u64,
    cache_misses: u64,
    warm_stats: String,
    cache_len: usize,
}

fn main() {
    let args = BenchArgs::parse();
    cayman_obs::init_from_env();

    let mut rows = Vec::new();
    for name in args.select_names(&PICKS) {
        let w = cayman::workloads::by_name(name).expect("benchmark exists");
        let fw = framework_for(&w, &args.analyse);

        // The full-model pass is the cold one: keep its result so its cache
        // counters add to the warm re-run's below.
        let full_sel = fw.select(&SelectOptions::default());
        let full = fw.speedup(full_sel.best_under(0.65 * CVA6_TILE_AREA));
        let no_iface = speedup_with(&fw, ModelOptions::coupled_only());
        let no_unroll = speedup_with(
            &fw,
            ModelOptions {
                unroll_factors: vec![1],
                ..Default::default()
            },
        );
        let no_dup = speedup_with(
            &fw,
            ModelOptions {
                duplication_factors: vec![1],
                ..Default::default()
            },
        );
        let sel = warm_rerun(&fw);
        let merge_save = fw.report(&sel, 0.65).area_saving_pct;

        rows.push(AblationRow {
            name,
            full,
            no_iface,
            no_unroll,
            no_dup,
            merge_save,
            // the full-model cold pass and its warm re-run share cache keys
            cache_hits: full_sel.stats.cache_hits + sel.stats.cache_hits,
            cache_misses: full_sel.stats.cache_misses + sel.stats.cache_misses,
            warm_stats: sel.stats.to_string(),
            cache_len: fw.cache_len(),
        });
    }

    if args.json {
        let doc = json::document(|o| {
            o.str("bench", "ablation");
            o.str("opt_level", &args.analyse.opt_level.to_string());
            o.f64("budget", 0.65, 2);
            o.arr("rows", |a| {
                for r in &rows {
                    a.obj(|o| {
                        o.str("name", r.name);
                        o.f64("full", r.full, 2);
                        o.f64("no_iface", r.no_iface, 2);
                        o.f64("no_unroll", r.no_unroll, 2);
                        o.f64("no_dup", r.no_dup, 2);
                        o.f64("merge_save_pct", r.merge_save, 1);
                        o.u64("cache_hits", r.cache_hits);
                        o.u64("cache_misses", r.cache_misses);
                    });
                }
            });
        });
        print!("{doc}");
        cayman_bench::flush_obs_outputs();
        return;
    }

    println!(
        "{:<12} | {:>8} {:>8} {:>8} {:>8} | {:>10}",
        "benchmark", "full", "-iface", "-unroll", "-dup", "merge-save"
    );
    println!("{}", "-".repeat(66));
    for r in &rows {
        println!(
            "{:<12} | {:>7.2}x {:>7.2}x {:>7.2}x {:>7.2}x | {:>9.0}%",
            r.name, r.full, r.no_iface, r.no_unroll, r.no_dup, r.merge_save
        );
        println!(
            "{:<12} |   warm re-run {} | framework cache: {} entries, {} hits / {} misses (full runs)",
            "", r.warm_stats, r.cache_len, r.cache_hits, r.cache_misses
        );
    }
    println!();
    println!("-iface  : all accesses forced to the coupled interface");
    println!("-unroll : no inner-loop unrolling / partial-sum reductions");
    println!("-dup    : no parallel pipeline instances (outer-loop unrolling)");

    cayman_bench::flush_obs_outputs();
}
