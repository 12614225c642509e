//! Regenerates **Table II**: results under the 25% and 65% area budgets for
//! all 28 benchmarks — Cayman's speedup over NOVIA and QsCores, selected
//! kernel configuration counts (#SB, #PR), interface counts (#C, #D, #S, #LB),
//! accelerator-merging area savings, and selection runtime.
//!
//! Rows are computed in parallel, one framework per benchmark, on one
//! scoped thread per available core; the numbers are the same as a
//! sequential run's.
//!
//! ```text
//! cargo run --release -p cayman-bench --bin table2 [-- -O0|-O1|-O2] [--json] [benchmark...]
//! ```
//!
//! `-O1` (the default) normalizes each module through the IR transform
//! pipeline before profiling; `-O0` analyses modules exactly as built.
//! Positional arguments restrict the run to the named benchmarks; `--json`
//! emits one machine-readable document on stdout instead of the table.
//! Set `CAYMAN_TRACE=out.json` to capture a Chrome trace of the whole run.

use cayman_bench::{average_row, json, table2_rows_with, BenchArgs, Table2Row};

fn print_row(r: &Table2Row) {
    let b0 = &r.budgets[0];
    let b1 = &r.budgets[1];
    println!(
        "{:<6} {:<26} | {:>7.1} {:>7.1} {:>7.1} | {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>5.0} | {:>7.1} {:>7.1} {:>7.1} | {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>5.0} | {:>8.2} {:>8.2} {:>5.0}",
        r.suite,
        r.name,
        b0.over_novia,
        b0.over_qscores,
        b0.cayman_speedup,
        b0.sb,
        b0.pr,
        b0.c,
        b0.d,
        b0.s,
        b0.lb,
        b0.area_saving_pct,
        b1.over_novia,
        b1.over_qscores,
        b1.cayman_speedup,
        b1.sb,
        b1.pr,
        b1.c,
        b1.d,
        b1.s,
        b1.lb,
        b1.area_saving_pct,
        r.runtime_s * 1e3,
        r.runtime_warm_s * 1e3,
        r.stats.cache_hit_rate() * 100.0,
    );
}

fn json_row(o: &mut json::Obj, r: &Table2Row) {
    o.str("suite", &r.suite);
    o.str("name", &r.name);
    o.f64("runtime_s", r.runtime_s, 6);
    o.f64("runtime_warm_s", r.runtime_warm_s, 6);
    o.f64("cache_hit_rate", r.stats.cache_hit_rate(), 3);
    // design-cache lookups of the row's Cayman runs (cold + warm)
    let (cold, warm) = (&r.cold_stats, &r.stats);
    o.obj("cache", |o| {
        o.u64("hits", cold.cache_hits + warm.cache_hits);
        o.u64("misses", cold.cache_misses + warm.cache_misses);
        o.u64("disk_hits", cold.disk_hits + warm.disk_hits);
        o.u64("entries", r.cache_entries as u64);
    });
    o.arr("budgets", |a| {
        for b in &r.budgets {
            a.obj(|o| {
                o.f64("budget", b.budget, 2);
                o.f64("over_novia", b.over_novia, 2);
                o.f64("over_qscores", b.over_qscores, 2);
                o.f64("cayman_speedup", b.cayman_speedup, 2);
                o.u64("sb", b.sb as u64);
                o.u64("pr", b.pr as u64);
                o.u64("c", b.c as u64);
                o.u64("d", b.d as u64);
                o.u64("s", b.s as u64);
                o.u64("lb", b.lb as u64);
                o.f64("area_saving_pct", b.area_saving_pct, 1);
                o.f64("avg_regions_per_reusable", b.avg_regions_per_reusable, 2);
            });
        }
    });
}

fn main() {
    let args = BenchArgs::parse();
    cayman_obs::init_from_env();

    let threads = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let workloads = args.select_workloads(cayman::workloads::all());
    let rows = table2_rows_with(&workloads, threads, &args.analyse);
    let avg = average_row(&rows);

    if args.json {
        let doc = json::document(|o| {
            o.str("bench", "table2");
            o.str("opt_level", &args.analyse.opt_level.to_string());
            o.arr("rows", |a| {
                for r in &rows {
                    a.obj(|o| json_row(o, r));
                }
            });
            o.obj("average", |o| json_row(o, &avg));
            if let Some(store) = cayman_bench::env_design_store() {
                let s = store.stats();
                o.obj("store", |o| {
                    o.str("dir", &store.dir().display().to_string());
                    o.u64("hits", s.hits);
                    o.u64("misses", s.misses);
                    o.u64("writes", s.writes);
                    o.u64("corrupt", s.corrupt);
                    o.u64("version_skew", s.version_skew);
                    o.u64("key_mismatches", s.key_mismatches);
                    o.u64("evictions", s.evictions);
                });
            }
        });
        print!("{doc}");
        cayman_bench::flush_obs_outputs();
        return;
    }

    println!(
        "Table II — results under two area budgets (25% and 65% of a CVA6 tile), -{}",
        args.analyse.opt_level
    );
    println!(
        "{:<6} {:<26} | {:>7} {:>7} {:>7} | {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>5} | {:>7} {:>7} {:>7} | {:>4} {:>4} {:>4} {:>4} {:>4} {:>4} {:>5} | {:>8} {:>8} {:>5}",
        "Suite", "Benchmark",
        "ovN25", "ovQ25", "spd25", "#SB", "#PR", "#C", "#D", "#S", "#LB", "sav%",
        "ovN65", "ovQ65", "spd65", "#SB", "#PR", "#C", "#D", "#S", "#LB", "sav%",
        "cold(ms)", "warm(ms)", "hit%"
    );
    println!("{}", "-".repeat(186));
    for row in &rows {
        print_row(row);
    }
    println!("{}", "-".repeat(186));
    print_row(&avg);

    // Selection observability: cold vs memoised re-run, aggregated.
    let cold: f64 = rows.iter().map(|r| r.runtime_s).sum();
    let warm: f64 = rows.iter().map(|r| r.runtime_warm_s).sum();
    println!();
    println!("selection stats (warm re-runs, aggregated): {}", avg.stats);
    println!(
        "design cache: cold {:.1} ms total -> warm {:.1} ms total ({:.1}x faster)",
        cold * 1e3,
        warm * 1e3,
        cold / warm.max(1e-12)
    );
    let (c, w) = (&avg.cold_stats, &avg.stats);
    println!(
        "design cache: {} entries, {} hits ({} from the store) / {} misses over cold + warm runs",
        avg.cache_entries,
        c.cache_hits + w.cache_hits,
        c.disk_hits + w.disk_hits,
        c.cache_misses + w.cache_misses,
    );
    if let Some(store) = cayman_bench::env_design_store() {
        let s = store.stats();
        println!(
            "design store {}: {} disk hits / {} misses this run, {} writes, {} corrupt, {} evicted",
            store.dir().display(),
            s.hits,
            s.misses,
            s.writes,
            s.corrupt,
            s.evictions,
        );
    }

    // The §IV-B merging claims: average regions per reusable accelerator.
    let avg_regions: f64 = rows
        .iter()
        .flat_map(|r| r.budgets.iter())
        .filter(|b| b.avg_regions_per_reusable > 0.0)
        .map(|b| b.avg_regions_per_reusable)
        .sum::<f64>()
        / rows
            .iter()
            .flat_map(|r| r.budgets.iter())
            .filter(|b| b.avg_regions_per_reusable > 0.0)
            .count()
            .max(1) as f64;
    println!();
    println!("avg regions per reusable accelerator: {avg_regions:.1} (paper: ~3)");

    cayman_bench::flush_obs_outputs();
}
