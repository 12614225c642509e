//! Shared machinery for the table/figure regeneration binaries.
//!
//! Every table and figure of the paper's evaluation (§IV) has a binary in
//! `src/bin/` that regenerates it:
//!
//! * `table2` — Table II (speedups over NOVIA/QsCores at 25%/65% budgets,
//!   #SB/#PR, #C/#D/#S/#LB, merging area savings, selection runtime),
//! * `fig4`  — Fig. 4 (interface impact on sequential/pipelined/unrolled
//!   loop latency),
//! * `fig6`  — Fig. 6 (Pareto fronts for NOVIA, QsCores, coupled-only
//!   Cayman and full Cayman on four benchmarks).
//!
//! `Instant`-based benches in `benches/` (see [`harness`]) cover selection
//! scaling (the α-filter complexity claim) and the accelerator-model hot
//! paths — no external benchmark framework, so everything builds offline.

#![forbid(unsafe_code)]

use cayman::workloads::Workload;
use cayman::{
    AnalyseOptions, Framework, ModelOptions, OptLevel, SelectOptions, SelectStats, CVA6_TILE_AREA,
};
use cayman_store::DiskStore;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

pub mod diff;
pub mod harness;
pub mod json;

/// Parses the shared bench-binary CLI: an optional `-O0` / `-O1` flag
/// (default `-O1`, matching [`AnalyseOptions::default`]). Any other
/// argument prints usage and exits.
pub fn analyse_options_from_args() -> AnalyseOptions {
    let mut opts = AnalyseOptions::default();
    for arg in std::env::args().skip(1) {
        match OptLevel::parse(&arg) {
            Some(level) => opts.opt_level = level,
            None => {
                eprintln!("unknown argument `{arg}`; usage: [-O0|-O1|-O2] (default -O1)");
                std::process::exit(2);
            }
        }
    }
    opts
}

/// The shared CLI of the table-producing binaries (`table2`, `optstats`,
/// `ablation`): `-O0`/`-O1` staging, a `--json` switch for machine-readable
/// output (via [`json`]), and positional benchmark-name filters.
#[derive(Debug, Clone, Default)]
pub struct BenchArgs {
    /// Analyse staging options (`-O0` / `-O1`).
    pub analyse: AnalyseOptions,
    /// Emit one JSON document on stdout instead of the human tables.
    pub json: bool,
    /// Include the text-kernel corpus (`workloads::full()`) alongside the
    /// 28 builder benchmarks.
    pub corpus: bool,
    /// Benchmark names to restrict the run to (empty: all).
    pub filters: Vec<String>,
}

impl BenchArgs {
    /// Parses `std::env::args`; prints usage and exits on unknown flags.
    pub fn parse() -> Self {
        let mut args = BenchArgs::default();
        for arg in std::env::args().skip(1) {
            if let Some(level) = OptLevel::parse(&arg) {
                args.analyse.opt_level = level;
            } else if arg == "--json" {
                args.json = true;
            } else if arg == "--corpus" {
                args.corpus = true;
            } else if arg.starts_with('-') {
                eprintln!(
                    "unknown argument `{arg}`; usage: [-O0|-O1|-O2] [--json] [--corpus] [benchmark...]"
                );
                std::process::exit(2);
            } else {
                args.filters.push(arg);
            }
        }
        args
    }

    /// The workload set this run profiles: the 28 builder benchmarks, plus
    /// the text-kernel corpus when `--corpus` was passed.
    pub fn workload_set(&self) -> Vec<Workload> {
        if self.corpus {
            cayman::workloads::full()
        } else {
            cayman::workloads::all()
        }
    }

    /// Applies the positional benchmark-name filters to a workload list,
    /// preserving order. Exits with usage status when a filter matches no
    /// workload (a typo should not silently produce an empty table).
    pub fn select_workloads(&self, all: Vec<Workload>) -> Vec<Workload> {
        if self.filters.is_empty() {
            return all;
        }
        for f in &self.filters {
            if !all.iter().any(|w| w.name == f.as_str()) {
                eprintln!("unknown benchmark `{f}`");
                std::process::exit(2);
            }
        }
        all.into_iter()
            .filter(|w| self.filters.iter().any(|f| f.as_str() == w.name))
            .collect()
    }

    /// Keeps only names that pass the filters (for binaries with a built-in
    /// benchmark pick list).
    pub fn select_names(&self, names: &[&'static str]) -> Vec<&'static str> {
        if self.filters.is_empty() {
            return names.to_vec();
        }
        for f in &self.filters {
            if !names.contains(&f.as_str()) {
                eprintln!("unknown benchmark `{f}` (choices: {})", names.join(", "));
                std::process::exit(2);
            }
        }
        names
            .iter()
            .copied()
            .filter(|n| self.filters.iter().any(|f| f.as_str() == *n))
            .collect()
    }
}

/// Drains the trace recorder into the sinks named by the environment
/// (`CAYMAN_TRACE`, `CAYMAN_OBS_SUMMARY`) and reports
/// every written file on stderr — stdout stays machine-readable under
/// `--json`. Every bench binary calls this once before exiting.
pub fn flush_obs_outputs() {
    for (kind, path) in cayman_obs::flush_to_env() {
        eprintln!("{kind}: wrote {path}");
    }
}

/// The process-wide persistent design store named by `CAYMAN_STORE_DIR`,
/// opened once and shared by every framework this process builds — `None`
/// when the variable is unset. An unusable directory is reported once on
/// stderr and treated as unset (the store is an optimisation layer; a bad
/// path must not take a table run down).
pub fn env_design_store() -> Option<Arc<DiskStore>> {
    static STORE: OnceLock<Option<Arc<DiskStore>>> = OnceLock::new();
    STORE
        .get_or_init(|| match DiskStore::from_env() {
            Some(Ok(store)) => Some(Arc::new(store)),
            Some(Err(e)) => {
                eprintln!(
                    "{}: cannot open design store: {e}",
                    cayman_store::STORE_DIR_ENV
                );
                None
            }
            None => None,
        })
        .clone()
}

/// Builds the framework every bench binary uses: analyse the workload, then
/// back its design cache with the [`env_design_store`] when one is
/// configured — a second run over the same workload set is then served
/// disk-warm, with zero model evaluations.
///
/// # Panics
///
/// Panics if the workload fails to verify or execute (CI runs every
/// workload; a failure here is a kernel bug).
pub fn framework_for(w: &Workload, analyse: &AnalyseOptions) -> Framework {
    let mut fw = Framework::from_workload_with(w, analyse).expect("workload analyses");
    if let Some(store) = env_design_store() {
        fw.set_design_store(store as _);
    }
    fw
}

/// One benchmark's Table II row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Suite label.
    pub suite: String,
    /// Benchmark name.
    pub name: String,
    /// Per-budget numbers, in `BUDGETS` order.
    pub budgets: Vec<BudgetNumbers>,
    /// Cayman selection wall-clock runtime in seconds (cold design cache).
    pub runtime_s: f64,
    /// Selection runtime of a repeat run against the warm design cache.
    pub runtime_warm_s: f64,
    /// Observability snapshot of the warm run (cache hit rate and
    /// search-space counters).
    pub stats: SelectStats,
    /// Observability snapshot of the cold run.
    pub cold_stats: SelectStats,
    /// Memoised candidate entries in the design cache after all of the
    /// row's selection runs (Cayman and both baselines).
    pub cache_entries: usize,
}

/// The per-budget column group of Table II.
#[derive(Debug, Clone)]
pub struct BudgetNumbers {
    /// Budget fraction of a CVA6 tile.
    pub budget: f64,
    /// Cayman speedup ÷ NOVIA speedup.
    pub over_novia: f64,
    /// Cayman speedup ÷ QsCores speedup.
    pub over_qscores: f64,
    /// Cayman's own Eq.-(1) speedup.
    pub cayman_speedup: f64,
    /// Sequential basic blocks.
    pub sb: usize,
    /// Pipelined regions.
    pub pr: usize,
    /// Coupled interfaces.
    pub c: usize,
    /// Decoupled interfaces.
    pub d: usize,
    /// Scratchpad-family interfaces (plain, banked, double-buffered).
    pub s: usize,
    /// Line-buffer interfaces.
    pub lb: usize,
    /// Merging area saving, percent.
    pub area_saving_pct: f64,
    /// Average regions per reusable accelerator.
    pub avg_regions_per_reusable: f64,
}

/// The paper's two area budgets (§IV-B).
pub const BUDGETS: [f64; 2] = [0.25, 0.65];

/// Runs the full Table II protocol on one workload.
///
/// # Panics
///
/// Panics if the workload fails to verify or execute (CI runs every
/// workload; a failure here is a kernel bug).
pub fn table2_row(w: &Workload) -> Table2Row {
    table2_row_with(w, &AnalyseOptions::default())
}

/// [`table2_row`] with explicit analyse staging options (`-O0` / `-O1`).
///
/// # Panics
///
/// Panics if the workload fails to verify or execute.
pub fn table2_row_with(w: &Workload, analyse: &AnalyseOptions) -> Table2Row {
    let fw = framework_for(w, analyse);
    let opts = SelectOptions::default();

    let t0 = Instant::now();
    let cayman = fw.select(&opts);
    let runtime_s = t0.elapsed().as_secs_f64();

    // Repeat against the framework's now-warm design cache: `accel(v, R)` is
    // answered from memoised designs, so this isolates the DP's own cost.
    let t1 = Instant::now();
    let warm = fw.select(&opts);
    let runtime_warm_s = t1.elapsed().as_secs_f64();

    let novia = fw.select_novia(&opts);
    let qscores = fw.select_qscores(&opts);

    let budgets = BUDGETS
        .iter()
        .map(|&b| {
            let budget = b * CVA6_TILE_AREA;
            let rep = fw.report(&cayman, b);
            let sp_n = fw.speedup(novia.best_under(budget));
            let sp_q = fw.speedup(qscores.best_under(budget));
            BudgetNumbers {
                budget: b,
                over_novia: rep.speedup / sp_n,
                over_qscores: rep.speedup / sp_q,
                cayman_speedup: rep.speedup,
                sb: rep.sb,
                pr: rep.pr,
                c: rep.c,
                d: rep.d,
                s: rep.s,
                lb: rep.lb,
                area_saving_pct: rep.area_saving_pct,
                avg_regions_per_reusable: rep.avg_regions_per_reusable,
            }
        })
        .collect();

    Table2Row {
        suite: w.suite.to_string(),
        name: w.name.to_string(),
        budgets,
        runtime_s,
        runtime_warm_s,
        stats: warm.stats,
        cold_stats: cayman.stats.clone(),
        cache_entries: fw.cache_len(),
    }
}

/// Computes Table II rows for many workloads on up to `threads` worker
/// threads (scoped threads, no external dependencies). Each row builds its
/// own [`Framework`], so rows are fully independent; results come back in
/// workload order regardless of which thread finished first.
pub fn table2_rows(workloads: &[Workload], threads: usize) -> Vec<Table2Row> {
    table2_rows_with(workloads, threads, &AnalyseOptions::default())
}

/// [`table2_rows`] with explicit analyse staging options (`-O0` / `-O1`).
pub fn table2_rows_with(
    workloads: &[Workload],
    threads: usize,
    analyse: &AnalyseOptions,
) -> Vec<Table2Row> {
    let threads = threads.max(1).min(workloads.len().max(1));
    if threads == 1 {
        return workloads
            .iter()
            .map(|w| table2_row_with(w, analyse))
            .collect();
    }
    let mut indexed: Vec<(usize, Table2Row)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                scope.spawn(move || {
                    workloads
                        .iter()
                        .enumerate()
                        .skip(t)
                        .step_by(threads)
                        .map(|(i, w)| (i, table2_row_with(w, analyse)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("table2 worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Computes the arithmetic-mean summary row over a set of rows.
pub fn average_row(rows: &[Table2Row]) -> Table2Row {
    let n = rows.len().max(1) as f64;
    let budgets = (0..BUDGETS.len())
        .map(|bi| {
            let get = |f: &dyn Fn(&BudgetNumbers) -> f64| -> f64 {
                rows.iter().map(|r| f(&r.budgets[bi])).sum::<f64>() / n
            };
            BudgetNumbers {
                budget: BUDGETS[bi],
                over_novia: get(&|b| b.over_novia),
                over_qscores: get(&|b| b.over_qscores),
                cayman_speedup: get(&|b| b.cayman_speedup),
                sb: (get(&|b| b.sb as f64)).round() as usize,
                pr: (get(&|b| b.pr as f64)).round() as usize,
                c: (get(&|b| b.c as f64)).round() as usize,
                d: (get(&|b| b.d as f64)).round() as usize,
                s: (get(&|b| b.s as f64)).round() as usize,
                lb: (get(&|b| b.lb as f64)).round() as usize,
                area_saving_pct: get(&|b| b.area_saving_pct),
                avg_regions_per_reusable: get(&|b| b.avg_regions_per_reusable),
            }
        })
        .collect();
    let merge = |pick: &dyn Fn(&Table2Row) -> &SelectStats| -> SelectStats {
        let mut stats = SelectStats::default();
        for r in rows {
            let s = pick(r);
            stats.visited += s.visited;
            stats.pruned += s.pruned;
            stats.configs_considered += s.configs_considered;
            stats.configs_evaluated += s.configs_evaluated;
            stats.cache_hits += s.cache_hits;
            stats.disk_hits += s.disk_hits;
            stats.cache_misses += s.cache_misses;
        }
        stats
    };
    Table2Row {
        suite: String::new(),
        name: "average".into(),
        budgets,
        runtime_s: rows.iter().map(|r| r.runtime_s).sum::<f64>() / n,
        runtime_warm_s: rows.iter().map(|r| r.runtime_warm_s).sum::<f64>() / n,
        stats: merge(&|r| &r.stats),
        cold_stats: merge(&|r| &r.cold_stats),
        cache_entries: rows.iter().map(|r| r.cache_entries).sum(),
    }
}

/// One (area, speedup) Pareto point for Fig. 6.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoPoint {
    /// Area as a fraction of the CVA6 tile.
    pub area_frac: f64,
    /// Application speedup.
    pub speedup: f64,
}

/// The four Fig. 6 series for one benchmark.
#[derive(Debug, Clone)]
pub struct Fig6Series {
    /// Benchmark name.
    pub name: String,
    /// NOVIA Pareto front.
    pub novia: Vec<ParetoPoint>,
    /// QsCores Pareto front.
    pub qscores: Vec<ParetoPoint>,
    /// Coupled-only Cayman front (ablation).
    pub cayman_coupled: Vec<ParetoPoint>,
    /// Full Cayman front.
    pub cayman_full: Vec<ParetoPoint>,
}

/// Computes all four Fig. 6 fronts for one workload.
///
/// # Panics
///
/// Panics if the workload fails to analyse.
pub fn fig6_series(w: &Workload) -> Fig6Series {
    let fw = framework_for(w, &AnalyseOptions::default());
    let opts = SelectOptions::default();
    let coupled_opts = SelectOptions {
        model: ModelOptions::coupled_only(),
        ..Default::default()
    };
    let front = |res: &cayman::SelectionResult| -> Vec<ParetoPoint> {
        res.pareto
            .iter()
            .map(|s| ParetoPoint {
                area_frac: s.area / CVA6_TILE_AREA,
                speedup: fw.speedup(s),
            })
            .collect()
    };
    Fig6Series {
        name: w.name.to_string(),
        novia: front(&fw.select_novia(&opts)),
        qscores: front(&fw.select_qscores(&opts)),
        cayman_coupled: front(&fw.select(&coupled_opts)),
        cayman_full: front(&fw.select(&opts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_row_for_a_small_benchmark() {
        let w = cayman::workloads::by_name("trisolv").expect("exists");
        let row = table2_row(&w);
        assert_eq!(row.budgets.len(), 2);
        for b in &row.budgets {
            assert!(b.cayman_speedup >= 1.0);
            assert!(b.over_novia >= 1.0, "cayman ≥ novia: {}", b.over_novia);
            assert!(
                b.over_qscores >= 1.0,
                "cayman ≥ qscores: {}",
                b.over_qscores
            );
        }
        // 65% budget can never be worse than 25%
        assert!(row.budgets[1].cayman_speedup >= row.budgets[0].cayman_speedup);
    }

    #[test]
    fn table2_row_reports_cache_effect() {
        let w = cayman::workloads::by_name("trisolv").expect("exists");
        let row = table2_row(&w);
        // the warm repeat run must be fully memoised…
        assert!(row.stats.cache_hit_rate() > 0.0, "{}", row.stats);
        assert_eq!(row.stats.cache_misses, 0, "{}", row.stats);
        assert_eq!(row.stats.configs_evaluated, 0, "model skipped when warm");
        // …and observability fields populated
        assert!(row.runtime_s > 0.0 && row.runtime_warm_s > 0.0);
    }

    #[test]
    fn parallel_rows_match_sequential_and_preserve_order() {
        let names = ["trisolv", "bicg", "mvt"];
        let workloads: Vec<_> = names
            .iter()
            .map(|n| cayman::workloads::by_name(n).expect("exists"))
            .collect();
        let seq = table2_rows(&workloads, 1);
        let par = table2_rows(&workloads, 3);
        assert_eq!(seq.len(), par.len());
        for (s, p) in seq.iter().zip(&par) {
            assert_eq!(s.name, p.name, "row order preserved");
            for (sb, pb) in s.budgets.iter().zip(&p.budgets) {
                assert_eq!(sb.cayman_speedup.to_bits(), pb.cayman_speedup.to_bits());
                assert_eq!(sb.sb, pb.sb);
                assert_eq!(sb.pr, pb.pr);
            }
        }
    }

    #[test]
    fn fig6_fronts_are_monotone() {
        let w = cayman::workloads::by_name("bicg").expect("exists");
        let s = fig6_series(&w);
        for front in [&s.novia, &s.qscores, &s.cayman_coupled, &s.cayman_full] {
            for pair in front.windows(2) {
                assert!(pair[1].area_frac >= pair[0].area_frac);
                assert!(pair[1].speedup >= pair[0].speedup);
            }
        }
        // full Cayman's best point beats coupled-only's best
        let best = |f: &[ParetoPoint]| f.last().map(|p| p.speedup).unwrap_or(1.0);
        assert!(best(&s.cayman_full) >= best(&s.cayman_coupled));
        assert!(best(&s.cayman_full) > best(&s.novia));
    }

    #[test]
    fn average_row_averages() {
        let w = cayman::workloads::by_name("trisolv").expect("exists");
        let r = table2_row(&w);
        let avg = average_row(&[r.clone(), r.clone()]);
        assert!((avg.budgets[0].cayman_speedup - r.budgets[0].cayman_speedup).abs() < 1e-9);
        assert_eq!(avg.name, "average");
    }
}
