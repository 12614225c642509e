//! `cayman-fuzz` — generative differential fuzzing of the full pipeline.
//!
//! Generates structured programs with `testkit::program` and pushes each
//! through every crossed configuration (see [`cayman_bench::diff`]): decoded
//! vs reference interpreter, `-O0` vs `-O1`, and `-O1` vs `-O2` staging (the
//! analysis shadow must not change the executed module, the profile, or
//! observable results, and must keep fronts bit-identical whenever it is a
//! no-op). Any divergence prints
//! the offending kernel as re-parseable text — after shrinking it to the
//! smallest derivation of the same seed that still fails — and exits 1.
//!
//! The run is seed-deterministic: the same `--seed`/`--count` produce the
//! same programs and the same verdicts on every platform.
//!
//! With `--incremental`, every generated program is additionally driven
//! through the incremental-vs-from-scratch differential
//! ([`cayman_bench::diff::check_incremental`]): seeded single-instruction
//! edits through one `IncrementalApp`, each step compared bit for bit
//! against a fresh `analyse → select`. `--incremental-corpus N` runs the
//! same differential over the first `N` checked-in workload kernels
//! (`0` = all of them) — the corpus-wide equivalence gate. Both report how
//! many fresh executions the slice proof answered without a run.
//!
//! ```text
//! fuzz [--seed N] [--count N] [--trap-share PCT] [--corpus-gate]
//!      [--incremental] [--incremental-corpus N] [--edits N]
//!
//!   --seed N          base seed (default 0xCA11)
//!   --count N         number of generated programs (default 50)
//!   --trap-share PCT  percent of cases generated with `allow_trap`, to
//!                     exercise the interpreter error paths (default 10)
//!   --corpus-gate     additionally parse + verify + run every checked-in
//!                     corpus kernel (fails fast on a broken .cir file)
//!   --incremental     also check incremental re-analysis equivalence on
//!                     every generated program
//!   --incremental-corpus N
//!                     check incremental equivalence over the first N
//!                     workload kernels (0 = the full 132-kernel set)
//!   --edits N         edits per incremental differential (default 3)
//! ```

use cayman_bench::diff::{check_incremental, check_module, IncCheck};
use cayman_testkit::program::{arbitrary_module_with, GenOptions};
use cayman_testkit::{Rng, SHRINK_FACTORS};

struct Args {
    seed: u64,
    count: u64,
    trap_share: u64,
    corpus_gate: bool,
    incremental: bool,
    incremental_corpus: Option<u64>,
    edits: u64,
}

fn usage() -> ! {
    eprintln!(
        "usage: fuzz [--seed N] [--count N] [--trap-share PCT] [--corpus-gate] \
             [--incremental] [--incremental-corpus N] [--edits N]"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 0xCA11,
        count: 50,
        trap_share: 10,
        corpus_gate: false,
        incremental: false,
        incremental_corpus: None,
        edits: 3,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut num = |name: &str| -> u64 {
            let Some(v) = it.next() else {
                eprintln!("{name} needs a value");
                usage();
            };
            // Accept decimal or 0x-prefixed hex seeds.
            let parsed = v
                .strip_prefix("0x")
                .map(|h| u64::from_str_radix(h, 16))
                .unwrap_or_else(|| v.parse());
            parsed.unwrap_or_else(|_| {
                eprintln!("{name}: not a number: `{v}`");
                usage();
            })
        };
        match arg.as_str() {
            "--seed" => args.seed = num("--seed"),
            "--count" => args.count = num("--count"),
            "--trap-share" => args.trap_share = num("--trap-share").min(100),
            "--corpus-gate" => args.corpus_gate = true,
            "--incremental" => args.incremental = true,
            "--incremental-corpus" => {
                args.incremental_corpus = Some(num("--incremental-corpus"));
            }
            "--edits" => args.edits = num("--edits").max(1),
            _ => {
                eprintln!("unknown argument `{arg}`");
                usage();
            }
        }
    }
    args
}

/// Derives the per-case seed. Splitmix-style mixing keeps neighbouring
/// cases decorrelated while staying reproducible from `(seed, case)`.
fn case_seed(base: u64, case: u64) -> u64 {
    Rng::new(base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64()
}

fn options_for(case: u64, trap_share: u64) -> GenOptions {
    GenOptions {
        // Trapping programs only exercise surface 1 (both engines must
        // report the identical error), so keep them a configurable minority.
        allow_trap: trap_share > 0 && case % 100 < trap_share,
        ..GenOptions::default()
    }
}

/// Re-checks a failing case at each shrink factor (most aggressive first)
/// and returns the smallest still-failing kernel with its factor and
/// failure, or `None` when only the unshrunk case fails.
fn shrink_case(
    seed: u64,
    opts: &GenOptions,
) -> Option<(f64, String, cayman_bench::diff::DiffFailure)> {
    for &factor in &SHRINK_FACTORS {
        let m = arbitrary_module_with(&mut Rng::with_shrink(seed, factor), opts);
        if let Err(f) = check_module(&m) {
            return Some((factor, m.to_text(), f));
        }
    }
    None
}

fn run_corpus_gate() -> usize {
    let ws = cayman::workloads::corpus::corpus();
    for w in &ws {
        w.module.verify().unwrap_or_else(|e| {
            eprintln!("corpus gate: {}: verification failed: {e}", w.name);
            std::process::exit(1);
        });
        let prof = w.run().unwrap_or_else(|e| {
            eprintln!("corpus gate: {}: execution failed: {e}", w.name);
            std::process::exit(1);
        });
        if prof.total_cycles == 0 {
            eprintln!("corpus gate: {}: did no work", w.name);
            std::process::exit(1);
        }
    }
    ws.len()
}

/// The corpus-wide incremental-equivalence gate: seeded single-instruction
/// edits over the first `limit` workload kernels (`0` = all 132), each step
/// compared bit for bit against from-scratch analysis. Returns the kernel
/// count and the slice proof's tally.
fn run_incremental_corpus_gate(seed: u64, limit: u64, edits: u64) -> (usize, IncCheck) {
    let mut ws = cayman::workloads::full();
    if limit > 0 {
        ws.truncate(limit as usize);
    }
    let mut tally = IncCheck::default();
    for (i, w) in ws.iter().enumerate() {
        let kseed = case_seed(seed, 0x1D00 + i as u64);
        match check_incremental(&w.module, Some(w.memory()), kseed, edits as usize) {
            Ok(check) => tally.add(&check),
            Err(f) => {
                eprintln!(
                    "incremental corpus gate: {} (seed {kseed:#018x}) diverged: {f}",
                    w.name
                );
                std::process::exit(1);
            }
        }
    }
    (ws.len(), tally)
}

fn main() {
    let args = parse_args();

    if args.corpus_gate {
        let n = run_corpus_gate();
        println!("corpus gate: {n} kernels parse, verify and run");
    }

    if let Some(limit) = args.incremental_corpus {
        let (n, proof) = run_incremental_corpus_gate(args.seed, limit, args.edits);
        println!(
            "incremental corpus gate: {n} kernels re-analyse bit-identically \
             across {} seeded edits each; slice proof answered {}/{} fresh executions; \
             select table answered {}/{} fresh states (value-only edits)",
            args.edits, proof.proved, proof.attempted, proof.select_hits, proof.fresh
        );
    }

    let mut clean = 0u64;
    let mut trapped = 0u64;
    let mut proof = IncCheck::default();
    for case in 0..args.count {
        let seed = case_seed(args.seed, case);
        let opts = options_for(case, args.trap_share);
        let m = arbitrary_module_with(&mut Rng::new(seed), &opts);
        let verdict = check_module(&m).and_then(|ok| {
            if args.incremental {
                check_incremental(&m, None, seed, args.edits as usize).map(|check| {
                    proof.add(&check);
                    ok && check.clean
                })
            } else {
                Ok(ok)
            }
        });
        match verdict {
            Ok(true) => clean += 1,
            Ok(false) => trapped += 1,
            Err(failure) => {
                eprintln!(
                    "fuzz: case {case}/{} (seed {seed:#018x}) diverged: {failure}",
                    args.count
                );
                match shrink_case(seed, &opts) {
                    Some((factor, text, small)) => {
                        eprintln!("shrunk (factor {factor}) failure: {small}");
                        eprintln!("minimal kernel (re-parseable):\n{text}");
                        eprintln!(
                            "replay: arbitrary_module_with(&mut Rng::with_shrink({seed:#018x}, \
                             {factor:?}), &opts)"
                        );
                    }
                    None => {
                        eprintln!("kernel (re-parseable):\n{}", m.to_text());
                        eprintln!(
                            "replay: arbitrary_module_with(&mut Rng::new({seed:#018x}), &opts)"
                        );
                    }
                }
                std::process::exit(1);
            }
        }
    }
    println!(
        "fuzz: {} programs agree across all configurations \
         ({clean} full pipeline, {trapped} identical-trap) [seed {:#x}]",
        args.count, args.seed
    );
    if args.incremental {
        println!(
            "fuzz: slice proof answered {}/{} fresh executions after an edit, \
             each re-run and matched; select table answered {}/{} fresh states \
             (value-only edits), each front matched",
            proof.proved, proof.attempted, proof.select_hits, proof.fresh
        );
    }
}
