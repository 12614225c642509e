//! Generative differential fuzzing of the full pipeline as a property test:
//! `testkit::program` modules must agree across every crossed configuration
//! (decoded vs reference interpreter, `-O0` vs `-O1`, `-O1` vs `-O2`
//! staging).
//!
//! On failure, `prop_check!` shrinks the derivation and this test prints the
//! minimal counterexample as a re-parseable text kernel — paste it into a
//! `.cir` file (or `Module::parse_text`) to replay without the generator.
//!
//! The `fuzz` binary in `cayman-bench` runs the same `diff::check_module`
//! surfaces at CI scale; this test keeps the property wired into plain
//! `cargo test` with shrinking.

use cayman_bench::diff::check_module;
use cayman_testkit::program::{arbitrary_module, arbitrary_module_with, GenOptions};
use cayman_testkit::{prop_assert, prop_check};

#[test]
fn generated_programs_agree_across_all_configurations() {
    prop_check!(cases = 32, |rng| {
        let m = arbitrary_module(rng);
        match check_module(&m) {
            Ok(_) => Ok(()),
            Err(f) => {
                prop_assert!(false, "{f}\nkernel (re-parseable):\n{}", m.to_text());
                unreachable!()
            }
        }
    });
}

#[test]
fn trapping_programs_trap_identically_on_both_engines() {
    let opts = GenOptions {
        allow_trap: true,
        ..GenOptions::default()
    };
    prop_check!(cases = 24, |rng| {
        let m = arbitrary_module_with(rng, &opts);
        match check_module(&m) {
            Ok(_) => Ok(()),
            Err(f) => {
                prop_assert!(false, "{f}\nkernel (re-parseable):\n{}", m.to_text());
                unreachable!()
            }
        }
    });
}

/// The shrinking machinery itself must hand the pipeline valid programs:
/// a shrunk replay of any seed still checks cleanly end to end.
#[test]
fn shrunk_replays_remain_valid_pipeline_inputs() {
    for seed in [3u64, 11, 29] {
        for factor in cayman_testkit::SHRINK_FACTORS {
            let m = arbitrary_module(&mut cayman_testkit::Rng::with_shrink(seed, factor));
            check_module(&m).unwrap_or_else(|e| panic!("seed {seed} factor {factor}: {e}"));
        }
    }
}
