//! Differential proof that the default pre-decoded profiling engine is
//! observationally identical to the reference tree walker on every
//! benchmark of the evaluation — bit-identical block counts, cycle totals
//! and return values under realistic inputs — and on error paths.

use cayman_ir::builder::ModuleBuilder;
use cayman_ir::interp::{ExecProfile, Interp, Value};
use cayman_ir::{Module, Type};

fn values_bit_equal(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::F(x)), Some(Value::F(y))) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    }
}

fn assert_profiles_identical(name: &str, d: &ExecProfile, r: &ExecProfile) {
    assert_eq!(
        d.block_counts, r.block_counts,
        "{name}: block counts diverge"
    );
    assert_eq!(d.total_cycles, r.total_cycles, "{name}: cycles diverge");
    assert!(
        values_bit_equal(&d.return_value, &r.return_value),
        "{name}: return values diverge: {:?} vs {:?}",
        d.return_value,
        r.return_value
    );
}

/// Every benchmark's decoded profile is bit-identical to the
/// walker's under the same realistic memory image.
#[test]
fn decoded_engine_matches_walker_on_all_benchmarks() {
    for w in cayman_workloads::all() {
        let mut dec = Interp::new(&w.module);
        dec.memory = w.memory();
        let dp = dec
            .run(&[])
            .unwrap_or_else(|e| panic!("{}: decoded run failed: {e}", w.name));

        let mut walk = Interp::reference(&w.module);
        walk.memory = w.memory();
        let rp = walk.run(&[]).expect("reference run succeeds");

        assert_profiles_identical(w.name, &dp, &rp);
        assert!(dp.blocks_executed() > 0, "{}: nothing executed", w.name);
    }
}

fn run_both(
    m: &Module,
    limit: Option<u64>,
) -> (Result<ExecProfile, String>, Result<ExecProfile, String>) {
    let mut dec = Interp::new(m);
    let mut walk = Interp::reference(m);
    if let Some(l) = limit {
        dec = dec.with_step_limit(l);
        walk = walk.with_step_limit(l);
    }
    (
        dec.run(&[]).map_err(|e| e.message),
        walk.run(&[]).map_err(|e| e.message),
    )
}

/// Division by zero errors identically under both engines.
#[test]
fn division_by_zero_errors_identically() {
    let mut mb = ModuleBuilder::new("t");
    mb.function("main", &[], Some(Type::I64), |fb| {
        let one = fb.iconst(1);
        let zero = fb.iconst(0);
        let q = fb.sdiv(one, zero);
        fb.ret(Some(q));
    });
    let m = mb.finish();
    m.verify().expect("verifies");
    let (d, r) = run_both(&m, None);
    let de = d.expect_err("decoded errors");
    let re = r.expect_err("walker errors");
    assert_eq!(de, re);
    assert!(de.contains("division by zero"), "{de}");
}

/// Out-of-bounds indexing errors identically — same message, same blamed
/// dimension and array.
#[test]
fn out_of_bounds_access_errors_identically() {
    let mut mb = ModuleBuilder::new("t");
    let a = mb.array("A", Type::F64, &[4, 3]);
    mb.function("main", &[], None, |fb| {
        fb.counted_loop(0, 10, 1, |fb, i| {
            let v = fb.load_idx(a, &[i, i]);
            fb.store_idx(a, &[i, i], v);
        });
        fb.ret(None);
    });
    let m = mb.finish();
    m.verify().expect("verifies");
    let (d, r) = run_both(&m, None);
    let de = d.expect_err("decoded errors");
    let re = r.expect_err("walker errors");
    assert_eq!(de, re);
    assert!(de.contains("out of bounds") && de.contains("`A`"), "{de}");
}

/// Step-limit exhaustion triggers at the identical step under both engines.
#[test]
fn step_limit_errors_identically() {
    let mut mb = ModuleBuilder::new("t");
    mb.function("main", &[], Some(Type::I64), |fb| {
        let zero = fb.iconst(0);
        let f = fb.counted_loop_carry(0, 1_000_000, 1, &[(Type::I64, zero)], |fb, i, c| {
            vec![fb.add(c[0], i)]
        });
        fb.ret(Some(f[0]));
    });
    let m = mb.finish();
    m.verify().expect("verifies");
    for limit in [1, 7, 100, 12_345] {
        let (d, r) = run_both(&m, Some(limit));
        let de = d.expect_err("decoded hits the limit");
        let re = r.expect_err("walker hits the limit");
        assert_eq!(de, re, "limit {limit}");
        assert!(de.contains("step limit exceeded"), "{de}");
    }
    // With a generous limit both succeed identically.
    let (d, r) = run_both(&m, Some(100_000_000));
    assert_profiles_identical("sum", &d.expect("runs"), &r.expect("runs"));
}

/// Entry-arity mismatches error identically (the check runs before either
/// engine dispatches).
#[test]
fn entry_arity_errors_identically() {
    let mut mb = ModuleBuilder::new("t");
    mb.function("main", &[Type::I64], Some(Type::I64), |fb| {
        let p = fb.param(0);
        fb.ret(Some(p));
    });
    let m = mb.finish();
    m.verify().expect("verifies");
    let (d, r) = run_both(&m, None);
    let de = d.expect_err("decoded rejects missing args");
    let re = r.expect_err("walker rejects missing args");
    assert_eq!(de, re);
    assert!(de.contains("expects 1 args, got 0"), "{de}");
}
