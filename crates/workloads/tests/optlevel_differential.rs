//! Differential proof that `-O1` normalization is observationally
//! equivalent to `-O0` on every benchmark of the evaluation (bit-identical
//! final memory image and return value under realistic inputs), that `-O2`
//! executes the same body on all 132 workloads, and that the `-O2` analysis
//! shadow keeps its identity contract.
//!
//! Dynamic block counts and cycle totals are *expected* to change — that is
//! the point of normalization — so only the observable outputs are compared.

use cayman_ir::interp::{Interp, Value};
use cayman_ir::transform::{normalize, OptLevel, PassManager};
use cayman_ir::{Instr, Module};
use cayman_workloads::Workload;

fn values_bit_equal(a: &Option<Value>, b: &Option<Value>) -> bool {
    match (a, b) {
        (Some(Value::F(x)), Some(Value::F(y))) => x.to_bits() == y.to_bits(),
        (x, y) => x == y,
    }
}

fn cells_bit_equal(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Value::F(x), Value::F(y)) => x.to_bits() == y.to_bits(),
            (x, y) => x == y,
        })
}

/// Normalizes `w` at `level` with the verifier green after every pass and
/// checks that the result computes a bit-identical memory image and return
/// value while executing no more dynamic instructions than the original.
/// Returns the normalized module.
fn assert_matches_o0(w: &Workload, level: OptLevel) -> Module {
    let mut raw = Interp::new(&w.module);
    raw.memory = w.memory();
    let raw_profile = raw
        .run(&[])
        .unwrap_or_else(|e| panic!("{}: -O0 run failed: {e}", w.name));
    let raw_instrs = raw_profile.dynamic_instrs(&w.module);

    let mut opt_module = w.module.clone();
    let stats = normalize(&mut opt_module, level, true)
        .unwrap_or_else(|e| panic!("{}: -{level} normalize failed: {e}", w.name));
    assert!(stats.iterations >= 1, "{}: pipeline did not run", w.name);
    opt_module
        .verify()
        .unwrap_or_else(|e| panic!("{}: normalized module broken: {e}", w.name));

    let mut opt = Interp::new(&opt_module);
    opt.memory = w.memory();
    let opt_profile = opt
        .run(&[])
        .unwrap_or_else(|e| panic!("{}: -{level} run failed: {e}", w.name));
    let opt_instrs = opt_profile.dynamic_instrs(&opt_module);

    assert!(
        values_bit_equal(&raw_profile.return_value, &opt_profile.return_value),
        "{}: return values diverge at -{level}: {:?} vs {:?}",
        w.name,
        raw_profile.return_value,
        opt_profile.return_value
    );
    assert!(
        cells_bit_equal(raw.memory.cells(), opt.memory.cells()),
        "{}: final memory diverges at -{level}",
        w.name
    );
    assert!(
        opt_instrs <= raw_instrs,
        "{}: -{level} executes more instructions ({opt_instrs} > {raw_instrs})",
        w.name
    );
    opt_module
}

/// Every benchmark of the 28-kernel evaluation set is observationally
/// equivalent to `-O0` after `-O1` normalization.
#[test]
fn o1_matches_o0_on_all_benchmarks() {
    let mut checked = 0;
    for w in cayman_workloads::all() {
        assert_matches_o0(&w, OptLevel::O1);
        checked += 1;
    }
    assert_eq!(checked, 28, "expected the full 28-benchmark evaluation set");
}

/// `-O2` executes the `-O1` body: on the full 132-kernel workload set,
/// normalizing at `-O2` yields exactly the `-O1` module, and that module is
/// observationally equivalent to `-O0`.
#[test]
fn o2_matches_o0_on_all_workloads() {
    let mut checked = 0;
    for w in cayman_workloads::full() {
        let o2 = assert_matches_o0(&w, OptLevel::O2);
        let mut o1 = w.module.clone();
        normalize(&mut o1, OptLevel::O1, false)
            .unwrap_or_else(|e| panic!("{}: -O1 normalize failed: {e}", w.name));
        assert!(
            o1 == o2,
            "{}: -O2 executes a different body than -O1",
            w.name
        );
        checked += 1;
    }
    assert_eq!(checked, 132, "expected the full 132-kernel workload set");
}

/// The shadow pipeline ([`PassManager::address_canon`]) keeps its
/// identity-preservation contract on every workload: same arena sizes, same
/// blocks and terminators, every memory/phi/call instruction untouched and
/// in its original block — and the module still computes the same thing.
#[test]
fn address_canon_preserves_identity_on_all_workloads() {
    for w in cayman_workloads::full() {
        let mut o1 = w.module.clone();
        normalize(&mut o1, OptLevel::O1, false).expect("O1 normalize");
        let base = o1.clone();
        for func in &mut o1.functions {
            PassManager::address_canon()
                .verify_each_pass(true)
                .run(&base, func)
                .unwrap_or_else(|e| panic!("{}: address_canon failed: {e}", w.name));
        }

        assert_eq!(base.functions.len(), o1.functions.len());
        for (bf, sf) in base.functions.iter().zip(&o1.functions) {
            assert_eq!(bf.instrs.len(), sf.instrs.len(), "{}: arena grew", w.name);
            assert_eq!(bf.values.len(), sf.values.len(), "{}: values grew", w.name);
            assert_eq!(bf.blocks.len(), sf.blocks.len(), "{}: blocks", w.name);
            for (bb, sb) in bf.blocks.iter().zip(&sf.blocks) {
                assert_eq!(bb.term, sb.term, "{}: terminator changed", w.name);
            }
            for (i, instr) in bf.instrs.iter().enumerate() {
                let pinned = !matches!(
                    instr,
                    Instr::Binary { .. }
                        | Instr::Unary { .. }
                        | Instr::Cmp { .. }
                        | Instr::Select { .. }
                );
                if pinned {
                    let iid = cayman_ir::InstrId(i as u32);
                    assert_eq!(instr, &sf.instrs[i], "{}: pinned instr rewritten", w.name);
                    assert_eq!(
                        bf.containing_block(iid),
                        sf.containing_block(iid),
                        "{}: pinned instr moved blocks",
                        w.name
                    );
                }
            }
        }

        // Same observables as the O1 module it shadows.
        let mut a = Interp::new(&base);
        a.memory = w.memory();
        let pa = a.run(&[]).expect("O1 runs");
        let mut b = Interp::new(&o1);
        b.memory = w.memory();
        let pb = b.run(&[]).expect("shadow runs");
        assert!(
            values_bit_equal(&pa.return_value, &pb.return_value),
            "{}: shadow return diverges",
            w.name
        );
        assert!(
            cells_bit_equal(a.memory.cells(), b.memory.cells()),
            "{}: shadow memory diverges",
            w.name
        );
    }
}

/// Normalization is idempotent: a second `-O1` run changes nothing.
#[test]
fn normalization_is_idempotent() {
    for w in cayman_workloads::all() {
        let mut m = w.module.clone();
        normalize(&mut m, OptLevel::O1, false).expect("first run");
        let stats = normalize(&mut m, OptLevel::O1, true).expect("second run");
        assert_eq!(
            stats.total_changes(),
            0,
            "{}: second normalize still changed the module",
            w.name
        );
    }
}

/// `-O0` is the identity.
#[test]
fn o0_is_identity() {
    let w = &cayman_workloads::all()[0];
    let mut m = w.module.clone();
    let stats = normalize(&mut m, OptLevel::O0, true).expect("O0 never fails");
    assert_eq!(stats.iterations, 0);
    assert_eq!(m, w.module);
}
