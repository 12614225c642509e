//! Structured-program generation: random but *valid* IR modules with
//! controllable shape, for differential fuzzing of the whole pipeline.
//!
//! The generator draws from a statement grammar and builds through
//! [`cayman_ir::builder`], so every emitted module is well-formed SSA by
//! construction (and [`Module::verify`]-clean — pinned by the unit tests):
//!
//! ```text
//! program  := arrays¹⁻³ [matrix] [helper] main
//! main     := init-loops body… checksum ret
//! body     := stmt{1..max_stmts}
//! stmt     := loop-nest | state-machine | diamond | triangle
//!           | float-chain | array-update
//! loop-nest     := for i in 0..trip carrying f64s { body }   (may nest)
//! state-machine := for i { state := branch-ladder(state, A[idx]) }
//! diamond  := v := if cmp { chain } else { chain }           (phi merge)
//! triangle := if cmp { store }
//! index    := (a·i + b [+ helper(i)]) mod dim                (gep-safe)
//! ```
//!
//! Programs always terminate (all loops are counted with constant trips),
//! never index out of bounds (every gep index is reduced `mod` the array
//! dimension and built from non-negative terms), and — unless
//! [`GenOptions::allow_trap`] is set — never divide by zero, so they run
//! cleanly under both interpreter engines and the full analyse→select
//! pipeline.
//!
//! Generation is **seed-deterministic**: one module is a pure function of
//! the [`Rng`] stream and the options. Draw ranges put the simplest shape at
//! the low end and optional features behind [`Rng::bool`], so
//! [`crate::prop_check!`] shrinking narrows a failing program toward a
//! minimal counterexample; print it with [`Module::to_text`] and it replays
//! through `Module::parse_text` as a standalone text kernel.

use crate::Rng;
use cayman_ir::builder::{FunctionBuilder, ModuleBuilder};
use cayman_ir::{ArrayId, FuncId, Module, Operand, Type};

/// Shape limits for [`arbitrary_module_with`].
#[derive(Debug, Clone)]
pub struct GenOptions {
    /// Maximum number of 1-D `f64` arrays (at least 1 is always declared).
    pub max_arrays: usize,
    /// Maximum control-flow nesting depth (loops and branches combined).
    pub max_depth: usize,
    /// Maximum trip count of any generated loop.
    pub max_trip: i64,
    /// Maximum statements drawn per body block.
    pub max_stmts: usize,
    /// Permit a possibly-zero constant divisor feeding `sdiv` — exercises
    /// the interpreter error path, so generated programs may trap. Leave
    /// off when the program must survive analyse→select.
    pub allow_trap: bool,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions {
            max_arrays: 3,
            max_depth: 3,
            max_trip: 6,
            max_stmts: 3,
            allow_trap: false,
        }
    }
}

/// Everything the statement grammar can reference at one program point.
/// Cloned when entering a nested body, so values born inside a loop or
/// branch arm never leak past their dominance region.
#[derive(Clone)]
struct Scope {
    /// In-scope non-negative `i64` values (induction variables).
    ivs: Vec<Operand>,
    /// In-scope `f64` values.
    fvals: Vec<Operand>,
}

struct Env {
    /// 1-D `f64` arrays with their lengths.
    arrays: Vec<(ArrayId, i64)>,
    /// Optional 2-D `f64` array with its dimensions.
    matrix: Option<(ArrayId, i64, i64)>,
    /// Optional `i64 → i64` helper (non-negative preserving).
    helper: Option<FuncId>,
    opts: GenOptions,
    /// Remaining statement budget, bounding total module size.
    budget: usize,
}

/// A random module drawn with [`GenOptions::default`].
pub fn arbitrary_module(rng: &mut Rng) -> Module {
    arbitrary_module_with(rng, &GenOptions::default())
}

/// A random module with explicit shape limits. The result verifies, its
/// `main() -> f64` terminates on every input, and (without
/// [`GenOptions::allow_trap`]) it runs error-free on zeroed memory.
pub fn arbitrary_module_with(rng: &mut Rng, opts: &GenOptions) -> Module {
    let mut mb = ModuleBuilder::new("fuzz");

    let n_arrays = rng.range_usize(1, opts.max_arrays.max(1) + 1);
    let arrays: Vec<(ArrayId, i64)> = (0..n_arrays)
        .map(|k| {
            let size = rng.range_usize(4, 17) as i64;
            (mb.array(format!("a{k}"), Type::F64, &[size as usize]), size)
        })
        .collect();
    let matrix = rng.bool().then(|| {
        let r = rng.range_usize(3, 9) as i64;
        let c = rng.range_usize(3, 9) as i64;
        (mb.array("m0", Type::F64, &[r as usize, c as usize]), r, c)
    });
    let helper = rng.bool().then(|| {
        let mul = rng.range_i64(1, 4);
        let add = rng.range_i64(0, 3);
        mb.function("helper", &[Type::I64], Some(Type::I64), |fb| {
            let p = fb.param(0);
            let m = fb.iconst(mul);
            let a = fb.iconst(add);
            let t = fb.mul(p, m);
            let r = fb.add(t, a);
            fb.ret(Some(r));
        })
    });

    let mut env = Env {
        arrays,
        matrix,
        helper,
        opts: opts.clone(),
        budget: 24,
    };

    // Per-array init constants, drawn before entering the closure so the
    // draw order is independent of builder internals.
    let inits: Vec<(i64, f64, f64)> = (0..env.arrays.len() + env.matrix.iter().len())
        .map(|_| {
            (
                rng.range_i64(3, 9),
                rng.range_f64(0.1, 0.6),
                rng.range_f64(-1.0, 0.5),
            )
        })
        .collect();
    let depth = rng.range_usize(1, opts.max_depth.max(1) + 1);

    mb.function("main", &[], Some(Type::F64), |fb| {
        // Self-initialising inputs: a[i] = scale·(i mod m) + offset keeps
        // every cell small, finite, and derived from the seed alone.
        let mut init_iter = inits.iter();
        for &(array, size) in &env.arrays.clone() {
            let &(m, scale, offset) = init_iter.next().expect("one init per array");
            fb.counted_loop(0, size, 1, |fb, i| {
                let mc = fb.iconst(m);
                let rem = fb.srem(i, mc);
                let f = fb.sitofp(rem);
                let s = fb.fmul(f, fb.fconst(scale));
                let v = fb.fadd(s, fb.fconst(offset));
                fb.store_idx(array, &[i], v);
            });
        }
        if let Some((mat, rows, cols)) = env.matrix {
            let &(m, scale, offset) = init_iter.next().expect("matrix init");
            fb.counted_loop(0, rows, 1, |fb, i| {
                fb.counted_loop(0, cols, 1, |fb, j| {
                    let cc = fb.iconst(cols);
                    let flat = fb.mul(i, cc);
                    let flat = fb.add(flat, j);
                    let mc = fb.iconst(m);
                    let rem = fb.srem(flat, mc);
                    let f = fb.sitofp(rem);
                    let s = fb.fmul(f, fb.fconst(scale));
                    let v = fb.fadd(s, fb.fconst(offset));
                    fb.store_idx(mat, &[i, j], v);
                });
            });
        }

        let mut scope = Scope {
            ivs: Vec::new(),
            fvals: vec![fb.fconst(0.25)],
        };
        gen_body(fb, rng, &mut env, &mut scope, depth);

        // Checksum so every store is observable through the return value.
        let (a0, n0) = env.arrays[0];
        let zero = fb.fconst(0.0);
        let sum = fb.counted_loop_carry(0, n0, 1, &[(Type::F64, zero)], |fb, i, c| {
            let v = fb.load_idx(a0, &[i]);
            vec![fb.fadd(c[0], v)]
        });
        let last = *scope.fvals.last().expect("scope never empty");
        let out = fb.fadd(sum[0], last);
        fb.ret(Some(out));
    });

    mb.finish()
}

/// A gep-safe index: `(a·iv + b [+ helper(iv)]) mod dim`, all terms
/// non-negative so the `srem` result stays in `[0, dim)`.
fn gen_index(
    fb: &mut FunctionBuilder,
    rng: &mut Rng,
    env: &Env,
    scope: &Scope,
    dim: i64,
) -> Operand {
    let base = if scope.ivs.is_empty() {
        fb.iconst(rng.range_i64(0, dim))
    } else {
        let iv = *rng.choose(&scope.ivs);
        let a = rng.range_i64(1, 4);
        let b = rng.range_i64(0, 4);
        let ac = fb.iconst(a);
        let t = fb.mul(iv, ac);
        let bc = fb.iconst(b);
        fb.add(t, bc)
    };
    let base = match env.helper {
        Some(h) if !scope.ivs.is_empty() && rng.bool() => {
            let iv = *rng.choose(&scope.ivs);
            let r = fb.call(h, &[iv], Some(Type::I64)).expect("helper returns");
            fb.add(base, r)
        }
        _ => base,
    };
    let d = fb.iconst(dim);
    fb.srem(base, d)
}

/// A bounded float expression over the scope: loads, constants and chains
/// of `fadd/fsub/fmul/fmin/fmax/fneg/fabs/sqrt∘fabs/fdiv-by-const`.
fn gen_float_expr(fb: &mut FunctionBuilder, rng: &mut Rng, env: &Env, scope: &Scope) -> Operand {
    use cayman_ir::BinOp;
    let leaf = |fb: &mut FunctionBuilder, rng: &mut Rng| -> Operand {
        match rng.range_usize(0, 3) {
            0 => fb.fconst(rng.range_f64(-2.0, 2.0)),
            1 if !scope.fvals.is_empty() => *rng.choose(&scope.fvals),
            _ => {
                let (a, n) = *rng.choose(&env.arrays);
                let idx = gen_index(fb, rng, env, scope, n);
                fb.load_idx(a, &[idx])
            }
        }
    };
    let mut acc = leaf(fb, rng);
    let links = rng.range_usize(0, 4);
    for _ in 0..links {
        acc = match rng.range_usize(0, 7) {
            0 => {
                let r = leaf(fb, rng);
                fb.fadd(acc, r)
            }
            1 => {
                let r = leaf(fb, rng);
                fb.fsub(acc, r)
            }
            2 => {
                let r = leaf(fb, rng);
                fb.fmul(acc, r)
            }
            3 => {
                let r = leaf(fb, rng);
                fb.binary(BinOp::FMin, Type::F64, acc, r)
            }
            4 => {
                let r = leaf(fb, rng);
                fb.binary(BinOp::FMax, Type::F64, acc, r)
            }
            5 => {
                let abs = fb.fabs(acc);
                fb.sqrt(abs)
            }
            _ => {
                let d = fb.fconst(rng.range_f64(1.0, 4.0));
                fb.fdiv(acc, d)
            }
        };
    }
    acc
}

/// One body: `1..=max_stmts` statements appended at the current insertion
/// point. Values created here stay valid for the rest of the body (every
/// structured statement returns with the insertion point in a block the
/// statement's entry dominates).
fn gen_body(
    fb: &mut FunctionBuilder,
    rng: &mut Rng,
    env: &mut Env,
    scope: &mut Scope,
    depth: usize,
) {
    let stmts = rng.range_usize(1, env.opts.max_stmts.max(1) + 1);
    for _ in 0..stmts {
        if env.budget == 0 {
            return;
        }
        env.budget -= 1;
        gen_stmt(fb, rng, env, scope, depth);
    }
}

fn gen_stmt(
    fb: &mut FunctionBuilder,
    rng: &mut Rng,
    env: &mut Env,
    scope: &mut Scope,
    depth: usize,
) {
    // Simplest variants first: shrinking reduces the draw toward plain
    // straight-line statements.
    let max_kind = if depth > 0 { 6 } else { 4 };
    match rng.range_usize(0, max_kind) {
        // Straight-line float chain joining the scope.
        0 => {
            let v = gen_float_expr(fb, rng, env, scope);
            push_fval(scope, v);
        }
        // Array update: a[idx] ← expr (read-modify-write half the time).
        1 => {
            let (a, n) = *rng.choose(&env.arrays);
            let idx = gen_index(fb, rng, env, scope, n);
            let mut v = gen_float_expr(fb, rng, env, scope);
            if rng.bool() {
                let old = fb.load_idx(a, &[idx]);
                v = fb.fadd(old, v);
            }
            fb.store_idx(a, &[idx], v);
        }
        // Matrix update when a matrix exists, else another chain.
        2 => match env.matrix {
            Some((m, r, c)) => {
                let i = gen_index(fb, rng, env, scope, r);
                let j = gen_index(fb, rng, env, scope, c);
                let v = gen_float_expr(fb, rng, env, scope);
                fb.store_idx(m, &[i, j], v);
            }
            None => {
                let v = gen_float_expr(fb, rng, env, scope);
                push_fval(scope, v);
            }
        },
        // Optional trap: integer division by a sometimes-zero constant.
        3 if env.opts.allow_trap && rng.bool() => {
            let d = rng.range_i64(0, 3);
            let lhs = if scope.ivs.is_empty() {
                fb.iconst(rng.range_i64(0, 8))
            } else {
                *rng.choose(&scope.ivs)
            };
            let dc = fb.iconst(d);
            let q = fb.sdiv(lhs, dc);
            let f = fb.sitofp(q);
            push_fval(scope, f);
        }
        // Diamond (data-dependent when arrays feed the compare) merging a
        // value, or a triangle guarding a store.
        3 => {
            let lhs = gen_float_expr(fb, rng, env, scope);
            let cond = fb.fcmp_gt(lhs, fb.fconst(rng.range_f64(-1.0, 1.0)));
            if rng.bool() {
                // Triangle: conditional store, empty else arm.
                let (a, n) = *rng.choose(&env.arrays);
                let env_ref = &*env;
                let snapshot = scope.clone();
                let idx = gen_index(fb, rng, env_ref, &snapshot, n);
                let consts: (f64, f64) = (rng.range_f64(-1.0, 1.0), rng.range_f64(0.5, 1.5));
                fb.if_then(cond, |fb| {
                    let base = fb.load_idx(a, &[idx]);
                    let s = fb.fmul(base, fb.fconst(consts.1));
                    let v = fb.fadd(s, fb.fconst(consts.0));
                    fb.store_idx(a, &[idx], v);
                });
            } else {
                let (ct, ce) = (rng.range_f64(0.5, 1.5), rng.range_f64(-1.5, -0.5));
                let v = fb.if_then_else_val(
                    cond,
                    Type::F64,
                    |fb| fb.fmul(lhs, fb.fconst(ct)),
                    |fb| fb.fadd(lhs, fb.fconst(ce)),
                );
                push_fval(scope, v);
            }
        }
        // Loop nest with carried f64 reductions (recursing into the body).
        4 => {
            let zero_trip = rng.bool();
            let trip = if zero_trip {
                0
            } else {
                rng.range_i64(1, env.opts.max_trip.max(1) + 1)
            };
            let n_carry = rng.range_usize(1, 3);
            let init: Vec<(Type, Operand)> = (0..n_carry)
                .map(|k| {
                    let v = if k == 0 && !scope.fvals.is_empty() {
                        *rng.choose(&scope.fvals)
                    } else {
                        fb.fconst(rng.range_f64(-1.0, 1.0))
                    };
                    (Type::F64, v)
                })
                .collect();
            let finals = fb.counted_loop_carry(0, trip, 1, &init, |fb, i, carries| {
                let mut inner = scope.clone();
                inner.ivs.push(i);
                inner.fvals.extend_from_slice(carries);
                gen_body(fb, rng, env, &mut inner, depth - 1);
                carries
                    .iter()
                    .map(|&c| {
                        let v = gen_float_expr(fb, rng, env, &inner);
                        let damp = fb.fmul(c, fb.fconst(0.5));
                        fb.fadd(damp, v)
                    })
                    .collect()
            });
            for f in finals {
                push_fval(scope, f);
            }
        }
        // Control-heavy state machine: an i64 state threaded through a
        // branch ladder inside a loop, CGRA-style.
        _ => {
            let trip = rng.range_i64(1, env.opts.max_trip.max(1) + 1);
            let (a, n) = *rng.choose(&env.arrays);
            let thresh = rng.range_f64(-0.5, 0.5);
            let zero = fb.iconst(0);
            let acc0 = fb.fconst(0.0);
            let finals = fb.counted_loop_carry(
                0,
                trip,
                1,
                &[(Type::I64, zero), (Type::F64, acc0)],
                |fb, i, c| {
                    let (state, acc) = (c[0], c[1]);
                    let mut inner = scope.clone();
                    inner.ivs.push(i);
                    let idx = gen_index(fb, rng, env, &inner, n);
                    let x = fb.load_idx(a, &[idx]);
                    let hot = fb.fcmp_gt(x, fb.fconst(thresh));
                    // state' = hot ? min(state+1, 3) : 0  — as control flow.
                    let next_state = fb.if_then_else_val(
                        hot,
                        Type::I64,
                        |fb| {
                            let one = fb.iconst(1);
                            let up = fb.add(state, one);
                            let three = fb.iconst(3);
                            fb.binary(cayman_ir::BinOp::Min, Type::I64, up, three)
                        },
                        |fb| fb.iconst(0),
                    );
                    // acc' contribution is state-dependent — a second,
                    // data-dependent diamond.
                    let two = fb.iconst(2);
                    let sat = fb.cmp(cayman_ir::CmpPred::Ge, Type::I64, next_state, two);
                    let contrib = fb.if_then_else_val(
                        sat,
                        Type::F64,
                        |fb| fb.fmul(x, fb.fconst(2.0)),
                        |fb| fb.fabs(x),
                    );
                    let acc2 = fb.fadd(acc, contrib);
                    vec![next_state, acc2]
                },
            );
            let f = fb.sitofp(finals[0]);
            let merged = fb.fadd(f, finals[1]);
            push_fval(scope, merged);
        }
    }
}

fn push_fval(scope: &mut Scope, v: Operand) {
    scope.fvals.push(v);
    // Bound the pool so later draws stay O(1) and shrunk cases stay small.
    if scope.fvals.len() > 8 {
        scope.fvals.remove(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_ir::interp::Interp;

    #[test]
    fn generation_is_seed_deterministic() {
        for seed in [0u64, 1, 0xDEAD_BEEF, u64::MAX] {
            let a = arbitrary_module(&mut Rng::new(seed));
            let b = arbitrary_module(&mut Rng::new(seed));
            assert_eq!(a.to_text(), b.to_text(), "seed {seed:#x}");
        }
        let a = arbitrary_module(&mut Rng::new(7));
        let b = arbitrary_module(&mut Rng::new(8));
        assert_ne!(a.to_text(), b.to_text(), "distinct seeds vary");
    }

    #[test]
    fn generated_modules_verify_and_run_clean() {
        for seed in 0..200u64 {
            let m = arbitrary_module(&mut Rng::new(seed));
            m.verify()
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", m.to_text()));
            let p = Interp::new(&m)
                .with_step_limit(5_000_000)
                .run(&[])
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", m.to_text()));
            assert!(p.total_cycles > 0, "seed {seed}: no work");
            if let Some(cayman_ir::interp::Value::F(f)) = p.return_value {
                assert!(f.is_finite(), "seed {seed}: non-finite checksum {f}");
            }
        }
    }

    #[test]
    fn shrunk_draws_still_generate_valid_modules() {
        for &factor in &crate::SHRINK_FACTORS {
            for seed in 0..40u64 {
                let m = arbitrary_module(&mut Rng::with_shrink(seed, factor));
                m.verify()
                    .unwrap_or_else(|e| panic!("seed {seed} shrink {factor}: {e}"));
                Interp::new(&m)
                    .with_step_limit(5_000_000)
                    .run(&[])
                    .unwrap_or_else(|e| panic!("seed {seed} shrink {factor}: {e}"));
            }
        }
    }

    #[test]
    fn generated_modules_roundtrip_through_text() {
        for seed in 0..40u64 {
            let m = arbitrary_module(&mut Rng::new(seed));
            let once = Module::parse_text(&m.to_text())
                .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{}", m.to_text()));
            once.verify().expect("parsed module verifies");
            // Structure is preserved; the text is a fixpoint after one
            // parse (value numbering may legitimately differ on the first).
            assert_eq!(once.functions.len(), m.functions.len());
            for (a, b) in once.functions.iter().zip(&m.functions) {
                assert_eq!(a.blocks.len(), b.blocks.len(), "seed {seed}");
                assert_eq!(a.instrs.len(), b.instrs.len(), "seed {seed}");
            }
            let twice = Module::parse_text(&once.to_text()).expect("reparses");
            assert_eq!(
                once.to_text(),
                twice.to_text(),
                "seed {seed}: not a fixpoint"
            );
        }
    }

    #[test]
    fn trap_option_reaches_the_error_path() {
        let opts = GenOptions {
            allow_trap: true,
            ..GenOptions::default()
        };
        let mut trapped = 0;
        for seed in 0..120u64 {
            let m = arbitrary_module_with(&mut Rng::new(seed), &opts);
            m.verify().expect("still verifies");
            if Interp::new(&m).with_step_limit(5_000_000).run(&[]).is_err() {
                trapped += 1;
            }
        }
        assert!(trapped > 0, "no seed reached the division-by-zero path");
    }
}
