//! Property-based tests of the accelerator model: for arbitrary rectangular
//! streaming kernels, generated designs must satisfy the invariants the
//! selection DP assumes; for generated programs, a candidate's cache key
//! must change exactly when its read set does; and over the workload
//! corpus, no model reads an immediate's value.

use cayman::baselines::{NoviaModel, QsCoresModel};
use cayman::select::{AccelModel, CaymanModel};
use cayman::Framework;
use cayman_analysis::access::AccessAnalysis;
use cayman_analysis::ctx::FuncCtx;
use cayman_analysis::memdep::{analyse_loop_deps, LoopDeps};
use cayman_analysis::regions::{RegionKind, RegionTree};
use cayman_analysis::scev::Scev;
use cayman_hls::design::{generate_designs, AcceleratorDesign};
use cayman_hls::inputs::{Candidate, CandidateKey, FuncInputs, FuncPrints, RegionInputs};
use cayman_hls::interface::{InterfaceKind, ModelOptions};
use cayman_ir::builder::ModuleBuilder;
use cayman_ir::instr::{Imm, Operand};
use cayman_ir::interp::Interp;
use cayman_ir::loops::LoopId;
use cayman_ir::{
    fingerprint_block, fingerprint_function, BinOp, BlockId, FuncId, Function, Instr, InstrId,
    Module, Type,
};
use cayman_testkit::program::arbitrary_module;
use cayman_testkit::{prop_assert, prop_assert_eq, prop_check};

/// Modelling a kernel end-to-end is much heavier than a pure-math property,
/// so these suites run fewer cases (matching the old proptest config).
const CASES: u64 = 48;

struct Owned {
    module: Module,
    ctx: FuncCtx,
    accesses: AccessAnalysis,
    deps: Vec<LoopDeps>,
    counts: Vec<u64>,
    total: u64,
    trips: Vec<f64>,
    prints: FuncPrints,
}

/// A parameterised 2-level kernel: outer `n`, inner `m`, with either an
/// element-wise body or a reduction body.
fn build(n: i64, m: i64, reduction: bool) -> Owned {
    let mut mb = ModuleBuilder::new("prop");
    let a = mb.array("A", Type::F64, &[n as usize, m as usize]);
    let out = mb.array("out", Type::F64, &[n as usize, m as usize]);
    let red = mb.array("red", Type::F64, &[n as usize]);
    mb.function("main", &[], None, move |fb| {
        fb.counted_loop(0, n, 1, move |fb, i| {
            if reduction {
                let zero = fb.fconst(0.0);
                let acc = fb.counted_loop_carry(0, m, 1, &[(Type::F64, zero)], |fb, j, c| {
                    let v = fb.load_idx(a, &[i, j]);
                    let p = fb.fmul(v, v);
                    vec![fb.fadd(c[0], p)]
                });
                fb.store_idx(red, &[i], acc[0]);
            } else {
                fb.counted_loop(0, m, 1, |fb, j| {
                    let v = fb.load_idx(a, &[i, j]);
                    let w = fb.fmul(v, fb.fconst(2.0));
                    fb.store_idx(out, &[i, j], w);
                });
            }
        });
        fb.ret(None);
    });
    let module = mb.finish();
    module.verify().expect("verifies");
    let exec = Interp::new(&module).run(&[]).expect("runs");
    let f = module.function(FuncId(0));
    let ctx = FuncCtx::compute(f);
    let mut scev = Scev::new(f, &ctx);
    let accesses = AccessAnalysis::run(&module, f, &ctx, &mut scev);
    let deps = analyse_loop_deps(f, &ctx, &mut scev, &accesses);
    let trips: Vec<f64> = ctx
        .forest
        .ids()
        .map(|l| {
            cayman_analysis::access::static_trip_count(f, &ctx, l)
                .map(|t| t as f64)
                .unwrap_or(1.0)
        })
        .collect();
    let prints = FuncPrints::compute(&module, f, &ctx, &accesses, &deps);
    Owned {
        prints,
        ctx,
        accesses,
        deps,
        counts: exec.block_counts[0].clone(),
        total: exec.total_cycles,
        trips,
        module,
    }
}

fn candidate(o: &Owned) -> (FuncInputs<'_>, Candidate) {
    let inp = FuncInputs {
        module: &o.module,
        func_id: FuncId(0),
        ctx: &o.ctx,
        accesses: &o.accesses,
        deps: &o.deps,
        trips: &o.trips,
        block_counts: &o.counts,
        prints: &o.prints,
    };
    let outer = o
        .ctx
        .forest
        .ids()
        .find(|&l| o.ctx.forest.get(l).depth == 1)
        .expect("outer loop");
    let lp = o.ctx.forest.get(outer);
    let cand = Candidate {
        func: FuncId(0),
        blocks: lp.blocks.clone(),
        entries: 1,
        cpu_cycles: o.total,
        is_bb: false,
    };
    (inp, cand)
}

/// Every generated design has positive area and cycles, interface
/// assignments covering exactly the candidate's accesses, and the
/// sequential configuration is always the smallest.
#[test]
fn designs_are_well_formed() {
    prop_check!(cases = CASES, |rng| {
        let n = rng.range_i64(2, 16);
        let m = rng.range_i64(2, 16);
        let reduction = rng.bool();
        let o = build(n, m, reduction);
        let (inp, cand) = candidate(&o);
        let n_accesses = inp.accesses.within(&cand.blocks).count();
        let designs = generate_designs(&inp, &cand, &ModelOptions::default());
        prop_assert!(!designs.is_empty());
        let seq = &designs[0];
        prop_assert!(seq.pipelined.is_empty());
        for d in &designs {
            prop_assert!(d.area > 0.0);
            prop_assert!(d.accel_cycles_total > 0.0);
            prop_assert!(d.accel_cycles_total.is_finite());
            prop_assert_eq!(d.interfaces.len(), n_accesses);
            prop_assert!(d.area >= seq.area - 1e-9, "sequential is minimal area");
            let (c, de, s, lb) = d.iface_counts();
            prop_assert_eq!(c + de + s + lb, n_accesses);
        }
        Ok(())
    });
}

/// More unrolling never makes a pipelined configuration slower (the paper's
/// area-performance trade-off must be monotone within a candidate's
/// configuration family).
#[test]
fn unrolling_is_monotone() {
    prop_check!(cases = CASES, |rng| {
        let n = rng.range_i64(2, 16);
        let m = rng.range_i64(2, 16);
        let reduction = rng.bool();
        let o = build(n, m, reduction);
        let (inp, cand) = candidate(&o);
        let designs = generate_designs(&inp, &cand, &ModelOptions::default());
        // Compare only the heuristic base plans: extended plans (banked,
        // double-buffered) trade differently and may beat a higher unroll.
        let mut pipelined: Vec<_> = designs
            .iter()
            .filter(|d| {
                !d.pipelined.is_empty()
                    && d.interfaces.iter().all(|(_, s)| {
                        matches!(
                            s.kind,
                            InterfaceKind::Coupled
                                | InterfaceKind::Decoupled
                                | InterfaceKind::Scratchpad
                        )
                    })
            })
            .collect();
        pipelined.sort_by_key(|d| d.unroll);
        for w in pipelined.windows(2) {
            if w[0].unroll < w[1].unroll
                && w[0].pipelined_detail.iter().map(|(_, _, f)| f).sum::<u32>()
                    < w[1].pipelined_detail.iter().map(|(_, _, f)| f).sum::<u32>()
            {
                prop_assert!(
                    w[1].accel_cycles_total <= w[0].accel_cycles_total + 1e-6,
                    "unroll {} slower than {}: {} vs {}",
                    w[1].unroll,
                    w[0].unroll,
                    w[1].accel_cycles_total,
                    w[0].accel_cycles_total
                );
            }
        }
        Ok(())
    });
}

/// The coupled-only ablation never beats the full model (it explores a
/// strict subset of the interface space).
#[test]
fn coupled_only_never_wins() {
    prop_check!(cases = CASES, |rng| {
        let n = rng.range_i64(2, 16);
        let m = rng.range_i64(2, 16);
        let reduction = rng.bool();
        let o = build(n, m, reduction);
        let (inp, cand) = candidate(&o);
        let best = |opts: &ModelOptions| -> f64 {
            generate_designs(&inp, &cand, opts)
                .iter()
                .map(|d| d.accel_cycles_total)
                .fold(f64::INFINITY, f64::min)
        };
        let full = best(&ModelOptions::default());
        let coupled = best(&ModelOptions::coupled_only());
        prop_assert!(full <= coupled + 1e-6, "full {full} vs coupled {coupled}");
        Ok(())
    });
}

/// Reduction kernels carry a dependence yet still unroll (partial sums);
/// element-wise kernels carry none. Either way at least one pipelined
/// configuration with unroll > 1 must appear.
#[test]
fn reduction_unrolling_is_available() {
    prop_check!(cases = CASES, |rng| {
        let n = rng.range_i64(2, 16);
        let m = rng.range_i64(4, 16);
        let o = build(n, m, true);
        let (inp, cand) = candidate(&o);
        let inner = o
            .ctx
            .forest
            .ids()
            .find(|&l| o.ctx.forest.get(l).depth == 2)
            .expect("inner");
        prop_assert!(o.deps[inner.index()].has_carried());
        prop_assert!(o.deps[inner.index()].is_reduction_only(o.module.function(FuncId(0))));
        let designs = generate_designs(&inp, &cand, &ModelOptions::default());
        prop_assert!(
            designs
                .iter()
                .any(|d| d.unroll > 1 && !d.pipelined.is_empty()),
            "partial-sum unrolling missing"
        );
        Ok(())
    });
}

/// One function's analyses plus a fixed synthetic profile, for keying its
/// candidates.
struct Keyed {
    ctx: FuncCtx,
    accesses: AccessAnalysis,
    deps: Vec<LoopDeps>,
    prints: FuncPrints,
    counts: Vec<u64>,
    trips: Vec<f64>,
}

impl Keyed {
    fn analyse(module: &Module, f: FuncId) -> Keyed {
        let func = module.function(f);
        let ctx = FuncCtx::compute(func);
        let mut scev = Scev::new(func, &ctx);
        let accesses = AccessAnalysis::run(module, func, &ctx, &mut scev);
        let deps = analyse_loop_deps(func, &ctx, &mut scev, &accesses);
        let prints = FuncPrints::compute(module, func, &ctx, &accesses, &deps);
        let counts = (1..=func.blocks.len() as u64).collect();
        let trips = ctx.forest.ids().map(|l| f64::from(l.0) + 2.0).collect();
        Keyed {
            ctx,
            accesses,
            deps,
            prints,
            counts,
            trips,
        }
    }

    fn key(&self, module: &Module, f: FuncId, cand: &Candidate) -> CandidateKey {
        let inputs = FuncInputs {
            module,
            func_id: f,
            ctx: &self.ctx,
            accesses: &self.accesses,
            deps: &self.deps,
            trips: &self.trips,
            block_counts: &self.counts,
            prints: &self.prints,
        };
        RegionInputs::new(&inputs, cand).key()
    }
}

/// A region's key covers exactly its read set: over generated programs and
/// every region of their region trees, swapping `fadd` ↔ `fmul` in one
/// instruction changes the key of every region containing it and of no
/// region that neither contains nor reads it; bumping a block count or a
/// trip count changes the key exactly when the region reads it.
#[test]
fn region_keys_cover_exactly_the_read_set() {
    prop_check!(cases = CASES, |rng| {
        let module = arbitrary_module(rng);
        for f in module.function_ids() {
            let func = module.function(f);
            let base = Keyed::analyse(&module, f);
            let tree = RegionTree::build(func, &base.ctx);
            let cands: Vec<Candidate> = tree
                .regions
                .iter()
                .map(|r| Candidate {
                    func: f,
                    blocks: r.blocks.clone(),
                    entries: 1,
                    cpu_cycles: 100,
                    is_bb: matches!(r.kind, RegionKind::Bb(_)),
                })
                .collect();
            let keys: Vec<CandidateKey> = cands.iter().map(|c| base.key(&module, f, c)).collect();

            // Swap one fadd/fmul.
            let swappable: Vec<(BlockId, InstrId)> = func
                .block_ids()
                .flat_map(|b| func.block(b).instrs.iter().map(move |&i| (b, i)))
                .filter(|&(_, i)| {
                    matches!(
                        func.instr(i),
                        Instr::Binary {
                            op: BinOp::FAdd | BinOp::FMul,
                            ..
                        }
                    )
                })
                .collect();
            if !swappable.is_empty() {
                let (home, x) = *rng.choose(&swappable);
                let mut edited = module.clone();
                if let Instr::Binary { op, .. } = &mut edited.functions[f.index()].instrs[x.index()]
                {
                    *op = if *op == BinOp::FAdd {
                        BinOp::FMul
                    } else {
                        BinOp::FAdd
                    };
                }
                let after = Keyed::analyse(&edited, f);
                let x_value = func.result_of(x);
                for (cand, key) in cands.iter().zip(&keys) {
                    let reads_x = cand.blocks.iter().any(|&b| {
                        func.block(b).instrs.iter().any(|&i| {
                            let mut uses = false;
                            func.instr(i)
                                .for_each_operand(|op| uses |= op.as_value() == x_value);
                            uses
                        })
                    });
                    let swapped = after.key(&edited, f, cand);
                    if cand.blocks.contains(&home) {
                        prop_assert!(
                            swapped != *key,
                            "swap inside {:?} kept the key",
                            cand.blocks
                        );
                    } else if !reads_x {
                        prop_assert_eq!(swapped, key.clone());
                    }
                }
            }

            // Bump one block count and one trip count.
            let b = BlockId(rng.range_u32(0, func.blocks.len() as u32));
            let mut bumped = Keyed::analyse(&module, f);
            bumped.counts[b.index()] += 1;
            for (cand, key) in cands.iter().zip(&keys) {
                let changed = bumped.key(&module, f, cand) != *key;
                prop_assert_eq!(changed, cand.blocks.contains(&b));
            }
            if base.ctx.forest.loops.is_empty() {
                continue;
            }
            let l = LoopId(rng.range_u32(0, base.ctx.forest.loops.len() as u32));
            let mut bumped = Keyed::analyse(&module, f);
            bumped.trips[l.index()] += 1.0;
            for (cand, key) in cands.iter().zip(&keys) {
                let inside = |l: LoopId| {
                    base.ctx
                        .forest
                        .get(l)
                        .blocks
                        .iter()
                        .all(|b| cand.blocks.contains(b))
                };
                let read = inside(l) || base.ctx.forest.get(l).children.iter().any(|&c| inside(c));
                let changed = bumped.key(&module, f, cand) != *key;
                prop_assert_eq!(changed, read);
            }
        }
        Ok(())
    });
}

/// Rewrites every immediate of `f` to another value of the same kind;
/// returns how many it rewrote.
fn rewrite_immediates(f: &mut Function) -> usize {
    let mut rewritten = 0;
    let mut rewrite = |op: &mut Operand| {
        if let Operand::Const(imm) = op {
            *imm = match *imm {
                Imm::Int(i) => Imm::Int(if i == 1 { 2 } else { 1 }),
                Imm::Float(x) => Imm::Float(if x == 1.0 { 2.0 } else { 1.0 }),
                Imm::Bool(b) => Imm::Bool(!b),
            };
            rewritten += 1;
        }
    };
    for instr in &mut f.instrs {
        instr.for_each_operand_mut(&mut rewrite);
    }
    for block in &mut f.blocks {
        if let Some(term) = &mut block.term {
            term.for_each_operand_mut(&mut rewrite);
        }
    }
    rewritten
}

/// A design as bits: its `Debug` form pins every integer and enum field,
/// and the two floats are compared by their bit patterns.
fn design_bits(d: &AcceleratorDesign) -> (String, u64, u64) {
    (
        format!("{d:?}"),
        d.accel_cycles_total.to_bits(),
        d.area.to_bits(),
    )
}

/// The block prints, and so every design key, are sound to hash
/// immediates by kind: over every candidate of all 132 workloads, rewriting
/// every immediate of a function to a different value of the same kind —
/// its analyses, profile and prints held fixed — leaves each of Cayman's
/// model, NOVIA and QsCores producing bit-identical designs and every block
/// print unchanged, while the function's fingerprint moves.
#[test]
fn models_read_immediates_by_kind_only() {
    let cayman = CaymanModel::default();
    let models: [&dyn AccelModel; 3] = [&cayman, &NoviaModel, &QsCoresModel];
    let mut checked = 0usize;
    for w in cayman::workloads::full() {
        let fw = Framework::from_workload(&w).expect("analyses");
        let app = &fw.app;
        let mut rewritten = app.module.clone();
        for (old, new) in app.module.functions.iter().zip(&mut rewritten.functions) {
            if rewrite_immediates(new) > 0 {
                assert_ne!(
                    fingerprint_function(old),
                    fingerprint_function(new),
                    "{}: `{}`",
                    w.name,
                    old.name
                );
            }
            for b in old.block_ids() {
                assert_eq!(
                    fingerprint_block(old, b),
                    fingerprint_block(new, b),
                    "{}: `{}` {b}",
                    w.name,
                    old.name
                );
            }
        }
        let inputs = app.inputs();
        let moved: Vec<FuncInputs<'_>> = inputs
            .iter()
            .map(|i| FuncInputs {
                module: &rewritten,
                ..*i
            })
            .collect();
        for v in app.wpst.ids() {
            let Some((region, func)) = app.wpst.region(v) else {
                continue;
            };
            let rp = app.profile.of(v);
            if !region.accelerable || rp.entries == 0 || rp.cycles == 0 {
                continue;
            }
            let cand = Candidate {
                func,
                blocks: region.blocks.clone(),
                entries: rp.entries,
                cpu_cycles: rp.cycles,
                is_bb: matches!(region.kind, RegionKind::Bb(_)),
            };
            for model in models {
                let bits = |inputs: &FuncInputs<'_>| -> Vec<_> {
                    model
                        .designs(inputs, &cand)
                        .iter()
                        .map(design_bits)
                        .collect()
                };
                assert_eq!(
                    bits(&inputs[func.index()]),
                    bits(&moved[func.index()]),
                    "{}: {:?}",
                    w.name,
                    cand.blocks
                );
            }
            checked += 1;
        }
    }
    assert!(checked > 1000, "{checked} candidates");
}
