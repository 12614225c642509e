//! What the accelerator model reads: the per-function input bundle
//! ([`FuncInputs`]), one acceleration [`Candidate`], and the
//! [`RegionInputs`] view through which every model reads a candidate.
//!
//! The driver (the `cayman` facade crate) computes analysis + profiling once
//! per function and the model consumes these read-only views.
//!
//! ## The read set is the cache key
//!
//! A model call `accel(v, R)` reads, for its candidate region:
//!
//! * every candidate block: its instructions and terminator, its profiled
//!   count, its innermost loop and its reverse-post-order position — an
//!   immediate operand by its kind (int, float or bool) only, never by its
//!   value;
//! * for every instruction operand, the value's definition one level deep
//!   (an access's address `gep` can sit outside the region);
//! * every loop inside the candidate and each one's parent loop: the loop
//!   record, its trip count and its loop-carried dependences;
//! * the access record of every load and store inside the candidate;
//! * the module's array declarations.
//!
//! [`RegionInputs`] holds exactly this set, and its accessors
//! `debug_assert` on a block, loop, instruction or value outside it, so a
//! debug build (`cargo test`) catches a model that reads more than the set.
//! [`CandidateKey::region_fp`] folds the same set from per-function
//! [`FuncPrints`], so two candidates with equal keys get identical designs
//! from the same model — however the rest of the function changed, and
//! whatever values its immediates hold. A value that does reach a model
//! reaches it through an analysis (an address's constant offset, a static
//! trip count, a dependence distance), and those are in the set.
//! [`FuncPrints::selection_fp`] folds the whole function's set the same way
//! for the selection fronts above the candidates.

use cayman_analysis::access::{AccessAnalysis, AccessInfo};
use cayman_analysis::ctx::FuncCtx;
use cayman_analysis::memdep::LoopDeps;
use cayman_ir::loops::{Loop, LoopId};
use cayman_ir::module::ValueDef;
use cayman_ir::{
    fingerprint_arrays, fingerprint_block, ArrayDecl, ArrayId, Block, BlockId, Fingerprinter,
    FuncId, Function, Instr, InstrId, IrView, Module, ValueId,
};

/// Everything the model needs to know about one function.
#[derive(Debug)]
pub struct FuncInputs<'a> {
    /// The whole module (for array declarations).
    pub module: &'a Module,
    /// The function id.
    pub func_id: FuncId,
    /// CFG/dominator/loop analyses.
    pub ctx: &'a FuncCtx,
    /// Memory-access analysis.
    pub accesses: &'a AccessAnalysis,
    /// Loop-carried dependence analysis, indexed by `LoopId`.
    pub deps: &'a [LoopDeps],
    /// Trip count per loop (static when available, else profiled average),
    /// indexed by `LoopId`. Borrowed from the analysis store so repeated
    /// (incremental) selections never re-allocate per-function profile
    /// vectors.
    pub trips: &'a [f64],
    /// Profiled dynamic execution count per block, indexed by `BlockId`.
    /// Borrowed like `trips`.
    pub block_counts: &'a [u64],
    /// Content prints of the function's blocks, loops, accesses and
    /// dependences, folded per candidate into [`CandidateKey::region_fp`]
    /// and per function into [`FuncPrints::selection_fp`].
    pub prints: &'a FuncPrints,
}

impl<'a> FuncInputs<'a> {
    /// The function itself.
    pub fn func(&self) -> &'a Function {
        self.module.function(self.func_id)
    }

    /// Trip count of a loop.
    pub fn trip(&self, l: LoopId) -> f64 {
        self.trips[l.index()]
    }

    /// Profiled execution count of a block.
    pub fn count(&self, b: BlockId) -> u64 {
        self.block_counts[b.index()]
    }
}

/// Content-only prints of one analysed function: everything a region's
/// read set holds except the profile. Computed once per function content
/// and folded per candidate, with the candidate's counts and trips, into
/// [`CandidateKey::region_fp`].
///
/// The prints come in two halves with the same shape, each computed by the
/// query that owns its inputs — [`FuncPrints::structure`] from the function
/// body, [`FuncPrints::dataflow`] from its access and dependence analyses —
/// and [`FuncPrints::join`]ed per application.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FuncPrints {
    /// Per block: its instructions, terminator and operand definitions
    /// ([`cayman_ir::fingerprint_block`]), its innermost loop, its
    /// reverse-post-order position, and the access records of its loads
    /// and stores.
    pub blocks: Vec<u64>,
    /// Per loop: the loop record (id, header, blocks, latches, exits,
    /// parent, children, depth) and its loop-carried dependences.
    pub loops: Vec<u64>,
    /// The module's array declarations ([`cayman_ir::fingerprint_arrays`]).
    pub arrays: u64,
}

impl FuncPrints {
    /// Every print of one function, computed from scratch.
    pub fn compute(
        module: &Module,
        func: &Function,
        ctx: &FuncCtx,
        accesses: &AccessAnalysis,
        deps: &[LoopDeps],
    ) -> FuncPrints {
        FuncPrints::join(
            &FuncPrints::structure(func, ctx),
            &FuncPrints::dataflow(func.blocks.len(), accesses, deps),
            fingerprint_arrays(&module.arrays),
        )
    }

    /// Joins the structural and dataflow halves of one function's prints
    /// under the module's array fingerprint.
    pub fn join(structure: &FuncPrints, dataflow: &FuncPrints, arrays: u64) -> FuncPrints {
        let pairwise =
            |a: &[u64], b: &[u64]| a.iter().zip(b).map(|(&x, &y)| print(&[x, y])).collect();
        FuncPrints {
            blocks: pairwise(&structure.blocks, &dataflow.blocks),
            loops: pairwise(&structure.loops, &dataflow.loops),
            arrays,
        }
    }

    /// The fingerprint of everything a selection over the function reads
    /// from its [`FuncInputs`], given its block counts and trip counts:
    /// every print (blocks, loops, arrays), the counts and the trips. Trip
    /// counts are there in full because a never-entered loop's static trip
    /// count can change while the counts do not. Like the prints, it sees
    /// an immediate's kind but not its value.
    pub fn selection_fp(&self, block_counts: &[u64], trips: &[f64]) -> u64 {
        let mut h = Fingerprinter::new();
        for words in [&self.blocks, &self.loops, block_counts] {
            h.u64(words.len() as u64);
            h.u64s(words);
        }
        h.u64(trips.len() as u64);
        for t in trips {
            h.u64(t.to_bits());
        }
        h.u64(self.arrays);
        h.finish()
    }

    /// The structural half: per block its IR, innermost loop and
    /// reverse-post-order position; per loop its record. A function of the
    /// function body alone; `arrays` is left `0`.
    pub fn structure(func: &Function, ctx: &FuncCtx) -> FuncPrints {
        let forest = &ctx.forest;
        let blocks = func
            .block_ids()
            .map(|b| {
                print(&[
                    fingerprint_block(func, b),
                    forest.innermost_loop(b).map_or(0, |l| u64::from(l.0) + 1),
                    ctx.cfg.rpo_index[b.index()].map_or(0, |i| i as u64 + 1),
                ])
            })
            .collect();
        let mut words = Vec::new();
        let loops = forest
            .ids()
            .map(|l| {
                let lp = forest.get(l);
                words.clear();
                words.extend([u64::from(l.0), u64::from(lp.header.0)]);
                for list in [&lp.blocks, &lp.latches, &lp.exit_blocks] {
                    words.push(list.len() as u64);
                    words.extend(list.iter().map(|b| u64::from(b.0)));
                }
                words.push(lp.parent.map_or(0, |p| u64::from(p.0) + 1));
                words.push(lp.children.len() as u64);
                words.extend(lp.children.iter().map(|c| u64::from(c.0)));
                words.push(lp.depth as u64);
                print(&words)
            })
            .collect();
        FuncPrints {
            blocks,
            loops,
            arrays: 0,
        }
    }

    /// The dataflow half: per block the access records of its loads and
    /// stores, in order; per loop its loop-carried dependences. A function
    /// of the access and dependence analyses alone; `arrays` is left `0`.
    pub fn dataflow(n_blocks: usize, accesses: &AccessAnalysis, deps: &[LoopDeps]) -> FuncPrints {
        let mut words = Vec::new();
        let mut blocks = vec![Fingerprinter::new(); n_blocks];
        for a in &accesses.accesses {
            words.clear();
            words.extend([
                u64::from(a.instr.0),
                u64::from(a.array.0),
                u64::from(a.is_store),
            ]);
            match &a.addr {
                None => words.push(0),
                Some(e) => {
                    words.extend([1, e.constant as u64, e.iv_coeffs.len() as u64]);
                    for (l, c) in &e.iv_coeffs {
                        words.extend([u64::from(l.0), *c as u64]);
                    }
                    words.push(e.symbols.len() as u64);
                    for (v, c) in &e.symbols {
                        words.extend([u64::from(v.0), *c as u64]);
                    }
                }
            }
            words.push(a.sym_defs.len() as u64);
            words.extend(a.sym_defs.iter().map(|b| u64::from(b.0)));
            blocks[a.block.index()].u64s(&words);
        }
        let loops = deps
            .iter()
            .map(|d| {
                words.clear();
                words.push(d.mem.len() as u64);
                for m in &d.mem {
                    words.extend([u64::from(m.store.0), u64::from(m.load.0), m.distance]);
                    words.push(m.chain.len() as u64);
                    words.extend(m.chain.iter().map(|i| u64::from(i.0)));
                }
                words.push(d.scalar.len() as u64);
                for s in &d.scalar {
                    words.extend([u64::from(s.phi.0), s.chain.len() as u64]);
                    words.extend(s.chain.iter().map(|i| u64::from(i.0)));
                }
                words.push(u64::from(d.conservative));
                print(&words)
            })
            .collect();
        FuncPrints {
            blocks: blocks.iter().map(Fingerprinter::finish).collect(),
            loops,
            arrays: 0,
        }
    }
}

/// The fingerprint of a sequence of fields.
fn print(words: &[u64]) -> u64 {
    let mut h = Fingerprinter::new();
    h.u64s(words);
    h.finish()
}

/// One acceleration candidate: a SESE region plus its profile.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// Containing function.
    pub func: FuncId,
    /// Blocks spanned by the region.
    pub blocks: Vec<BlockId>,
    /// Profiled entries of the region.
    pub entries: u64,
    /// Profiled CPU cycles spent inside the region over the whole run
    /// (`T_cand · F_cpu`).
    pub cpu_cycles: u64,
    /// Whether the candidate is a single basic block (*bb* region).
    pub is_bb: bool,
}

/// A hashable identity for a [`Candidate`]: the candidate itself plus a
/// fingerprint of everything else a model reads about it (its
/// [`RegionInputs`] read set). Two candidates with equal keys yield
/// identical design vectors for the same model, so a design cache keyed by
/// this stays sound when the module is edited between selections — and an
/// edit outside the region leaves the key, and the cached designs, in
/// place.
///
/// The function and block ids stay in the key because designs embed them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CandidateKey {
    /// Containing function.
    pub func: FuncId,
    /// Fingerprint of the candidate's read set: its blocks' and loops'
    /// [`FuncPrints`], block counts, trip counts and array declarations.
    pub region_fp: u64,
    /// Blocks spanned by the region (region block order is deterministic).
    pub blocks: Vec<BlockId>,
    /// Profiled entries.
    pub entries: u64,
    /// Profiled CPU cycles.
    pub cpu_cycles: u64,
    /// Single-basic-block region flag.
    pub is_bb: bool,
}

/// The part of one function a model may read about one candidate (see the
/// module docs). Models read the candidate's IR through [`IrView`] and the
/// rest through the accessors; each accessor `debug_assert`s that its
/// argument lies in the read set.
#[derive(Debug)]
pub struct RegionInputs<'a> {
    inputs: &'a FuncInputs<'a>,
    func: &'a Function,
    cand: &'a Candidate,
    /// Candidate membership, by block index.
    member: Vec<bool>,
    /// Loops entirely inside the candidate, in id order.
    within: Vec<LoopId>,
    /// `within` plus each one's parent loop, in id order.
    loops: Vec<LoopId>,
    /// Instructions and values the candidate's instructions read, by index.
    #[cfg(debug_assertions)]
    reads: (Vec<bool>, Vec<bool>),
}

impl<'a> RegionInputs<'a> {
    /// The read set of `cand`, a candidate of `inputs`' function.
    pub fn new(inputs: &'a FuncInputs<'a>, cand: &'a Candidate) -> Self {
        let func = inputs.func();
        let forest = &inputs.ctx.forest;
        let mut member = vec![false; func.blocks.len()];
        for b in &cand.blocks {
            member[b.index()] = true;
        }
        let within: Vec<LoopId> = forest
            .ids()
            .filter(|&l| forest.get(l).blocks.iter().all(|b| member[b.index()]))
            .collect();
        let mut loops = within.clone();
        loops.extend(within.iter().filter_map(|&l| forest.get(l).parent));
        loops.sort_unstable();
        loops.dedup();
        RegionInputs {
            inputs,
            func,
            cand,
            #[cfg(debug_assertions)]
            reads: instr_reads(func, &cand.blocks),
            member,
            within,
            loops,
        }
    }

    /// This candidate's cache key: the candidate plus its read set, folded
    /// from the function's [`FuncPrints`].
    pub fn key(&self) -> CandidateKey {
        let p = self.inputs.prints;
        let mut h = Fingerprinter::new();
        h.u64s(&[p.arrays, self.loops.len() as u64]);
        for &b in &self.cand.blocks {
            h.u64s(&[p.blocks[b.index()], self.inputs.count(b)]);
        }
        for &l in &self.loops {
            h.u64s(&[p.loops[l.index()], self.inputs.trip(l).to_bits()]);
        }
        CandidateKey {
            func: self.cand.func,
            region_fp: h.finish(),
            blocks: self.cand.blocks.clone(),
            entries: self.cand.entries,
            cpu_cycles: self.cand.cpu_cycles,
            is_bb: self.cand.is_bb,
        }
    }

    /// The candidate.
    pub fn candidate(&self) -> &'a Candidate {
        self.cand
    }

    /// Whether `b` is one of the candidate's blocks.
    fn contains_block(&self, b: BlockId) -> bool {
        self.member[b.index()]
    }

    fn check_block(&self, b: BlockId) {
        debug_assert!(self.contains_block(b), "{b} is outside the candidate");
    }

    fn check_loop(&self, l: LoopId) {
        debug_assert!(
            self.loops.binary_search(&l).is_ok(),
            "loop {} is outside the candidate's read set",
            l.0
        );
    }

    /// A candidate block.
    pub fn block(&self, b: BlockId) -> &'a Block {
        self.check_block(b);
        self.func.block(b)
    }

    /// Profiled execution count of a candidate block.
    pub fn count(&self, b: BlockId) -> u64 {
        self.check_block(b);
        self.inputs.count(b)
    }

    /// The innermost loop containing a candidate block (which may enclose
    /// the whole candidate).
    pub fn innermost_loop(&self, b: BlockId) -> Option<LoopId> {
        self.check_block(b);
        self.inputs.ctx.forest.innermost_loop(b)
    }

    /// Loops entirely contained in the candidate, in id order.
    pub fn loops_within(&self) -> &[LoopId] {
        &self.within
    }

    /// Whether loop `l` lies entirely inside the candidate.
    pub fn is_within(&self, l: LoopId) -> bool {
        self.within.binary_search(&l).is_ok()
    }

    /// Innermost loops among [`loops_within`](RegionInputs::loops_within).
    pub fn innermost_loops(&self) -> Vec<LoopId> {
        self.within
            .iter()
            .copied()
            .filter(|&l| {
                self.get_loop(l)
                    .children
                    .iter()
                    .all(|&c| !self.is_within(c))
            })
            .collect()
    }

    /// A loop inside the candidate, or the parent of one.
    pub fn get_loop(&self, l: LoopId) -> &'a Loop {
        self.check_loop(l);
        self.inputs.ctx.forest.get(l)
    }

    /// Trip count of a loop inside the candidate, or of the parent of one.
    pub fn trip(&self, l: LoopId) -> f64 {
        self.check_loop(l);
        self.inputs.trip(l)
    }

    /// Loop-carried dependences of a loop inside the candidate, or of the
    /// parent of one.
    pub fn deps(&self, l: LoopId) -> &'a LoopDeps {
        self.check_loop(l);
        &self.inputs.deps[l.index()]
    }

    /// Whether loop `outer`, inside the candidate, (transitively) contains
    /// loop `inner` — the answer of `LoopForest::contains`, read from the
    /// candidate's loops only: a loop outside the candidate never nests in
    /// one inside it.
    pub fn loop_contains(&self, outer: LoopId, inner: LoopId) -> bool {
        debug_assert!(self.is_within(outer), "loop {} is not inside", outer.0);
        let mut cur = Some(inner);
        while let Some(l) = cur {
            if l == outer {
                return true;
            }
            if !self.is_within(l) {
                return false;
            }
            cur = self.get_loop(l).parent;
        }
        false
    }

    /// The blocks of loop `l` in reverse post-order.
    pub fn rpo_blocks(&self, l: LoopId) -> Vec<BlockId> {
        let rpo = &self.inputs.ctx.cfg.rpo_index;
        let mut blocks: Vec<(usize, BlockId)> = self
            .get_loop(l)
            .blocks
            .iter()
            .filter_map(|&b| {
                self.check_block(b);
                rpo[b.index()].map(|i| (i, b))
            })
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks.into_iter().map(|(_, b)| b).collect()
    }

    /// Access records of the candidate's loads and stores, in instruction
    /// order.
    pub fn accesses(&self) -> impl Iterator<Item = &'a AccessInfo> + '_ {
        self.inputs
            .accesses
            .accesses
            .iter()
            .filter(|a| self.contains_block(a.block))
    }

    /// An array declaration.
    pub fn array(&self, a: ArrayId) -> &'a ArrayDecl {
        self.inputs.module.array(a)
    }
}

impl IrView for RegionInputs<'_> {
    fn instr(&self, id: InstrId) -> &Instr {
        #[cfg(debug_assertions)]
        assert!(self.reads.0[id.index()], "{id} is outside the read set");
        self.func.instr(id)
    }

    fn value_def(&self, v: ValueId) -> ValueDef {
        #[cfg(debug_assertions)]
        assert!(self.reads.1[v.index()], "{v} is outside the read set");
        self.func.values[v.index()]
    }
}

/// The instructions and values a region's instructions may read: the
/// instructions themselves, their operands, and each operand's defining
/// instruction.
#[cfg(debug_assertions)]
fn instr_reads(func: &Function, blocks: &[BlockId]) -> (Vec<bool>, Vec<bool>) {
    let mut instrs = vec![false; func.instrs.len()];
    let mut values = vec![false; func.values.len()];
    for &b in blocks {
        for &i in &func.block(b).instrs {
            instrs[i.index()] = true;
            func.instr(i).for_each_operand(|op| {
                if let Some(v) = op.as_value() {
                    values[v.index()] = true;
                    if let ValueDef::Instr(d) = func.values[v.index()] {
                        instrs[d.index()] = true;
                    }
                }
            });
        }
    }
    (instrs, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_analysis::memdep::analyse_loop_deps;
    use cayman_analysis::scev::Scev;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::Type;

    #[test]
    fn candidate_loop_queries() {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[4, 4]);
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 4, 1, |fb, i| {
                fb.counted_loop(0, 4, 1, |fb, j| {
                    let v = fb.load_idx(a, &[i, j]);
                    fb.store_idx(a, &[i, j], v);
                });
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let f = m.function(FuncId(0));
        let ctx = FuncCtx::compute(f);
        let mut scev = Scev::new(f, &ctx);
        let accesses = AccessAnalysis::run(&m, f, &ctx, &mut scev);
        let deps = analyse_loop_deps(f, &ctx, &mut scev, &accesses);
        let prints = FuncPrints::compute(&m, f, &ctx, &accesses, &deps);
        let counts = vec![1; f.blocks.len()];
        let inputs = FuncInputs {
            module: &m,
            func_id: FuncId(0),
            ctx: &ctx,
            accesses: &accesses,
            deps: &deps,
            trips: &[4.0, 4.0],
            block_counts: &counts,
            prints: &prints,
        };
        // candidate = the outer loop region (all loop blocks)
        let outer = ctx
            .forest
            .ids()
            .find(|&l| ctx.forest.get(l).depth == 1)
            .expect("outer");
        let cand = Candidate {
            func: FuncId(0),
            blocks: ctx.forest.get(outer).blocks.clone(),
            entries: 1,
            cpu_cycles: 1000,
            is_bb: false,
        };
        let r = RegionInputs::new(&inputs, &cand);
        assert_eq!(r.loops_within().len(), 2);
        let inner = r.innermost_loops();
        assert_eq!(inner.len(), 1);
        assert_eq!(ctx.forest.get(inner[0]).depth, 2);
        assert!(r.loop_contains(outer, inner[0]));
        assert!(!r.loop_contains(inner[0], outer));
        assert_eq!(r.accesses().count(), 2);

        // candidate = only the inner loop: its parent is readable, but
        // does not count as inside
        let cand2 = Candidate {
            func: FuncId(0),
            blocks: ctx.forest.get(inner[0]).blocks.clone(),
            entries: 4,
            cpu_cycles: 800,
            is_bb: false,
        };
        let r2 = RegionInputs::new(&inputs, &cand2);
        assert_eq!(r2.loops_within(), &inner[..]);
        assert_eq!(r2.innermost_loops(), inner);
        assert!(!r2.is_within(outer));
        assert_eq!(r2.trip(outer), 4.0);
        assert!(!r2.loop_contains(inner[0], outer));
        assert_ne!(r.key(), r2.key());
        assert_eq!(r.key(), RegionInputs::new(&inputs, &cand).key());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "outside the candidate")]
    fn reading_a_block_outside_the_candidate_panics_in_debug() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 4, 1, |_, _| {});
            fb.ret(None);
        });
        let m = mb.finish();
        let f = m.function(FuncId(0));
        let ctx = FuncCtx::compute(f);
        let mut scev = Scev::new(f, &ctx);
        let accesses = AccessAnalysis::run(&m, f, &ctx, &mut scev);
        let deps = analyse_loop_deps(f, &ctx, &mut scev, &accesses);
        let prints = FuncPrints::compute(&m, f, &ctx, &accesses, &deps);
        let counts = vec![1; f.blocks.len()];
        let inputs = FuncInputs {
            module: &m,
            func_id: FuncId(0),
            ctx: &ctx,
            accesses: &accesses,
            deps: &deps,
            trips: &[4.0],
            block_counts: &counts,
            prints: &prints,
        };
        let cand = Candidate {
            func: FuncId(0),
            blocks: vec![BlockId(1)],
            entries: 1,
            cpu_cycles: 10,
            is_bb: true,
        };
        RegionInputs::new(&inputs, &cand).count(BlockId(0));
    }
}
