//! Single-entry-single-exit (SESE) region discovery and the per-function
//! region tree — the function-local slice of the paper's wPST (§III-B).
//!
//! Two *ctrl-flow* region shapes cover the structured CFGs our builder (and
//! `-O3`-compiled benchmark code) produces:
//!
//! * **loop regions** — natural loops; SESE iff the loop has a single exit
//!   block,
//! * **conditional regions** — a branch block `b` (not a loop header) whose
//!   immediate post-dominator `j` joins all paths, with every block strictly
//!   between dominated by `b`.
//!
//! Every basic block additionally forms a *bb* region. Regions containing
//! `call` instructions are kept in the tree for structure but marked
//! non-accelerable (the paper's candidates are intra-procedural; cross-call
//! offload would break the entry/exit synchronisation argument of §III-B).

use crate::ctx::FuncCtx;
use cayman_ir::instr::{Instr, Terminator};
use cayman_ir::loops::LoopId;
use cayman_ir::{BlockId, Function};
use std::fmt;

/// Identifies a region within a [`RegionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RegionId(pub u32);

impl RegionId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RegionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// The shape of a region.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionKind {
    /// A single basic block (*bb* region in the paper).
    Bb(BlockId),
    /// A natural loop (*ctrl-flow* region).
    Loop(LoopId),
    /// A conditional diamond (*ctrl-flow* region): branch head and join.
    Cond {
        /// The branching block (region entry).
        head: BlockId,
        /// The join block (region exit; not part of the region).
        join: BlockId,
    },
}

impl RegionKind {
    /// Whether this is a *ctrl-flow* region (loop or conditional).
    pub fn is_ctrl_flow(self) -> bool {
        !matches!(self, RegionKind::Bb(_))
    }
}

/// One region in the tree.
#[derive(Debug, Clone)]
pub struct Region {
    /// Shape.
    pub kind: RegionKind,
    /// All blocks spanned by the region (for `Bb`, exactly one; for
    /// ctrl-flow regions, every contained block including nested regions').
    pub blocks: Vec<BlockId>,
    /// Child regions, outermost-first in block order.
    pub children: Vec<RegionId>,
    /// Parent region (`None` for function-top-level regions).
    pub parent: Option<RegionId>,
    /// Whether the region is single-entry-single-exit (a legal acceleration
    /// candidate shape).
    pub sese: bool,
    /// Whether the region may be offloaded: SESE and free of `call`
    /// instructions.
    pub accelerable: bool,
}

/// The region tree of one function.
#[derive(Debug, Clone)]
pub struct RegionTree {
    /// All regions.
    pub regions: Vec<Region>,
    /// Regions with no parent (direct children of the function vertex in the
    /// wPST).
    pub top: Vec<RegionId>,
}

impl RegionTree {
    /// Builds the region tree for `func`.
    pub fn build(func: &Function, ctx: &FuncCtx) -> Self {
        let mut regions: Vec<Region> = Vec::new();

        // --- ctrl-flow regions: loops --------------------------------------
        for lid in ctx.forest.ids() {
            let l = ctx.forest.get(lid);
            let sese = l.single_exit().is_some();
            regions.push(Region {
                kind: RegionKind::Loop(lid),
                blocks: l.blocks.clone(),
                children: Vec::new(),
                parent: None,
                sese,
                accelerable: sese,
            });
        }

        // --- ctrl-flow regions: conditionals --------------------------------
        for b in func.block_ids() {
            if !ctx.cfg.is_reachable(b) {
                continue;
            }
            // Loop headers' conditional branches are loop control, not
            // diamonds.
            if ctx.forest.loops.iter().any(|l| l.header == b) {
                continue;
            }
            let Terminator::CondBr { .. } = func.block(b).terminator() else {
                continue;
            };
            let Some(join) = ctx.pdom.idom_of(b) else {
                continue;
            };
            if join == b {
                continue;
            }
            // Forward walk from b, stopping at join.
            let mut blocks = vec![b];
            let mut stack = vec![b];
            let mut ok = true;
            while let Some(x) = stack.pop() {
                for &s in ctx.cfg.succs(x) {
                    if s == join || blocks.contains(&s) {
                        continue;
                    }
                    if !ctx.dom.dominates(b, s) {
                        ok = false; // side entry: not single-entry
                        break;
                    }
                    blocks.push(s);
                    stack.push(s);
                }
                if !ok {
                    break;
                }
            }
            if !ok {
                continue;
            }
            // The diamond must stay within b's loop context: every block's
            // innermost loop must contain (or equal) b's.
            let b_loop = ctx.forest.innermost_loop(b);
            let contextual = blocks.iter().all(|&x| {
                match (b_loop, ctx.forest.innermost_loop(x)) {
                    (None, None) => true,
                    (None, Some(_)) => true, // nested loop fully inside arm
                    (Some(bl), Some(xl)) => ctx.forest.contains(bl, xl),
                    (Some(_), None) => false, // escapes the loop: impossible if dominated, but be safe
                }
            });
            if !contextual {
                continue;
            }
            regions.push(Region {
                kind: RegionKind::Cond { head: b, join },
                blocks,
                children: Vec::new(),
                parent: None,
                sese: true,
                accelerable: true,
            });
        }

        // --- bb regions ------------------------------------------------------
        for b in func.block_ids() {
            if !ctx.cfg.is_reachable(b) {
                continue;
            }
            regions.push(Region {
                kind: RegionKind::Bb(b),
                blocks: vec![b],
                children: Vec::new(),
                parent: None,
                sese: true,
                accelerable: true,
            });
        }

        // --- parenting: smallest strictly-containing ctrl region ------------
        let ids: Vec<RegionId> = (0..regions.len() as u32).map(RegionId).collect();
        let contains = |outer: &Region, inner: &Region| -> bool {
            if !outer.kind.is_ctrl_flow() {
                return false;
            }
            // strict containment: superset of blocks and not the same region
            if outer.blocks.len() < inner.blocks.len() {
                return false;
            }
            let strict = outer.blocks.len() > inner.blocks.len() || outer.kind != inner.kind;
            strict && inner.blocks.iter().all(|b| outer.blocks.contains(b))
        };
        for &r in &ids {
            let mut best: Option<RegionId> = None;
            for &o in &ids {
                if o == r {
                    continue;
                }
                if contains(&regions[o.index()], &regions[r.index()]) {
                    best = match best {
                        None => Some(o),
                        Some(cur) => {
                            if regions[o.index()].blocks.len() < regions[cur.index()].blocks.len() {
                                Some(o)
                            } else {
                                best
                            }
                        }
                    };
                }
            }
            regions[r.index()].parent = best;
        }
        let mut top = Vec::new();
        for &r in &ids {
            match regions[r.index()].parent {
                Some(p) => regions[p.index()].children.push(r),
                None => top.push(r),
            }
        }

        // --- accelerability: calls poison the region and its ancestors ------
        let mut has_call = vec![false; regions.len()];
        for &r in &ids {
            let reg = &regions[r.index()];
            has_call[r.index()] = reg.blocks.iter().any(|&b| {
                func.block(b)
                    .instrs
                    .iter()
                    .any(|&i| matches!(func.instr(i), Instr::Call { .. }))
            });
        }
        for &r in &ids {
            if has_call[r.index()] {
                regions[r.index()].accelerable = false;
            }
        }

        RegionTree { regions, top }
    }

    /// Region lookup.
    pub fn get(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// Iterate region ids.
    pub fn ids(&self) -> impl Iterator<Item = RegionId> + '_ {
        (0..self.regions.len() as u32).map(RegionId)
    }

    /// The *bb* region for a block.
    pub fn bb_region(&self, b: BlockId) -> Option<RegionId> {
        self.ids().find(|&r| self.get(r).kind == RegionKind::Bb(b))
    }

    /// The region for a loop.
    pub fn loop_region(&self, l: LoopId) -> Option<RegionId> {
        self.ids()
            .find(|&r| self.get(r).kind == RegionKind::Loop(l))
    }

    /// Number of ctrl-flow regions.
    pub fn ctrl_flow_count(&self) -> usize {
        self.regions
            .iter()
            .filter(|r| r.kind.is_ctrl_flow())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::{FuncId, Type};

    fn build_tree(m: &cayman_ir::Module, f: FuncId) -> RegionTree {
        let func = m.function(f);
        let ctx = FuncCtx::compute(func);
        RegionTree::build(func, &ctx)
    }

    #[test]
    fn nested_loop_tree_shape() {
        let mut mb = ModuleBuilder::new("t");
        let a = mb.array("A", Type::F64, &[4, 4]);
        let f = mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 4, 1, |fb, i| {
                fb.counted_loop(0, 4, 1, |fb, j| {
                    let v = fb.load_idx(a, &[i, j]);
                    fb.store_idx(a, &[i, j], v);
                });
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let t = build_tree(&m, f);
        // 2 loop regions + 7 reachable bbs
        assert_eq!(t.ctrl_flow_count(), 2);
        let outer = t
            .ids()
            .find(|&r| matches!(t.get(r).kind, RegionKind::Loop(_)) && t.get(r).parent.is_none())
            .expect("outer loop is top-level");
        let inner = t
            .ids()
            .find(|&r| {
                matches!(t.get(r).kind, RegionKind::Loop(_)) && t.get(r).parent == Some(outer)
            })
            .expect("inner loop nests under outer");
        assert!(t.get(outer).sese && t.get(outer).accelerable);
        assert!(t.get(inner).sese);
        // the inner loop's bbs parent to the inner region
        for &b in &t.get(inner).blocks {
            let bb = t.bb_region(b).expect("bb region exists");
            assert_eq!(
                t.get(bb).parent,
                Some(inner),
                "bb {b} parents to inner loop"
            );
        }
        // top-level regions: outer loop + entry bb + two exit bbs
        assert!(t.top.contains(&outer));
    }

    #[test]
    fn conditional_region_detected() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[8]);
        let f = mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 8, 1, |fb, i| {
                let v = fb.load_idx(x, &[i]);
                let c = fb.fcmp_gt(v, fb.fconst(0.0));
                fb.if_then_else(
                    c,
                    |fb| fb.store_idx(x, &[i], v),
                    |fb| {
                        let n = fb.unary(cayman_ir::UnaryOp::FNeg, Type::F64, v);
                        fb.store_idx(x, &[i], n)
                    },
                );
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let t = build_tree(&m, f);
        let cond = t
            .ids()
            .find(|&r| matches!(t.get(r).kind, RegionKind::Cond { .. }))
            .expect("cond region found");
        let reg = t.get(cond);
        assert!(reg.sese && reg.accelerable);
        // diamond = head + then + else = 3 blocks
        assert_eq!(reg.blocks.len(), 3);
        // the cond nests inside the loop region
        let parent = reg.parent.expect("cond has a parent");
        assert!(matches!(t.get(parent).kind, RegionKind::Loop(_)));
    }

    #[test]
    fn call_poisons_accelerability() {
        let mut mb = ModuleBuilder::new("t");
        let g = mb.function("g", &[], None, |fb| fb.ret(None));
        let f = mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 4, 1, |fb, _i| {
                fb.call(g, &[], None);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let t = build_tree(&m, f);
        let lr = t
            .ids()
            .find(|&r| matches!(t.get(r).kind, RegionKind::Loop(_)))
            .expect("loop region");
        assert!(t.get(lr).sese, "loop is still SESE");
        assert!(!t.get(lr).accelerable, "but not accelerable due to call");
    }

    #[test]
    fn every_block_has_a_bb_region() {
        let mut mb = ModuleBuilder::new("t");
        let f = mb.function("f", &[], None, |fb| fb.ret(None));
        let m = mb.finish();
        let t = build_tree(&m, f);
        assert!(t.bb_region(cayman_ir::BlockId(0)).is_some());
    }
}
