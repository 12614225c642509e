//! Natural-loop discovery and the loop-nest forest.
//!
//! A back edge `latch → header` (where `header` dominates `latch`) defines a
//! natural loop; loops sharing a header are united. The loop nest drives both
//! the wPST *ctrl-flow* regions and the control-flow optimisation decisions
//! (which loops to unroll, which innermost loops to pipeline).

use crate::cfg::Cfg;
use crate::dom::DomTree;
use crate::module::{BlockId, Function};

/// Identifies a loop within a [`LoopForest`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LoopId(pub u32);

impl LoopId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (target of the back edge(s)).
    pub header: BlockId,
    /// All blocks in the loop, header first.
    pub blocks: Vec<BlockId>,
    /// Latch blocks (sources of back edges).
    pub latches: Vec<BlockId>,
    /// Blocks outside the loop that loop blocks branch to.
    pub exit_blocks: Vec<BlockId>,
    /// The parent loop if this loop is nested, else `None`.
    pub parent: Option<LoopId>,
    /// Directly nested loops.
    pub children: Vec<LoopId>,
    /// Nesting depth (outermost = 1).
    pub depth: usize,
}

impl Loop {
    /// Whether this is an innermost loop (no nested loops).
    pub fn is_innermost(&self) -> bool {
        self.children.is_empty()
    }

    /// Whether the loop has a single exit block — required for it to be a
    /// single-entry-single-exit region.
    pub fn single_exit(&self) -> Option<BlockId> {
        match self.exit_blocks.as_slice() {
            [e] => Some(*e),
            _ => None,
        }
    }
}

/// All natural loops of a function, organised as a forest.
#[derive(Debug, Clone)]
pub struct LoopForest {
    /// Loops, in discovery order (outer loops may appear after inner ones).
    pub loops: Vec<Loop>,
    /// Innermost containing loop per block (`None` = not in any loop).
    pub loop_of_block: Vec<Option<LoopId>>,
}

impl LoopForest {
    /// Discovers the natural loops of `func`.
    pub fn compute(func: &Function, cfg: &Cfg, dom: &DomTree) -> Self {
        let n = cfg.block_count();

        // 1. Find back edges and group them by header.
        let mut headers: Vec<BlockId> = Vec::new();
        let mut latches_of: Vec<Vec<BlockId>> = Vec::new();
        for b in func.block_ids() {
            if !cfg.is_reachable(b) {
                continue;
            }
            for &s in cfg.succs(b) {
                if dom.dominates(s, b) {
                    // back edge b -> s
                    match headers.iter().position(|&h| h == s) {
                        Some(i) => latches_of[i].push(b),
                        None => {
                            headers.push(s);
                            latches_of.push(vec![b]);
                        }
                    }
                }
            }
        }

        // 2. Collect each loop's body: reverse reachability from latches,
        //    stopping at the header.
        let mut loops: Vec<Loop> = Vec::new();
        for (h, latches) in headers.iter().zip(&latches_of) {
            let mut in_loop = vec![false; n];
            in_loop[h.index()] = true;
            let mut stack: Vec<BlockId> = latches.clone();
            for l in latches {
                in_loop[l.index()] = true;
            }
            while let Some(b) = stack.pop() {
                if b == *h {
                    continue;
                }
                for &p in cfg.preds(b) {
                    if !in_loop[p.index()] {
                        in_loop[p.index()] = true;
                        stack.push(p);
                    }
                }
            }
            let mut blocks: Vec<BlockId> = vec![*h];
            blocks.extend(
                (0..n)
                    .map(|i| BlockId(i as u32))
                    .filter(|&b| b != *h && in_loop[b.index()]),
            );
            let mut exit_blocks: Vec<BlockId> = Vec::new();
            for &b in &blocks {
                for &s in cfg.succs(b) {
                    if !in_loop[s.index()] && !exit_blocks.contains(&s) {
                        exit_blocks.push(s);
                    }
                }
            }
            loops.push(Loop {
                header: *h,
                blocks,
                latches: latches.clone(),
                exit_blocks,
                parent: None,
                children: Vec::new(),
                depth: 0,
            });
        }

        // 3. Nesting: loop A is nested in B iff B contains A's header and
        //    A != B. Parent = smallest containing loop.
        let ids: Vec<LoopId> = (0..loops.len() as u32).map(LoopId).collect();
        for &a in &ids {
            let mut best: Option<LoopId> = None;
            for &b in &ids {
                if a == b {
                    continue;
                }
                let la = loops[a.index()].header;
                if loops[b.index()].blocks.contains(&la) && loops[b.index()].header != la {
                    best = match best {
                        None => Some(b),
                        Some(cur) => {
                            if loops[b.index()].blocks.len() < loops[cur.index()].blocks.len() {
                                Some(b)
                            } else {
                                Some(cur)
                            }
                        }
                    };
                }
            }
            loops[a.index()].parent = best;
        }
        for &a in &ids {
            if let Some(p) = loops[a.index()].parent {
                loops[p.index()].children.push(a);
            }
        }
        // Depths.
        for &a in &ids {
            let mut d = 1;
            let mut cur = loops[a.index()].parent;
            while let Some(p) = cur {
                d += 1;
                cur = loops[p.index()].parent;
            }
            loops[a.index()].depth = d;
        }

        // 4. Innermost loop per block.
        let mut loop_of_block: Vec<Option<LoopId>> = vec![None; n];
        for &a in &ids {
            for &b in &loops[a.index()].blocks {
                loop_of_block[b.index()] = match loop_of_block[b.index()] {
                    None => Some(a),
                    Some(cur) => {
                        if loops[a.index()].blocks.len() < loops[cur.index()].blocks.len() {
                            Some(a)
                        } else {
                            Some(cur)
                        }
                    }
                };
            }
        }

        LoopForest {
            loops,
            loop_of_block,
        }
    }

    /// The innermost loop containing `b`.
    pub fn innermost_loop(&self, b: BlockId) -> Option<LoopId> {
        self.loop_of_block[b.index()]
    }

    /// Whether loop `outer` (transitively) contains loop `inner`.
    pub fn contains(&self, outer: LoopId, inner: LoopId) -> bool {
        let mut cur = Some(inner);
        while let Some(l) = cur {
            if l == outer {
                return true;
            }
            cur = self.loops[l.index()].parent;
        }
        false
    }

    /// Loop lookup.
    pub fn get(&self, id: LoopId) -> &Loop {
        &self.loops[id.index()]
    }

    /// Iterate loop ids.
    pub fn ids(&self) -> impl Iterator<Item = LoopId> + '_ {
        (0..self.loops.len() as u32).map(LoopId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::module::FuncId;
    use crate::types::Type;

    #[test]
    fn nested_loops_form_a_nest() {
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
        let cfg = Cfg::compute(f);
        let dom = DomTree::dominators(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dom);
        assert_eq!(forest.loops.len(), 2);
        let outer = forest
            .ids()
            .find(|&l| forest.get(l).depth == 1)
            .expect("outer loop");
        let inner = forest
            .ids()
            .find(|&l| forest.get(l).depth == 2)
            .expect("inner loop");
        assert!(forest.get(inner).is_innermost());
        assert!(!forest.get(outer).is_innermost());
        assert_eq!(forest.get(inner).parent, Some(outer));
        assert_eq!(forest.get(outer).children, vec![inner]);
        assert!(forest.contains(outer, inner));
        assert!(!forest.contains(inner, outer));
        // Both loops are single-exit (builder emits canonical shape).
        assert!(forest.get(inner).single_exit().is_some());
        assert!(forest.get(outer).single_exit().is_some());
        // Inner loop blocks map to the inner loop.
        let ih = forest.get(inner).header;
        assert_eq!(forest.innermost_loop(ih), Some(inner));
    }

    #[test]
    fn straight_line_has_no_loops() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("f", &[], None, |fb| fb.ret(None));
        let m = mb.finish();
        let f = m.function(FuncId(0));
        let cfg = Cfg::compute(f);
        let dom = DomTree::dominators(f, &cfg);
        let forest = LoopForest::compute(f, &cfg, &dom);
        assert!(forest.loops.is_empty());
        assert_eq!(forest.innermost_loop(BlockId(0)), None);
    }
}
