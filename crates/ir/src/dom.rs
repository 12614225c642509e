//! Dominator and post-dominator trees (Cooper–Harvey–Kennedy iterative
//! algorithm).
//!
//! Single-entry-single-exit region discovery in `cayman-analysis` — the basis
//! of the paper's wPST — is phrased in terms of *`a` dominates `b`* and *`b`
//! post-dominates `a`*, so both trees live here.

use crate::cfg::Cfg;
use crate::module::{BlockId, Function};

/// A dominator tree (or post-dominator tree; see [`DomTree::post_dominators`]).
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator per block (`None` for the root and unreachable
    /// blocks).
    pub idom: Vec<Option<BlockId>>,
    /// The tree root (entry block for dominators, virtual-exit representative
    /// for post-dominators).
    pub root: Option<BlockId>,
    /// Depth of each block in the tree (root = 0); `usize::MAX` if absent.
    depth: Vec<usize>,
}

impl DomTree {
    /// Computes the dominator tree of `func`.
    pub fn dominators(func: &Function, cfg: &Cfg) -> Self {
        Self::compute(cfg.block_count(), Some(func.entry()), &cfg.rpo, |b| {
            cfg.preds(b)
        })
    }

    /// Computes the post-dominator tree of `func`.
    ///
    /// Multiple `ret` blocks are handled by iterating from all exits; when
    /// there is exactly one exit (the common case for builder-generated
    /// functions) the tree is rooted there. With multiple exits the root is
    /// the first exit and blocks that reach other exits only may have no
    /// post-dominator within the tree — region analysis treats those blocks
    /// conservatively (they never form SESE regions).
    pub fn post_dominators(func: &Function, cfg: &Cfg) -> Self {
        // Reverse CFG: post-order of the reverse graph ≈ reverse of rpo.
        // Compute an RPO of the reverse CFG starting from all exits.
        let n = cfg.block_count();
        let mut visited = vec![false; n];
        let mut post: Vec<BlockId> = Vec::with_capacity(n);
        let mut stack: Vec<(BlockId, usize)> = Vec::new();
        for &e in &cfg.exits {
            if visited[e.index()] {
                continue;
            }
            visited[e.index()] = true;
            stack.push((e, 0));
            while let Some(&mut (b, ref mut i)) = stack.last_mut() {
                let preds = cfg.preds(b);
                if *i < preds.len() {
                    let p = preds[*i];
                    *i += 1;
                    if !visited[p.index()] {
                        visited[p.index()] = true;
                        stack.push((p, 0));
                    }
                } else {
                    post.push(b);
                    stack.pop();
                }
            }
        }
        let rrpo: Vec<BlockId> = post.into_iter().rev().collect();
        let root = cfg.exits.first().copied();
        let _ = func;
        Self::compute(n, root, &rrpo, |b| cfg.succs(b))
    }

    /// Shared CHK fixpoint. `order` must be an RPO of the (possibly reversed)
    /// graph; `preds` borrows that graph's predecessors of a block.
    fn compute<'g>(
        n: usize,
        root: Option<BlockId>,
        order: &[BlockId],
        preds: impl Fn(BlockId) -> &'g [BlockId],
    ) -> Self {
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        let Some(root) = root else {
            return DomTree {
                idom,
                root: None,
                depth: vec![usize::MAX; n],
            };
        };
        let mut order_index = vec![usize::MAX; n];
        for (i, b) in order.iter().enumerate() {
            order_index[b.index()] = i;
        }
        idom[root.index()] = Some(root);

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while order_index[a.index()] > order_index[b.index()] {
                    a = idom[a.index()].expect("processed node has idom");
                }
                while order_index[b.index()] > order_index[a.index()] {
                    b = idom[b.index()].expect("processed node has idom");
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in order {
                if b == root {
                    continue;
                }
                let mut new_idom: Option<BlockId> = None;
                for &p in preds(b) {
                    if idom[p.index()].is_none() {
                        continue; // not yet processed / unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.index()] != Some(ni) {
                        idom[b.index()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        // Root's self-idom is an implementation detail; expose None.
        idom[root.index()] = None;

        // Every block's immediate dominator precedes it in `order`, so one
        // pass sets each depth from its parent's. A block the fixpoint left
        // without one (the root, or with several exits one reached only from
        // another exit) starts its own tree at depth 0.
        let mut depth = vec![usize::MAX; n];
        for &b in order {
            depth[b.index()] = match idom[b.index()] {
                Some(p) => {
                    debug_assert_ne!(depth[p.index()], usize::MAX, "idom precedes in order");
                    depth[p.index()] + 1
                }
                None => 0,
            };
        }

        DomTree {
            idom,
            root: Some(root),
            depth,
        }
    }

    /// Whether `a` dominates `b` (reflexively).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        if self.depth[b.index()] == usize::MAX || self.depth[a.index()] == usize::MAX {
            return false;
        }
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.index()] {
                Some(p) => cur = p,
                None => return false,
            }
        }
    }

    /// Whether `a` strictly dominates `b`.
    pub fn strictly_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a != b && self.dominates(a, b)
    }

    /// The immediate dominator of `b`.
    pub fn idom_of(&self, b: BlockId) -> Option<BlockId> {
        self.idom[b.index()]
    }

    /// Whether `b` is in the tree (reachable in the relevant direction).
    pub fn contains(&self, b: BlockId) -> bool {
        self.depth[b.index()] != usize::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    fn loop_func() -> crate::module::Module {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[4]);
        mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 4, 1, |fb, i| {
                let v = fb.load_idx(x, &[i]);
                fb.store_idx(x, &[i], v);
            });
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn loop_dominators() {
        let m = loop_func();
        let f = m.function(crate::module::FuncId(0));
        let cfg = Cfg::compute(f);
        let dom = DomTree::dominators(f, &cfg);
        // entry(0) dominates everything; header(1) dominates body(2)+exit(3).
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(dom.dominates(BlockId(1), BlockId(2)));
        assert!(dom.dominates(BlockId(1), BlockId(3)));
        assert!(!dom.dominates(BlockId(2), BlockId(3)));
        assert_eq!(dom.idom_of(BlockId(1)), Some(BlockId(0)));
        assert_eq!(dom.idom_of(BlockId(2)), Some(BlockId(1)));
        assert_eq!(dom.idom_of(BlockId(3)), Some(BlockId(1)));
        assert!(dom.strictly_dominates(BlockId(0), BlockId(1)));
        assert!(!dom.strictly_dominates(BlockId(1), BlockId(1)));
    }

    #[test]
    fn loop_post_dominators() {
        let m = loop_func();
        let f = m.function(crate::module::FuncId(0));
        let cfg = Cfg::compute(f);
        let pdom = DomTree::post_dominators(f, &cfg);
        // exit(3) post-dominates everything; header(1) post-dominates
        // body(2) and entry(0).
        assert!(pdom.dominates(BlockId(3), BlockId(0)));
        assert!(pdom.dominates(BlockId(1), BlockId(2)));
        assert!(pdom.dominates(BlockId(1), BlockId(0)));
        assert!(!pdom.dominates(BlockId(2), BlockId(1)));
        assert_eq!(pdom.root, Some(BlockId(3)));
    }

    #[test]
    fn diamond_dominators() {
        let mut mb = ModuleBuilder::new("t");
        mb.function("g", &[Type::I64], Some(Type::I64), |fb| {
            let p = fb.param(0);
            let z = fb.iconst(0);
            let c = fb.icmp_lt(p, z);
            let r = fb.if_then_else_val(c, Type::I64, |_| Operand::int(1), |_| Operand::int(2));
            fb.ret(Some(r));
        });
        use crate::instr::Operand;
        let m = mb.finish();
        let f = m.function(crate::module::FuncId(0));
        let cfg = Cfg::compute(f);
        let dom = DomTree::dominators(f, &cfg);
        let pdom = DomTree::post_dominators(f, &cfg);
        // entry(0) -> then(1)/else(2) -> join(3)
        assert_eq!(dom.idom_of(BlockId(3)), Some(BlockId(0)));
        assert!(pdom.dominates(BlockId(3), BlockId(1)));
        assert!(pdom.dominates(BlockId(3), BlockId(0)));
    }
}
