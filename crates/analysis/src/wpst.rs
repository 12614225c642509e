//! The whole-application program structure tree (wPST, §III-B).
//!
//! The wPST extends the classic program structure tree with a root vertex for
//! the entire application and one vertex per function; under each function
//! vertex hang that function's SESE regions ([`RegionTree`]). Region vertices
//! (both *bb* and *ctrl-flow*) are the acceleration candidates; root and
//! function vertices only combine their children's solutions (Algorithm 1's
//! `otherwise` case).

use crate::ctx::FuncCtx;
use crate::regions::{Region, RegionId, RegionKind, RegionTree};
use cayman_ir::{FuncId, Module};
use std::fmt::Write as _;
use std::sync::Arc;

/// Identifies a node in the [`Wpst`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WpstNodeId(pub u32);

impl WpstNodeId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The kind of a wPST vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WpstKind {
    /// The application root.
    Root,
    /// A function vertex.
    Func(FuncId),
    /// A region vertex (bb or ctrl-flow) of `func`.
    Region {
        /// Containing function.
        func: FuncId,
        /// Region within that function's [`RegionTree`].
        region: RegionId,
    },
}

/// One wPST vertex.
#[derive(Debug, Clone)]
pub struct WpstNode {
    /// Vertex kind.
    pub kind: WpstKind,
    /// Children in the tree.
    pub children: Vec<WpstNodeId>,
    /// Parent (`None` for the root).
    pub parent: Option<WpstNodeId>,
}

/// The whole-application program structure tree.
#[derive(Debug)]
pub struct Wpst {
    /// All vertices; `WpstNodeId(0)` is the root.
    pub nodes: Vec<WpstNode>,
    /// Per-function region trees (indexed by `FuncId`), shared with the
    /// analysis caches that computed them.
    pub region_trees: Vec<Arc<RegionTree>>,
    /// Per-function analysis contexts (indexed by `FuncId`), shared the
    /// same way.
    pub func_ctxs: Vec<Arc<FuncCtx>>,
}

impl Wpst {
    /// Builds the wPST of a module.
    pub fn build(module: &Module) -> Self {
        let _s = cayman_obs::span!("analyse.wpst", functions = module.functions.len());
        let mut region_trees = Vec::with_capacity(module.functions.len());
        let mut func_ctxs = Vec::with_capacity(module.functions.len());
        for f in module.function_ids() {
            let func = module.function(f);
            let ctx = FuncCtx::compute(func);
            region_trees.push(RegionTree::build(func, &ctx));
            func_ctxs.push(ctx);
        }
        Self::from_parts(region_trees, func_ctxs)
    }

    /// Assembles a wPST from per-function analyses computed (or cached)
    /// elsewhere. [`Wpst::build`] is exactly `from_parts` over freshly
    /// computed parts, so the node numbering is identical between the two —
    /// each function's subtree occupies a contiguous id range determined
    /// only by the preceding functions' region counts and its own region
    /// tree. Incremental re-analysis relies on this: a cached per-function
    /// `(FuncCtx, RegionTree)` pair reassembles into a wPST bit-identical
    /// to a from-scratch build. Parts passed as `Arc`s are shared, not
    /// copied.
    pub fn from_parts(
        region_trees: Vec<impl Into<Arc<RegionTree>>>,
        func_ctxs: Vec<impl Into<Arc<FuncCtx>>>,
    ) -> Self {
        assert_eq!(region_trees.len(), func_ctxs.len());
        let region_trees: Vec<Arc<RegionTree>> = region_trees.into_iter().map(Into::into).collect();
        let func_ctxs = func_ctxs.into_iter().map(Into::into).collect();
        let mut nodes = vec![WpstNode {
            kind: WpstKind::Root,
            children: Vec::new(),
            parent: None,
        }];

        for (fidx, tree) in region_trees.iter().enumerate() {
            let f = FuncId(fidx as u32);
            let fnode = WpstNodeId(nodes.len() as u32);
            nodes.push(WpstNode {
                kind: WpstKind::Func(f),
                children: Vec::new(),
                parent: Some(WpstNodeId(0)),
            });
            nodes[0].children.push(fnode);

            // Insert regions depth-first so that children exist after their
            // parents; map RegionId -> WpstNodeId.
            let mut map = vec![WpstNodeId(0); tree.regions.len()];
            let mut stack: Vec<(RegionId, WpstNodeId)> =
                tree.top.iter().map(|&r| (r, fnode)).collect();
            while let Some((r, parent)) = stack.pop() {
                let id = WpstNodeId(nodes.len() as u32);
                nodes.push(WpstNode {
                    kind: WpstKind::Region { func: f, region: r },
                    children: Vec::new(),
                    parent: Some(parent),
                });
                nodes[parent.index()].children.push(id);
                map[r.index()] = id;
                for &c in &tree.get(r).children {
                    stack.push((c, id));
                }
            }
        }

        Wpst {
            nodes,
            region_trees,
            func_ctxs,
        }
    }

    /// The root vertex.
    pub fn root(&self) -> WpstNodeId {
        WpstNodeId(0)
    }

    /// Node lookup.
    pub fn node(&self, id: WpstNodeId) -> &WpstNode {
        &self.nodes[id.index()]
    }

    /// Iterate node ids.
    pub fn ids(&self) -> impl Iterator<Item = WpstNodeId> + '_ {
        (0..self.nodes.len() as u32).map(WpstNodeId)
    }

    /// The region behind a `Region` vertex.
    pub fn region(&self, id: WpstNodeId) -> Option<(&Region, FuncId)> {
        match self.node(id).kind {
            WpstKind::Region { func, region } => {
                Some((self.region_trees[func.index()].get(region), func))
            }
            _ => None,
        }
    }

    /// Whether a vertex is a *bb* region.
    pub fn is_bb(&self, id: WpstNodeId) -> bool {
        matches!(
            self.region(id),
            Some((
                Region {
                    kind: RegionKind::Bb(_),
                    ..
                },
                _
            ))
        )
    }

    /// Whether a vertex is a *ctrl-flow* region.
    pub fn is_ctrl_flow(&self, id: WpstNodeId) -> bool {
        matches!(self.region(id), Some((r, _)) if r.kind.is_ctrl_flow())
    }

    /// Total number of region vertices.
    pub fn region_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| matches!(n.kind, WpstKind::Region { .. }))
            .count()
    }

    /// Renders the tree as indented text (Fig. 2c style).
    pub fn to_text(&self, module: &Module) -> String {
        let mut out = String::new();
        self.render(module, self.root(), 0, &mut out);
        out
    }

    fn render(&self, module: &Module, id: WpstNodeId, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        match self.node(id).kind {
            WpstKind::Root => {
                let _ = writeln!(out, "{indent}root ({})", module.name);
            }
            WpstKind::Func(f) => {
                let _ = writeln!(out, "{indent}func @{}", module.function(f).name);
            }
            WpstKind::Region { func, region } => {
                let r = self.region_trees[func.index()].get(region);
                let fun = module.function(func);
                match r.kind {
                    RegionKind::Bb(b) => {
                        let _ = writeln!(out, "{indent}bb {} ({})", b, fun.block(b).name);
                    }
                    RegionKind::Loop(l) => {
                        let header = self.func_ctxs[func.index()].forest.get(l).header;
                        let _ = writeln!(
                            out,
                            "{indent}ctrl-flow loop@{header} [{} blocks]{}",
                            r.blocks.len(),
                            if r.accelerable {
                                ""
                            } else {
                                " (not accelerable)"
                            }
                        );
                    }
                    RegionKind::Cond { head, join } => {
                        let _ = writeln!(
                            out,
                            "{indent}ctrl-flow cond@{head}..{join} [{} blocks]",
                            r.blocks.len()
                        );
                    }
                }
            }
        }
        // Render children deterministically: sorted by id.
        let mut kids = self.node(id).children.clone();
        kids.sort_unstable();
        for c in kids {
            self.render(module, c, depth + 1, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_ir::builder::ModuleBuilder;
    use cayman_ir::Type;

    /// Builds the two-function program of Fig. 2a: `func0` with the `linear`
    /// loop and `func1` with the `outer`/`dot_product` nest.
    pub(crate) fn fig2_module() -> Module {
        const N: usize = 16;
        const M: usize = 8;
        let mut mb = ModuleBuilder::new("fig2");
        let x = mb.array("x", Type::F64, &[N]);
        let y = mb.array("y", Type::F64, &[N]);
        let a = mb.array("A", Type::F64, &[N, M]);
        let b = mb.array("B", Type::F64, &[N, M]);
        let z = mb.array("z", Type::F64, &[N]);
        let f0 = mb.function("func0", &[], None, |fb| {
            fb.counted_loop(0, N as i64, 1, |fb, i| {
                let xv = fb.load_idx(x, &[i]);
                let k = fb.fconst(2.0);
                let c = fb.fconst(1.0);
                let t = fb.fmul(k, xv);
                let v = fb.fadd(t, c);
                fb.store_idx(y, &[i], v);
            });
            fb.ret(None);
        });
        let f1 = mb.function("func1", &[], None, |fb| {
            fb.counted_loop(0, N as i64, 1, |fb, i| {
                fb.counted_loop(0, M as i64, 1, |fb, j| {
                    let av = fb.load_idx(a, &[i, j]);
                    let bv = fb.load_idx(b, &[i, j]);
                    let p = fb.fmul(av, bv);
                    let zv = fb.load_idx(z, &[i]);
                    let s = fb.fadd(zv, p);
                    fb.store_idx(z, &[i], s);
                });
            });
            fb.ret(None);
        });
        mb.function("main", &[], None, |fb| {
            fb.call(f0, &[], None);
            fb.call(f1, &[], None);
            fb.ret(None);
        });
        mb.finish()
    }

    #[test]
    fn fig2_wpst_shape() {
        let m = fig2_module();
        m.verify().expect("verifies");
        let wpst = Wpst::build(&m);
        // root has three function children
        assert_eq!(wpst.node(wpst.root()).children.len(), 3);
        // func1 contains two nested ctrl-flow regions
        let text = wpst.to_text(&m);
        assert!(text.contains("func @func0"), "{text}");
        assert!(text.contains("func @func1"), "{text}");
        let ctrl_count = wpst.ids().filter(|&n| wpst.is_ctrl_flow(n)).count();
        assert_eq!(ctrl_count, 3, "linear + outer + dot_product:\n{text}");
        // every non-root node's parent links back
        for id in wpst.ids() {
            if let Some(p) = wpst.node(id).parent {
                assert!(wpst.node(p).children.contains(&id));
            }
        }
    }

    #[test]
    fn bb_and_ctrl_flow_classification() {
        let m = fig2_module();
        let wpst = Wpst::build(&m);
        let bbs = wpst.ids().filter(|&n| wpst.is_bb(n)).count();
        let ctrls = wpst.ids().filter(|&n| wpst.is_ctrl_flow(n)).count();
        assert_eq!(bbs + ctrls, wpst.region_count());
        assert!(bbs > ctrls);
        // root/function vertices are neither
        assert!(!wpst.is_bb(wpst.root()));
        assert!(!wpst.is_ctrl_flow(wpst.root()));
    }
}
