//! Control-flow-graph utilities: predecessor/successor maps and orderings.

use crate::instr::Terminator;
use crate::module::{BlockId, Function};

/// Predecessor/successor lists plus a reverse post-order for one function.
///
/// Each list is a slice of one flat array, so building a `Cfg` allocates a
/// handful of vectors however many blocks the function has.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Block `b`'s successors are `succ_list[succ_at[b]..succ_at[b + 1]]`.
    succ_at: Vec<u32>,
    succ_list: Vec<BlockId>,
    /// Block `b`'s predecessors are `pred_list[pred_at[b]..pred_at[b + 1]]`.
    pred_at: Vec<u32>,
    pred_list: Vec<BlockId>,
    /// Reverse post-order from the entry block. Unreachable blocks are
    /// excluded.
    pub rpo: Vec<BlockId>,
    /// `rpo_index[b] = Some(position of b in rpo)`, `None` if unreachable.
    pub rpo_index: Vec<Option<usize>>,
    /// Blocks terminated by `ret` (CFG exits).
    pub exits: Vec<BlockId>,
}

impl Cfg {
    /// Computes the CFG for `func`.
    pub fn compute(func: &Function) -> Self {
        let n = func.blocks.len();
        let mut succ_at = Vec::with_capacity(n + 1);
        let mut succ_list = Vec::with_capacity(2 * n);
        let mut exits = Vec::new();
        succ_at.push(0);
        for b in func.block_ids() {
            match *func.block(b).terminator() {
                Terminator::Br(t) => succ_list.push(t),
                Terminator::CondBr {
                    then_bb, else_bb, ..
                } => succ_list.extend([then_bb, else_bb]),
                Terminator::Ret(_) => exits.push(b),
            }
            succ_at.push(succ_list.len() as u32);
        }

        // Predecessors by counting sort over the successor lists, so each
        // block's predecessors come in block order (one entry per edge).
        let mut pred_at = vec![0u32; n + 1];
        for s in &succ_list {
            pred_at[s.index() + 1] += 1;
        }
        for b in 0..n {
            pred_at[b + 1] += pred_at[b];
        }
        let mut fill = pred_at.clone();
        let mut pred_list = vec![BlockId(0); succ_list.len()];
        for b in 0..n {
            for &s in &succ_list[succ_at[b] as usize..succ_at[b + 1] as usize] {
                pred_list[fill[s.index()] as usize] = BlockId(b as u32);
                fill[s.index()] += 1;
            }
        }

        let mut cfg = Cfg {
            succ_at,
            succ_list,
            pred_at,
            pred_list,
            rpo: Vec::new(),
            rpo_index: vec![None; n],
            exits,
        };

        // Iterative DFS post-order from entry.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        // (block, next successor index to visit)
        let mut stack: Vec<(BlockId, usize)> = vec![(func.entry(), 0)];
        visited[func.entry().index()] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if let Some(&s) = cfg.succs(b).get(*i) {
                *i += 1;
                if !visited[s.index()] {
                    visited[s.index()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        cfg.rpo = post.into_iter().rev().collect();
        for (i, b) in cfg.rpo.iter().enumerate() {
            cfg.rpo_index[b.index()] = Some(i);
        }
        cfg
    }

    /// The successors of `b`, in terminator order (a `CondBr` to one block
    /// twice lists it twice).
    pub fn succs(&self, b: BlockId) -> &[BlockId] {
        &self.succ_list[self.succ_at[b.index()] as usize..self.succ_at[b.index() + 1] as usize]
    }

    /// The predecessors of `b`, in block order, once per edge.
    pub fn preds(&self, b: BlockId) -> &[BlockId] {
        &self.pred_list[self.pred_at[b.index()] as usize..self.pred_at[b.index() + 1] as usize]
    }

    /// Whether `b` is reachable from the entry.
    pub fn is_reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.index()].is_some()
    }

    /// Number of blocks (including unreachable ones).
    pub fn block_count(&self) -> usize {
        self.succ_at.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;
    use crate::types::Type;

    #[test]
    fn loop_cfg_shape() {
        let mut mb = ModuleBuilder::new("t");
        let x = mb.array("x", Type::F64, &[4]);
        let f = mb.function("f", &[], None, |fb| {
            fb.counted_loop(0, 4, 1, |fb, i| {
                let v = fb.load_idx(x, &[i]);
                fb.store_idx(x, &[i], v);
            });
            fb.ret(None);
        });
        let m = mb.finish();
        let func = m.function(f);
        let cfg = Cfg::compute(func);
        // entry(0) -> header(1) -> {body(2), exit(3)}; body -> header
        assert_eq!(cfg.succs(BlockId(0)), [BlockId(1)]);
        assert_eq!(cfg.succs(BlockId(1)), [BlockId(2), BlockId(3)]);
        assert_eq!(cfg.succs(BlockId(2)), [BlockId(1)]);
        assert!(cfg.succs(BlockId(3)).is_empty());
        assert_eq!(cfg.preds(BlockId(1)), [BlockId(0), BlockId(2)]);
        assert_eq!(cfg.exits, vec![BlockId(3)]);
        // RPO starts with entry and covers all four blocks.
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert_eq!(cfg.rpo.len(), 4);
        assert!(cfg.is_reachable(BlockId(3)));
    }
}
