//! Deterministic work-stealing scheduler: the selection DP's parallel
//! engine, run when [`crate::SelectOptions::threads`] > 1 (the recursive
//! `Engine::dp` runs otherwise). Task parallelism chases the work wherever
//! it is in the tree, so a skewed wPST — one hot function, one deep
//! `ctrl-flow` chain — still keeps every worker busy:
//!
//! 1. **Plan** (caller thread): walk the unpruned wPST once and flatten it
//!    into a task graph. Every `bb` leaf and every `ctrl-flow` vertex's own
//!    `accel(v, R)` call — the model invocations, which dominate the run —
//!    becomes an independent task. Every internal vertex becomes an
//!    inner node with one *pre-allocated result slot per child* (plus the
//!    `ctrl` slot for its own `accel` designs when it is `ctrl-flow`) and a
//!    pending counter.
//!    Pruned children, and function vertices answered from the front
//!    table, are pre-filled at plan time.
//! 2. **Execute**: every task goes onto one `Mutex<VecDeque>`. The caller
//!    is worker 0: it pops from the front until the deque is empty. The
//!    other `threads - 1` workers run on the process-wide selection pool
//!    (`crate::pool`): parked helpers that wake when the run starts and
//!    steal from the back while at least two tasks remain. They leave the
//!    last task to the caller, which would otherwise sit waiting for a
//!    helper to finish it. Execution never enqueues tasks, so an empty
//!    deque is terminal. A helper that wakes after the caller has drained
//!    the deque finds nothing to do, so a small wPST costs about what
//!    `Engine::dp` costs.
//! 3. **Combine**: delivering a result into the last empty slot of an
//!    `Inner` makes its owner run `Engine::fold` over the slots — the fold
//!    the sequential engine runs, *strictly in child order* — and cascade
//!    the folded front into the parent's slot, iteratively up the tree (no
//!    recursion, so deep `ctrl-flow` chains cannot overflow the stack). The
//!    cascade stops below the root: the caller folds the root, usually the
//!    largest fold of the run, once every helper has left.
//!
//! Each task runs under a `select.task.*` trace span on its worker's lane,
//! which is where per-worker time is read.
//!
//! Determinism does not depend on the steal interleaving: each slot value is
//! a pure function of its subtree, the fold consumes slots in child order,
//! and `visited`/`pruned` are counted once during the single-threaded plan.
//! The resulting Pareto front is therefore bit-identical to the sequential
//! run for every thread count — the float summation order inside `combine`
//! never changes.

use crate::dp::Engine;
use crate::pareto::Solution;
use crate::pool;
use crate::stats::AtomicStats;
use cayman_analysis::wpst::WpstNodeId;
use cayman_hls::design::AcceleratorDesign;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A single-value type kept only for the [`crate::SelectOptions::sched`]
/// field, which no code reads: `threads` alone picks the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedKind {
    /// Work stealing (this module) when `threads > 1`.
    #[default]
    WorkSteal,
}

/// Destination of a task result: an [`Inner`] index and a slot within it.
type Dest = (u32, u32);

/// An internal (non-`bb`, unpruned) wPST vertex awaiting its inputs.
struct Inner<'a> {
    /// The vertex itself.
    v: WpstNodeId,
    /// Where this vertex's folded front goes; `None` for the root.
    parent: Option<Dest>,
    /// The results the fold reads.
    slots: Mutex<Slots<'a>>,
    /// Undelivered slots. The worker that delivers the last one folds,
    /// except at the root, which the caller folds after the run.
    pending: AtomicUsize,
}

/// The result slots of an [`Inner`].
#[derive(Default)]
struct Slots<'a> {
    /// One front per child, in child order. Pruned children and stored
    /// fronts are pre-filled at plan time.
    fronts: Vec<Option<Cow<'a, [Solution]>>>,
    /// The `ctrl` slot: a `ctrl-flow` vertex's own `accel(v, R)` designs,
    /// as the design cache holds them. The fold ranks them after the child
    /// fronts, exactly as in `Engine::dp`. Always `None` for other vertices.
    designs: Option<Arc<Vec<AcceleratorDesign>>>,
}

/// A unit of schedulable work. All tasks are seeded before workers start;
/// running a task never enqueues another (folds cascade inline), which is
/// what makes "exit when the deque is empty" a sound termination rule.
enum Task {
    /// A `bb` leaf: `F[v] = filter(pareto(accel(v, R)))` into `dest`.
    Bb { v: WpstNodeId, dest: Dest },
    /// A `ctrl-flow` vertex's own `accel(v, R)`: the cached designs,
    /// uncopied, into the `ctrl` slot of `inner`. The fold ranks them and
    /// builds only the survivors.
    Accel { v: WpstNodeId, inner: u32 },
    /// A non-root internal vertex whose slots were all pre-filled at plan
    /// time (every child pruned, or no children): just run its fold.
    Ready { inner: u32 },
}

impl Task {
    /// Trace span name for executing this task.
    fn trace_name(&self) -> &'static str {
        match self {
            Task::Bb { .. } => "select.task.bb",
            Task::Accel { .. } => "select.task.accel",
            Task::Ready { .. } => "select.task.fold",
        }
    }
}

/// Runs the DP over the whole wPST on `threads` work-stealing workers.
/// Called with `threads >= 2`; the sequential path stays in `Engine::dp`.
pub(crate) fn run_work_stealing(engine: &Engine<'_>, threads: usize) -> Vec<Solution> {
    let root = engine.wpst.root();
    if engine.profile.share(root) < engine.opts.prune_share {
        AtomicStats::add_usize(&engine.stats.pruned, 1);
        return vec![Solution::empty()];
    }
    // The root vertex is WpstKind::Root, never a bb; guard anyway so the
    // scheduler stays total over arbitrary trees.
    if engine.wpst.is_bb(root) {
        AtomicStats::add_usize(&engine.stats.visited, 1);
        return engine.leaf(root);
    }
    let (inners, tasks) = plan(engine, root);
    let workers = threads.min(tasks.len()).max(1);
    let sched = Sched {
        engine,
        inners,
        deque: Mutex::new(tasks.into()),
    };
    pool::run(workers, &|w| sched.worker(w), || sched.worker(0));
    // Every task has run and every helper has left, so the root's slots
    // are all delivered. Its fold is one more task of the caller's.
    let _span = cayman_obs::span!("select.task.fold");
    sched.fold(&sched.inners[0])
}

/// Flattens the unpruned wPST into the task graph, the root first in the
/// returned inners. Single-threaded, so the `visited`/`pruned` counts it
/// records are identical to the sequential run's regardless of how
/// execution later interleaves.
fn plan<'a>(engine: &Engine<'a>, root: WpstNodeId) -> (Vec<Inner<'a>>, Vec<Task>) {
    let mut inners: Vec<Inner<'a>> = Vec::new();
    let mut tasks: Vec<Task> = Vec::new();
    // (vertex, destination of its folded front); vertices on the stack are
    // unpruned internal vertices, already counted as visited.
    let mut stack: Vec<(WpstNodeId, Option<Dest>)> = vec![(root, None)];
    AtomicStats::add_usize(&engine.stats.visited, 1);
    while let Some((v, parent)) = stack.pop() {
        let idx = inners.len() as u32;
        let children = &engine.wpst.node(v).children;
        let ctrl = engine.wpst.is_ctrl_flow(v);
        let stored = engine.stored_fronts(v);
        let mut fronts: Vec<Option<Cow<'a, [Solution]>>> = vec![None; children.len()];
        let mut pending = 0usize;
        for (i, &u) in children.iter().enumerate() {
            let dest = (idx, i as u32);
            if let Some(front) = stored.get(i).copied().flatten() {
                fronts[i] = Some(Cow::Borrowed(front));
            } else if engine.profile.share(u) < engine.opts.prune_share {
                AtomicStats::add_usize(&engine.stats.pruned, 1);
                fronts[i] = Some(Cow::Owned(vec![Solution::empty()]));
            } else if engine.wpst.is_bb(u) {
                AtomicStats::add_usize(&engine.stats.visited, 1);
                tasks.push(Task::Bb { v: u, dest });
                pending += 1;
            } else {
                AtomicStats::add_usize(&engine.stats.visited, 1);
                stack.push((u, Some(dest)));
                pending += 1;
            }
        }
        if ctrl {
            tasks.push(Task::Accel { v, inner: idx });
            pending += 1;
        }
        if pending == 0 && parent.is_some() {
            tasks.push(Task::Ready { inner: idx });
        }
        inners.push(Inner {
            v,
            parent,
            slots: Mutex::new(Slots {
                fronts,
                designs: None,
            }),
            pending: AtomicUsize::new(pending),
        });
    }
    (inners, tasks)
}

struct Sched<'e, 'a> {
    engine: &'e Engine<'a>,
    inners: Vec<Inner<'a>>,
    deque: Mutex<VecDeque<Task>>,
}

impl<'a> Sched<'_, 'a> {
    /// Runs worker `w` until [`Sched::pop`] ends its run.
    fn worker(&self, w: usize) {
        while let Some(task) = self.pop(w) {
            let _span = cayman_obs::span!(task.trace_name());
            self.run_task(task);
        }
    }

    /// The caller (worker 0) pops from the front; a helper steals from the
    /// back while at least two tasks remain. `None` ends the worker's run:
    /// execution never enqueues tasks.
    fn pop(&self, w: usize) -> Option<Task> {
        let mut deque = self.deque.lock().expect("sched deque poisoned");
        if w == 0 {
            return deque.pop_front();
        }
        if deque.len() < 2 {
            return None;
        }
        cayman_obs::instant("select.steal");
        deque.pop_back()
    }

    fn run_task(&self, task: Task) {
        match task {
            Task::Bb {
                v,
                dest: (inner, slot),
            } => {
                let front = Cow::Owned(self.engine.leaf(v));
                if self.deliver(inner, |s| s.fronts[slot as usize] = Some(front)) {
                    self.finish(inner);
                }
            }
            Task::Accel { v, inner } => {
                let designs = self.engine.accel(v);
                if self.deliver(inner, |s| s.designs = Some(designs)) {
                    self.finish(inner);
                }
            }
            Task::Ready { inner } => self.finish(inner),
        }
    }

    /// Writes one result into the slots of `inner` and counts it delivered.
    /// Returns whether it was the last one: that worker owns the fold.
    fn deliver(&self, inner: u32, put: impl FnOnce(&mut Slots<'a>)) -> bool {
        let node = &self.inners[inner as usize];
        put(&mut node.slots.lock().expect("sched slots poisoned"));
        node.pending.fetch_sub(1, Ordering::AcqRel) == 1
    }

    /// Folds a completed vertex and cascades the result upward: each fold
    /// that completes its parent continues with the parent, iteratively, so
    /// a deep chain of `ctrl-flow` vertices folds in one loop instead of a
    /// recursion as deep as the tree. The cascade stops at the root, which
    /// the caller folds after the run.
    fn finish(&self, mut inner: u32) {
        loop {
            let node = &self.inners[inner as usize];
            let Some((p, slot)) = node.parent else {
                return;
            };
            let front = Cow::Owned(self.fold(node));
            if !self.deliver(p, |s| s.fronts[slot as usize] = Some(front)) {
                return;
            }
            inner = p;
        }
    }

    /// `Engine::fold` over the delivered slots: the child fronts in child
    /// order, then the `ctrl` slot's designs.
    fn fold(&self, node: &Inner<'a>) -> Vec<Solution> {
        let Slots { fronts, designs } =
            std::mem::take(&mut *node.slots.lock().expect("sched slots poisoned"));
        let child_fronts = fronts
            .into_iter()
            .map(|slot| slot.expect("child front delivered"))
            .collect();
        self.engine.fold(node.v, child_fronts, designs)
    }
}
