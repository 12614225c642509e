//! `edit-loop`: interactive use of incremental re-analysis.
//!
//! The 120 kernels with a float-immediate edit site are each held in an
//! `IncrementalApp`, warmed during set-up. They are dealt alternately to
//! [`SESSIONS`] editing sessions, one per CPU, each on its own thread
//! pinned to that CPU. A session's seeded stream visits its kernels; a visit
//! makes two fresh single-instruction edits to one function and then
//! reverts it. One op is `apply` + `select`. Fresh edits re-run
//! `core::inc`'s dirty queries and the `ir` interpreter; reverts are pure
//! content-hash hits. The 2:1 mix keeps p50 in the fresh-edit mode. Both
//! sessions pause between visits after every second for the host-speed
//! probe ([`crate::speed`]).
//!
//! One session per CPU, rather than one session, samples both CPUs in every
//! run: on a shared host each CPU has slow spells of its own, lasting up to
//! tens of seconds, and a single thread's op times followed whichever CPU
//! it ran on.
//!
//! Every fresh edit adds entries to the app's query store, which nothing
//! evicts. So that memory stays bounded, a kernel's app is re-warmed from
//! scratch, outside the timed ops, after [`SESSION_VISITS`] visits.

use crate::edits::{sites, FreshEdit, Site};
use crate::golden::{front_digest, Golden};
use crate::host;
use crate::report::Report;
use crate::rng::Rng;
use crate::speed::{put_ops, Issued, Pacer, Seat};
use crate::trace::{Recorder, SelfTimes};
use crate::{analyse_opts, put_checks, put_layer, put_peak_rss, select_opts, timed_setup, Ctx};
use cayman::ir::interp::Interp;
use cayman::workloads::Workload;
use cayman::{Edit, Framework, IncStats, IncrementalApp, SelectOptions};
use std::time::{Duration, Instant};

/// Editing sessions, each on its own thread and CPU.
const SESSIONS: usize = 2;
/// Visits per warm session before a kernel's app is re-warmed.
const SESSION_VISITS: u32 = 4;
/// Fresh-edit states re-checked from scratch after timing (a seeded sample;
/// each check is a cold analyse + select).
const CHECK_CAP: usize = 400;

struct Kernel {
    idx: usize,
    sites: Vec<Site>,
    app: IncrementalApp,
    visits: u32,
}

fn warm(w: &Workload, sel: &SelectOptions) -> IncrementalApp {
    let mut app = IncrementalApp::new(w.module.clone(), Some(w.memory()), analyse_opts());
    app.select(sel).expect("corpus kernel analyses");
    app
}

#[derive(Clone, Copy)]
enum Step {
    Fresh(FreshEdit),
    Revert(usize),
}

#[derive(Default)]
struct Counts {
    ops: u64,
    wall_ns: f64,
    blocks: u64,
    exec_ns: f64,
    visited: u64,
    model_evals: u64,
    cache_hits: u64,
    cache_misses: u64,
    exec: (u64, u64),
    app: (u64, u64),
    select: (u64, u64),
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        let pair = |a: &mut (u64, u64), b: (u64, u64)| {
            a.0 += b.0;
            a.1 += b.1;
        };
        self.ops += o.ops;
        self.wall_ns += o.wall_ns;
        self.blocks += o.blocks;
        self.exec_ns += o.exec_ns;
        self.visited += o.visited;
        self.model_evals += o.model_evals;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
        pair(&mut self.exec, o.exec);
        pair(&mut self.app, o.app);
        pair(&mut self.select, o.select);
    }
}

fn hits_misses(before: &IncStats, after: &IncStats, acc: &mut Counts) {
    acc.exec.0 += after.exec.hits - before.exec.hits;
    acc.exec.1 += after.exec.misses - before.exec.misses;
    acc.app.0 += after.app.hits - before.app.hits;
    acc.app.1 += after.app.misses - before.app.misses;
    acc.select.0 += after.select.hits - before.select.hits;
    acc.select.1 += after.select.misses - before.select.misses;
}

/// What one session's ops add up to.
#[derive(Default)]
struct Session {
    attempted: u64,
    failed: u64,
    mismatches: u64,
    problems: Vec<String>,
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    fresh_ms: Vec<f64>,
    /// Seconds spent in untraced ops.
    busy_s: f64,
    fresh_log: Vec<(usize, FreshEdit, (usize, u64))>,
    layers: SelfTimes,
    counts: Counts,
    rewarms: u64,
}

/// Runs session `id` over `kernels` until its seat's horizon.
fn session(
    ctx: &Ctx,
    rec: &Recorder,
    (ws, golden): (&[Workload], &Golden),
    kernels: &mut [Kernel],
    id: usize,
    mut seat: Seat,
) -> Session {
    let sel = select_opts(1);
    let mut rng = Rng::stream(ctx.seed, 1 + 10 * id as u64);
    let mut s = Session::default();
    let mut local_op = 0u64;
    while seat.go_on() {
        let pick = rng.below(kernels.len());
        let k = &mut kernels[pick];
        let w = &ws[k.idx];
        if k.visits == SESSION_VISITS {
            k.app = warm(w, &sel);
            k.visits = 0;
            s.rewarms += 1;
        }
        k.visits += 1;
        let first = FreshEdit::draw(&mut rng, &k.sites);
        let same_func: Vec<Site> = k
            .sites
            .iter()
            .copied()
            .filter(|s| s.func == first.site.func)
            .collect();
        let second = FreshEdit::draw(&mut rng, &same_func);
        for step in [
            Step::Fresh(first),
            Step::Fresh(second),
            Step::Revert(first.site.func),
        ] {
            local_op += 1;
            // Op ids are unique across sessions.
            let op = local_op * SESSIONS as u64 + id as u64;
            s.attempted += 1;
            let (func, body) = match step {
                Step::Fresh(e) => e.body(&w.module),
                Step::Revert(f) => (cayman::ir::FuncId(f as u32), w.module.functions[f].clone()),
            };
            let edit = Edit::ReplaceFunction { func, body };
            let traced = ctx.trace && local_op % 2 == 1;
            let before = *k.app.stats();
            let t0 = Instant::now();
            let (res, analysed) = if traced {
                let root = rec.open("edit-loop.op", 0, op);
                let span = rec.open("inc.apply", root.id, op);
                let applied = k.app.apply(edit);
                rec.close(span);
                let span = rec.open("inc.analyse", root.id, op);
                let analysed = applied.and_then(|()| k.app.analyse());
                rec.close(span);
                let span = rec.open("inc.select", root.id, op);
                let res = analysed
                    .as_ref()
                    .map_err(|_| ())
                    .and_then(|_| k.app.select(&sel).map_err(|_| ()));
                rec.close(span);
                s.counts.wall_ns += rec.close(root) as f64;
                (res, analysed.ok())
            } else {
                let res = k
                    .app
                    .apply(edit)
                    .and_then(|()| k.app.select(&sel))
                    .map_err(|_| ());
                (res, None)
            };
            let secs = t0.elapsed().as_secs_f64();
            let Ok(res) = res else {
                s.failed += 1;
                continue;
            };
            let digest = front_digest(&res.pareto);
            match step {
                Step::Fresh(e) => {
                    s.fresh_log.push((k.idx, e, digest));
                    s.fresh_ms.push(secs * 1e3);
                }
                Step::Revert(_) => {
                    if digest != golden.row(w.name).mem {
                        s.mismatches += 1;
                    }
                }
            }
            if !traced {
                s.busy_s += secs;
                s.untraced_ms.push(secs * 1e3);
                continue;
            }
            s.traced_ms.push(secs * 1e3);
            rec.finish_op(op, &mut s.layers);
            let c = &mut s.counts;
            c.ops += 1;
            let after = *k.app.stats();
            hits_misses(&before, &after, c);
            if after.select.misses > before.select.misses {
                c.visited += res.visited as u64;
                c.model_evals += res.stats.configs_evaluated as u64;
                c.cache_hits += res.stats.cache_hits;
                c.cache_misses += res.stats.cache_misses;
            }
            if after.exec.misses > before.exec.misses {
                // Replays the interpreter run the exec query just made, so
                // its share of the op can be reported.
                let app = analysed.expect("traced op analysed");
                let mut interp = Interp::new(&app.module);
                interp.memory = w.memory();
                let span = rec.open("ir.exec", 0, op);
                let exec = interp.run(&[]);
                c.exec_ns += rec.close(span) as f64;
                match exec {
                    Ok(p) => c.blocks += p.blocks_executed(),
                    Err(e) => s
                        .problems
                        .push(format!("{}: exec replay failed: {e}", w.name)),
                }
                rec.finish_op(op, &mut SelfTimes::new());
            }
        }
    }
    s
}

pub fn run(ctx: &Ctx, rec: &Recorder) -> Report {
    let mut r = Report::new("edit-loop", ctx.seed, ctx.seconds, ctx.trace);
    let golden = Golden::load();
    let sel = select_opts(1);
    let (ws, kernels) = timed_setup(&mut r, |_| {
        let ws = cayman::workloads::full();
        let kernels: Vec<Kernel> = ws
            .iter()
            .enumerate()
            .filter_map(|(idx, w)| {
                let sites = sites(&w.module);
                (!sites.is_empty()).then(|| Kernel {
                    idx,
                    sites,
                    app: warm(w, &sel),
                    visits: 0,
                })
            })
            .collect();
        (ws, kernels)
    });
    r.param("kernels", kernels.len());
    r.param("sessions", SESSIONS);
    r.param("session_visits", SESSION_VISITS);
    r.param("mix", "2 fresh edits + 1 revert per visit");

    // Kernels are dealt alternately, so each session edits every suite.
    let mut dealt: Vec<Vec<Kernel>> = (0..SESSIONS).map(|_| Vec::new()).collect();
    for (i, k) in kernels.into_iter().enumerate() {
        dealt[i % SESSIONS].push(k);
    }
    let pacer = Pacer::new(SESSIONS, Instant::now(), Duration::from_secs(ctx.seconds));
    let sessions: Vec<(bool, Session)> = std::thread::scope(|scope| {
        let workers: Vec<_> = dealt
            .iter_mut()
            .enumerate()
            .map(|(id, kernels)| {
                let cpu = host::cpu_for(id);
                let (ws, golden, pacer) = (&ws[..], &golden, &pacer);
                scope.spawn(move || {
                    let pinned = cpu.is_some_and(|c| host::pin(0, c));
                    (
                        pinned,
                        session(ctx, rec, (ws, golden), kernels, id, pacer.seat()),
                    )
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("edit session"))
            .collect()
    });
    put_peak_rss(&mut r);
    r.param(
        "pinned_sessions",
        sessions.iter().filter(|(pinned, _)| *pinned).count(),
    );

    let issued: Vec<Issued> = sessions
        .iter()
        .map(|(_, s)| Issued {
            ops: s.untraced_ms.len(),
            busy_s: s.busy_s,
            latency_ms: &s.untraced_ms,
        })
        .collect();
    put_ops(&mut r, ctx, &pacer, &issued);

    let mut all = Session::default();
    for (_, s) in sessions {
        all.attempted += s.attempted;
        all.failed += s.failed;
        all.mismatches += s.mismatches;
        all.problems.extend(s.problems);
        all.untraced_ms.extend(s.untraced_ms);
        all.traced_ms.extend(s.traced_ms);
        all.fresh_ms.extend(s.fresh_ms);
        all.fresh_log.extend(s.fresh_log);
        for (name, ns) in s.layers {
            *all.layers.entry(name).or_default() += ns;
        }
        all.counts.add(&s.counts);
        all.rewarms += s.rewarms;
    }
    r.attempted += all.attempted;
    r.failed += all.failed;
    r.mismatches += all.mismatches;
    r.problems.extend(all.problems);
    r.param("rewarmed_sessions", all.rewarms);

    if let Some(l) = crate::stats::Latency::of(&mut all.fresh_ms) {
        r.put("fresh_edit_p50_ms", l.p50, "ms");
    }

    // Fresh states change with the seed, so a seeded sample of them is
    // checked against a from-scratch analyse + select.
    let fresh_log = all.fresh_log;
    let mut picks: Vec<usize> = (0..fresh_log.len()).collect();
    Rng::stream(ctx.seed, 2).shuffle(&mut picks);
    picks.truncate(CHECK_CAP);
    for &i in &picks {
        let (idx, e, digest) = fresh_log[i];
        let w = &ws[idx];
        let edited = Workload {
            suite: w.suite,
            name: w.name,
            module: e.module(&w.module),
            fills: w.fills.clone(),
        };
        match Framework::from_workload_with(&edited, &analyse_opts()) {
            Ok(fw) if front_digest(&fw.select(&sel).pareto) == digest => {}
            _ => r.mismatches += 1,
        }
    }
    r.put("checked_fresh_states", picks.len() as f64, "count");

    if ctx.trace {
        let (layers, c) = (&all.layers, &all.counts);
        let ns = |k: &str| layers.get(k).copied().unwrap_or(0) as f64;
        let mut covered = 0.0;
        for layer in ["inc.apply", "inc.analyse", "inc.select"] {
            covered += ns(layer);
            put_layer(&mut r, layer, ns(layer), c.ops, c.wall_ns);
        }
        // The exec replay breaks inc.analyse down; not part of coverage.
        put_layer(&mut r, "ir.exec", c.exec_ns, c.ops, c.wall_ns);
        let ratio = crate::stats::ratio;
        let per_op = |n: u64| ratio(n as f64, c.ops as f64);
        let hit = |(h, m): (u64, u64)| ratio(h as f64, (h + m) as f64);
        r.put("ir.exec.blocks", per_op(c.blocks), "count/op");
        r.put("inc.exec.hit_ratio", hit(c.exec), "ratio");
        r.put("inc.app.hit_ratio", hit(c.app), "ratio");
        r.put("inc.select.hit_ratio", hit(c.select), "ratio");
        r.put("select.visited", per_op(c.visited), "count/op");
        r.put("select.model_evals", per_op(c.model_evals), "count/op");
        // Without a disk store every design-cache miss is a model call.
        r.put("hls.model.calls", per_op(c.cache_misses), "count/op");
        r.put(
            "select.cache_hit_ratio",
            ratio(c.cache_hits as f64, (c.cache_hits + c.cache_misses) as f64),
            "ratio",
        );
        r.put("harness.coverage", ratio(covered, c.wall_ns), "ratio");
        crate::put_overhead(&mut r, &mut all.traced_ms, &mut all.untraced_ms);
    }
    put_checks(&mut r);
    r
}
