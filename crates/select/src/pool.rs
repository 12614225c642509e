//! The process-wide selection pool: parked helper threads that join the
//! work-stealing scheduler's runs.
//!
//! [`run`] executes one run. The caller always works on it itself; the run
//! is also published to the pool, where parked helpers wake and take worker
//! indices `1..workers` for as long as the caller is still working. A
//! helper that wakes after the caller has finished finds nothing to take
//! and parks again, so a small run costs about what its work costs on one
//! thread, while a large one spreads over every helper that arrives.
//!
//! The pool starts empty and grows on demand to the largest `workers - 1`
//! any run has asked for; helpers never exit. One run owns the pool at a
//! time: a caller that finds it owned does the whole run alone. So however
//! many threads select at once, the process holds at most
//! `max(threads) - 1` helpers, and a run at `threads <= 1` (the recursive
//! engine) never touches the pool. Each helper is an OS thread named
//! `select.worker.<n>`, `n >= 1`, and names its trace lane the same.
//!
//! A helper body borrows its run's scheduler state, which lives on the
//! caller's stack, so handing it to a `'static` helper erases a lifetime.
//! That erasure is the crate's only `unsafe`; its soundness argument is
//! that [`run`] neither returns nor unwinds until every helper that took the
//! run has left it. A panic in a helper is caught there and re-raised on
//! the caller once the run is over.
//!
//! The time the caller spends waiting for helpers to leave, from the end
//! of its own body until the last helper is out, goes into the always-on
//! `select.pool.wait.nanos` histogram, once per run that claimed the pool.

use cayman_obs::hist::Histogram;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

/// One run's helper body: `work(w)` runs worker `w >= 1`.
type Work<'a> = dyn Fn(usize) + Sync + 'a;

struct Pool {
    state: Mutex<State>,
    /// Signalled when a run is published.
    wake: Condvar,
    /// Signalled when the last helper leaves a run.
    left: Condvar,
}

struct State {
    /// The published run's helper body, while its caller is still working.
    work: Option<&'static Work<'static>>,
    /// Counts published runs, so a helper joins each run at most once.
    run: u64,
    /// Worker indices the run hands to helpers: `1..=wanted`.
    wanted: usize,
    /// Worker indices handed out so far.
    taken: usize,
    /// Helpers inside the run's helper body.
    active: usize,
    /// The first panic caught on a helper during the run.
    panic: Option<Box<dyn Any + Send>>,
    /// A caller owns the pool.
    owned: bool,
    /// Helpers spawned so far.
    helpers: usize,
}

static POOL: Pool = Pool {
    state: Mutex::new(State {
        work: None,
        run: 0,
        wanted: 0,
        taken: 0,
        active: 0,
        panic: None,
        owned: false,
        helpers: 0,
    }),
    wake: Condvar::new(),
    left: Condvar::new(),
};

/// Locks the pool state. No code panics while holding the guard, so a
/// poisoned lock (impossible short of an allocation failure) still guards
/// consistent state.
fn lock() -> MutexGuard<'static, State> {
    POOL.state.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The caller's wait for its run's helpers, in nanoseconds.
fn wait_hist() -> &'static Histogram {
    static WAIT: OnceLock<&'static Histogram> = OnceLock::new();
    WAIT.get_or_init(|| cayman_obs::registry::hist("select.pool.wait.nanos"))
}

/// Runs `caller` on the calling thread while up to `workers - 1` pool
/// helpers run `helpers(1)`, `helpers(2)`, …, and returns once every helper
/// that joined has finished. `caller` must finish the run's work alone if
/// no helper joins, and `helpers` must return for any index however many
/// others run; the scheduler's workers do both. A panic in either reaches
/// the caller after the run is over.
#[allow(unsafe_code)]
pub(crate) fn run(workers: usize, helpers: &Work<'_>, caller: impl FnOnce()) {
    let wanted = workers.saturating_sub(1);
    if wanted == 0 {
        return caller();
    }
    // Fetched before the claim: from the claim until `owned` is cleared
    // below, nothing may panic.
    let wait = wait_hist();
    if !claim(wanted) {
        return caller();
    }
    // SAFETY: only the lifetime changes. The erased reference is stored in
    // `State::work` and read only by helpers that, under the same lock,
    // count themselves into `State::active` before leaving the lock. Below,
    // `run` clears `State::work` and waits for `active == 0` before it
    // returns, and nothing in between can unwind: `caller` runs under
    // `catch_unwind`, helper panics are caught on the helper, and the state
    // lock never panics. So no helper can touch `helpers` after the borrow
    // it was erased from ends.
    let erased = unsafe { std::mem::transmute::<&Work<'_>, &'static Work<'static>>(helpers) };
    {
        let mut st = lock();
        st.work = Some(erased);
        st.run += 1;
        st.wanted = wanted;
        st.taken = 0;
    }
    // Wake only as many helpers as the run can use: on a small host every
    // extra wake-up steals time from the workers.
    for _ in 0..wanted {
        POOL.wake.notify_one();
    }
    // The kernel often queues a woken helper on the caller's own CPU, where
    // it would not start until the caller is next preempted; by then the
    // caller has usually drained the deque alone. Yielding once lets such
    // a helper join now.
    std::thread::yield_now();
    let result = panic::catch_unwind(AssertUnwindSafe(caller));
    let waiting = Instant::now();
    let mut st = lock();
    st.work = None;
    while st.active > 0 {
        st = POOL.left.wait(st).unwrap_or_else(PoisonError::into_inner);
    }
    // Recorded while the run still owns the pool, so no other run's wait
    // lands between this run's claim and its release.
    wait.record(waiting.elapsed().as_nanos() as u64);
    let helper_panic = st.panic.take();
    st.owned = false;
    drop(st);
    if let Some(payload) = result.err().or(helper_panic) {
        panic::resume_unwind(payload);
    }
}

/// Takes ownership of the pool for one run, first growing it to `wanted`
/// helpers. `false` when another run owns it.
fn claim(wanted: usize) -> bool {
    let mut st = lock();
    if st.owned {
        return false;
    }
    st.owned = true;
    while st.helpers < wanted {
        let n = st.helpers + 1;
        let spawned = std::thread::Builder::new()
            .name(format!("select.worker.{n}"))
            .spawn(move || helper(n));
        // A helper that cannot be spawned is simply missing: the run's
        // other workers do its share.
        if spawned.is_err() {
            break;
        }
        st.helpers = n;
    }
    true
}

/// A helper's life: park until a run is published, take the next free
/// worker index while the caller still works, run it, repeat.
fn helper(n: usize) {
    let lane = || format!("select.worker.{n}");
    cayman_obs::lane(lane);
    // The lane is named once, in the first trace that sees this thread.
    let mut named = cayman_obs::enabled();
    let mut joined = 0;
    let mut st = lock();
    loop {
        match st.work {
            Some(work) if st.run != joined && st.taken < st.wanted => {
                joined = st.run;
                st.taken += 1;
                st.active += 1;
                let w = st.taken;
                drop(st);
                if !named && cayman_obs::enabled() {
                    cayman_obs::lane(lane);
                    named = true;
                }
                let outcome = panic::catch_unwind(AssertUnwindSafe(|| work(w)));
                st = lock();
                if let Err(payload) = outcome {
                    st.panic.get_or_insert(payload);
                }
                st.active -= 1;
                if st.active == 0 {
                    POOL.left.notify_all();
                }
            }
            _ => st = POOL.wake.wait(st).unwrap_or_else(PoisonError::into_inner),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    /// Waits until `flag` is set or `limit` has passed; whether it was set.
    fn await_flag(flag: &AtomicBool, limit: Duration) -> bool {
        let t0 = Instant::now();
        while !flag.load(Ordering::Acquire) {
            if t0.elapsed() > limit {
                return false;
            }
            std::thread::yield_now();
        }
        true
    }

    #[test]
    fn a_claimed_run_records_the_callers_wait_once() {
        const HOLD: Duration = Duration::from_millis(20);
        let hist = wait_hist();
        // Other tests' runs may own the pool when this one starts, or record
        // their own wait between this run's release and the read below: a
        // try that sees either is retried.
        for _ in 0..50 {
            let joined = AtomicBool::new(false);
            let returned = AtomicBool::new(false);
            let mut before = hist.snapshot();
            run(
                2,
                &|_| {
                    joined.store(true, Ordering::Release);
                    await_flag(&returned, Duration::from_secs(10));
                    std::thread::sleep(HOLD);
                },
                || {
                    // A helper joins only a run that claimed the pool, and
                    // only the owning run records, so this reading stays
                    // current until this run records its wait.
                    before = hist.snapshot();
                    await_flag(&joined, Duration::from_secs(1));
                    returned.store(true, Ordering::Release);
                },
            );
            let after = hist.snapshot();
            if !joined.load(Ordering::Acquire) || after.count() != before.count() + 1 {
                continue;
            }
            let hold = HOLD.as_nanos() as u64;
            assert!(
                after.sum() - before.sum() >= hold,
                "recorded {} ns for a {hold} ns hold",
                after.sum() - before.sum()
            );
            assert!(after.max() >= hold, "max {} ns", after.max());
            return;
        }
        panic!("no try ran uncontended with a helper joined");
    }
}
