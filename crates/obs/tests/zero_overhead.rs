//! Verifies the disabled-tracing cost model: the selection hot path's obs
//! calls (`span!` with args) must not allocate at all when tracing
//! is off — and neither may [`cayman_obs::Counter::add`],
//! [`cayman_obs::hist::Histogram::record`] or a
//! [`cayman_obs::PhaseTimer`], which are *always on* (every layer counts
//! and the server times every request phase through them). A
//! counting global allocator makes "no allocations" a hard assertion
//! rather than a benchmark judgement call.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

// Only the thread running the hot loop is counted: the libtest harness
// thread allocates at its own pace (channel messages, deadline timers),
// which is noise this test must not observe.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting_here() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting_here() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

#[test]
fn disabled_tracing_allocates_nothing_on_the_hot_path() {
    cayman_obs::disable();
    // Register the process-scope counter and warm up once outside the
    // measured window, then measure a hot loop of exactly the calls the
    // selection DP makes per vertex/config.
    let hits = cayman_obs::registry::counter("cache.mem.hits");
    hot_path_iteration(0, hits);
    let before = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    for i in 0..10_000usize {
        hot_path_iteration(i, hits);
    }
    COUNTING.with(|c| c.set(false));
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "disabled tracing allocated {} times over 10k hot-path iterations",
        after - before
    );
    assert!(hits.get() >= 10_001, "counting is always on");
    assert!(HIST.count() >= 20_002, "phase timing is always on");
}

// The server's per-request histogram, its phase timer and an
// instance-scope counter: recording is always on, so all must be
// allocation-free regardless of the tracing flag.
static HIST: cayman_obs::hist::Histogram = cayman_obs::hist::Histogram::new();
static MISSES: cayman_obs::Counter = cayman_obs::Counter::new("cache.mem.misses");

fn hot_path_iteration(i: usize, hits: &cayman_obs::Counter) {
    let _g = cayman_obs::span!("select.combine", vertex = i);
    hits.add(1);
    MISSES.add(1);
    // A label argument is formatted only when tracing is on.
    let _m = cayman_obs::span!("model.accel", region = format!("f#v{i}:bb"));
    HIST.record(std::hint::black_box(i as u64 * 977));
    let phase = cayman_obs::PhaseTimer::open("server.req", &HIST, || {
        vec![("id", cayman_obs::ArgValue::U64(i as u64))]
    });
    std::hint::black_box(phase.close());
    cayman_obs::instant_with("server.timeout", || {
        vec![("conn", cayman_obs::ArgValue::U64(i as u64))]
    });
    cayman_obs::diag("interp.fallback", || format!("vertex {i}"));
}
