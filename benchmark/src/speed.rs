//! Host speed, and the throughput and latency metrics put at the reference
//! host's speed.
//!
//! The shared reference host's speed drifts by a fifth to a half over
//! minutes, and every workload drifts with it. A fixed probe that runs none
//! of the repository's code tracks that drift: a ping-pong of 256-byte
//! messages over a Unix socket pair between two threads pinned to one CPU
//! (system calls and context switches only), run on every CPU at once. So
//! after every [`EVERY`] of a run the threads that issue ops pause between
//! ops, one of them probes for [`PROBE`] while the benchmark does nothing
//! else, and all go on; the run's host speed is the median probe rate over
//! [`REFERENCE_RATE`]. The workloads follow the probe's drift only in part
//! (by [`FOLLOW`] in log scale), so the end-to-end `setup_s`, `ops_per_s`,
//! `op_p50_ms` (and `op_p99_ms`) divide out the speed raised to
//! [`FOLLOW`]: they are what set-up and the ops would have taken on the
//! reference host at its usual speed. The uncorrected numbers and the speed
//! are printed beside them (`raw_setup_s`, `raw_ops_per_s`,
//! `raw_op_p50_ms`, `host_speed`). See the README's "Host speed" for the
//! measurements behind this.

use crate::report::Report;
use crate::stats::{median, ratio, Latency};
use crate::{host, put_latency, Ctx};
use std::io::{Read, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Probe round trips per second per CPU on the reference host (a 2-vCPU
/// Intel Xeon virtual machine): the median over 80 runs there of each
/// run's median probe rate, rounded.
pub const REFERENCE_RATE: f64 = 117_000.0;
/// How far the workloads' speed follows the probe's: the least-squares
/// slope of log `raw_ops_per_s` on log `host_speed`, pooled over 287 runs
/// of the four workloads on the reference host (0.68–0.88 per workload).
pub const FOLLOW: f64 = 0.75;
/// Wall time of one probe.
const PROBE: Duration = Duration::from_millis(50);
/// Run time between two probes.
const EVERY: Duration = Duration::from_secs(1);
const MESSAGE: usize = 256;

/// Round trips per second between two threads on `cpu` (unpinned when
/// `None`) over one [`PROBE`].
fn ping_pong(cpu: Option<usize>) -> f64 {
    let pin = move || {
        if let Some(c) = cpu {
            host::pin(0, c);
        }
    };
    let (mut client, mut echo) = UnixStream::pair().expect("probe socket pair");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            pin();
            let mut buf = [0u8; MESSAGE];
            while echo.read_exact(&mut buf).is_ok() && echo.write_all(&buf).is_ok() {}
        });
        // The client's end closes when its thread returns, which ends the
        // echo thread.
        let timed = scope.spawn(move || {
            pin();
            let mut buf = [0u8; MESSAGE];
            let (start, mut trips) = (Instant::now(), 0u64);
            while start.elapsed() < PROBE {
                client.write_all(&buf).expect("probe write");
                client.read_exact(&mut buf).expect("probe read");
                trips += 1;
            }
            trips as f64 / start.elapsed().as_secs_f64()
        });
        timed.join().expect("probe")
    })
}

/// The probe on every CPU at once: the mean rate per CPU.
fn probe() -> f64 {
    let cpus = host::allowed_cpus();
    if cpus.is_empty() {
        return ping_pong(None);
    }
    let rates: Vec<f64> = std::thread::scope(|scope| {
        let probes: Vec<_> = cpus
            .iter()
            .map(|&c| scope.spawn(move || ping_pong(Some(c))))
            .collect();
        probes
            .into_iter()
            .map(|p| p.join().expect("probe"))
            .collect()
    });
    rates.iter().sum::<f64>() / rates.len() as f64
}

/// The probes of one run, shared by its issuing threads. Probe `k` is due
/// at `EVERY / 2 + k * EVERY` after the start, for every such time before
/// the horizon, and every thread takes part in every one, so none waits
/// for a thread that has stopped.
pub struct Pacer {
    start: Instant,
    horizon: Duration,
    barrier: Barrier,
    rates: Mutex<Vec<f64>>,
}

/// One issuing thread's place at its run's [`Pacer`].
pub struct Seat<'a> {
    pacer: &'a Pacer,
    joined: u32,
    /// Wall time spent waiting for and running probes.
    pub paused: Duration,
}

impl Pacer {
    pub fn new(issuers: usize, start: Instant, horizon: Duration) -> Pacer {
        Pacer {
            start,
            horizon,
            barrier: Barrier::new(issuers),
            rates: Mutex::new(Vec::new()),
        }
    }

    pub fn seat(&self) -> Seat<'_> {
        Seat {
            pacer: self,
            joined: 0,
            paused: Duration::ZERO,
        }
    }

    /// Probes due by `elapsed` (capped at the horizon).
    fn due(&self, elapsed: Duration) -> u32 {
        let e = elapsed.min(self.horizon.saturating_sub(Duration::from_nanos(1)));
        match e.checked_sub(EVERY / 2) {
            Some(after_first) => (after_first.as_nanos() / EVERY.as_nanos()) as u32 + 1,
            None => 0,
        }
    }

    /// The host speed the run's ops ran at: the median probe rate over
    /// [`REFERENCE_RATE`]. Probes once if the run was too short to.
    pub fn speed(&self) -> f64 {
        let mut rates = self.rates.lock().expect("probe rates");
        if rates.is_empty() {
            rates.push(probe());
        }
        median(&rates) / REFERENCE_RATE
    }

    pub fn probes(&self) -> usize {
        self.rates.lock().expect("probe rates").len()
    }
}

impl Seat<'_> {
    /// Called between ops: takes part in every probe due.
    pub fn between_ops(&mut self) {
        let due = self.pacer.due(self.pacer.start.elapsed());
        self.join(due);
    }

    /// Called between ops of a loop that runs to the horizon: takes part in
    /// every probe due, and says whether the loop goes on. Once it says no,
    /// the thread has taken part in every probe of the run.
    pub fn go_on(&mut self) -> bool {
        loop {
            let elapsed = self.pacer.start.elapsed();
            let due = self.pacer.due(elapsed);
            if self.joined == due {
                return elapsed < self.pacer.horizon;
            }
            self.join(due);
        }
    }

    fn join(&mut self, due: u32) {
        if self.joined >= due {
            return;
        }
        let t = Instant::now();
        while self.joined < due {
            if self.pacer.barrier.wait().is_leader() {
                let rate = probe();
                self.pacer.rates.lock().expect("probe rates").push(rate);
            }
            self.pacer.barrier.wait();
            self.joined += 1;
        }
        self.paused += t.elapsed();
    }
}

/// What one issuing thread measured.
pub struct Issued<'a> {
    pub ops: usize,
    /// Seconds the ops took, probes excluded.
    pub busy_s: f64,
    pub latency_ms: &'a [f64],
}

/// Records `setup_s`, `ops_per_s` and `op_p50_ms` / `op_p99_ms` at the
/// reference host's speed, and beside them the uncorrected `raw_ops_per_s`
/// and `raw_op_p50_ms` (`raw_setup_s` is already recorded), `host_speed`
/// and the probe count. Set-up is put at the speed its run's ops ran at:
/// it ends just before them, and the host's speed drifts over minutes.
pub fn put_ops(r: &mut Report, ctx: &Ctx, pacer: &Pacer, issued: &[Issued]) {
    let speed = pacer.speed();
    let scale = speed.powf(FOLLOW);
    if let Some(raw_setup) = r.get("raw_setup_s") {
        r.put("setup_s", raw_setup * scale, "s");
    }
    let raw_rate: f64 = issued.iter().map(|i| ratio(i.ops as f64, i.busy_s)).sum();
    let mut raw: Vec<f64> = issued.iter().flat_map(|i| i.latency_ms).copied().collect();
    let mut at_ref: Vec<f64> = raw.iter().map(|ms| ms * scale).collect();
    r.put("ops_per_s", raw_rate / scale, "1/s");
    put_latency(r, ctx, &mut at_ref);
    r.put("raw_ops_per_s", raw_rate, "1/s");
    if let Some(l) = Latency::of(&mut raw) {
        r.put("raw_op_p50_ms", l.p50, "ms");
    }
    r.put("host_speed", speed, "ratio");
    r.put("speed_probes", pacer.probes() as f64, "count");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probes_fall_due_every_second_before_the_horizon() {
        let p = Pacer::new(1, Instant::now(), Duration::from_millis(2600));
        let ms = Duration::from_millis;
        assert_eq!(p.due(ms(0)), 0);
        assert_eq!(p.due(ms(499)), 0);
        assert_eq!(p.due(ms(500)), 1);
        assert_eq!(p.due(ms(1499)), 1);
        assert_eq!(p.due(ms(1500)), 2);
        assert_eq!(p.due(ms(2599)), 3);
        assert_eq!(p.due(ms(9000)), 3, "none at or after the horizon");
        assert!(p.speed() > 0.0);
        assert_eq!(p.probes(), 1, "a run too short to probe probes once");
    }

    #[test]
    fn every_thread_takes_part_in_every_probe() {
        let start = Instant::now();
        let pacer = Pacer::new(2, start, Duration::from_millis(1700));
        let ops: Vec<u32> = std::thread::scope(|scope| {
            let threads: Vec<_> = [1u64, 7]
                .into_iter()
                .map(|op_ms| {
                    let pacer = &pacer;
                    scope.spawn(move || {
                        let (mut seat, mut ops) = (pacer.seat(), 0);
                        while seat.go_on() {
                            std::thread::sleep(Duration::from_millis(op_ms));
                            ops += 1;
                        }
                        assert_eq!(seat.joined, 2);
                        assert!(seat.paused >= PROBE * 2);
                        ops
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).collect()
        });
        assert_eq!(pacer.probes(), 2);
        assert!(ops.iter().all(|&n| n > 0));
    }

    #[test]
    fn corrected_metrics_divide_out_the_speed() {
        let ctx = Ctx {
            seed: 1,
            seconds: 1,
            trace: false,
            smoke: true,
        };
        let pacer = Pacer::new(1, Instant::now(), Duration::ZERO);
        pacer
            .rates
            .lock()
            .unwrap()
            .extend([0.5, 0.25, 0.75].map(|s| s * REFERENCE_RATE));
        let (a, b) = ([1.0; 10], [3.0; 10]);
        let issued = [
            Issued {
                ops: 10,
                busy_s: 0.01,
                latency_ms: &a,
            },
            Issued {
                ops: 10,
                busy_s: 0.04,
                latency_ms: &b,
            },
        ];
        let mut r = Report::new("suite-cold", 1, 1, false);
        r.put("raw_setup_s", 0.25, "s");
        put_ops(&mut r, &ctx, &pacer, &issued);
        let scale = 0.5f64.powf(FOLLOW);
        assert_eq!(r.get("host_speed"), Some(0.5));
        assert_eq!(r.get("setup_s"), Some(0.25 * scale));
        assert_eq!(r.get("raw_ops_per_s"), Some(1250.0));
        assert_eq!(r.get("ops_per_s"), Some(1250.0 / scale));
        assert_eq!(r.get("raw_op_p50_ms"), Some(1.0));
        assert_eq!(r.get("op_p50_ms"), Some(scale));
        assert_eq!(r.get("speed_probes"), Some(3.0));
    }
}
