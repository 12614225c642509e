//! Hermetic-run checks and the host block every result is stamped with.

use std::path::Path;

/// Refuses runs whose numbers would not be comparable: debug builds, and
/// any `CAYMAN_*` variable (several option defaults read them).
pub fn check_hermetic() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_string());
    }
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("CAYMAN_"))
        .collect();
    if !set.is_empty() {
        return Err(format!(
            "refusing to run with {} set: option defaults read these",
            set.join(", ")
        ));
    }
    Ok(())
}

/// Where and how a result was measured.
pub struct Host {
    pub cores: usize,
    pub cpu: String,
    pub profile: &'static str,
    pub seed: u64,
    pub git_rev: String,
}

impl Host {
    pub fn detect(seed: u64) -> Host {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|t| {
                t.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|m| m.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            git_rev: git_rev(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git"))
                .unwrap_or_else(|| "unknown".to_string()),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"cpu\": \"{}\", \"profile\": \"{}\", \"seed\": {}, \"git_rev\": \"{}\"}}",
            self.cores,
            self.cpu.replace(['"', '\\'], ""),
            self.profile,
            self.seed,
            self.git_rev
        )
    }
}

/// The checked-out commit, read from the `.git` directory (a source export
/// has none).
fn git_rev(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split(' ').next())
        .map(str::to_string)
}

extern "C" {
    /// The C library's `sched_setaffinity(2)` wrapper; `std` links it.
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// The CPU for thread `slot` of a set pinned one per CPU: the allowed CPUs
/// in turn (`None` when they cannot be read).
pub fn cpu_for(slot: usize) -> Option<usize> {
    let cpus = allowed_cpus();
    (!cpus.is_empty()).then(|| cpus[slot % cpus.len()])
}

/// The CPUs this process may run on (`Cpus_allowed_list`), ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .map_or_else(Vec::new, cpu_list)
}

/// The CPUs of a kernel CPU list such as `0-3,8`.
fn cpu_list(list: &str) -> Vec<usize> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',').filter(|p| !p.is_empty()) {
        let mut ends = part.split('-').map(|n| n.trim().parse::<usize>());
        match (ends.next(), ends.next()) {
            (Some(Ok(a)), None) => cpus.push(a),
            (Some(Ok(a)), Some(Ok(b))) => cpus.extend(a..=b),
            _ => {}
        }
    }
    cpus
}

/// The ids of this process's threads.
pub fn thread_ids() -> Vec<i32> {
    std::fs::read_dir("/proc/self/task")
        .map(|d| {
            d.filter_map(|e| e.ok()?.file_name().to_str()?.parse().ok())
                .collect()
        })
        .unwrap_or_default()
}

/// Pins thread `tid` (0: the calling thread) to `cpu`. Returns whether the
/// kernel accepted the mask.
pub fn pin(tid: i32, cpu: usize) -> bool {
    pin_to(tid, &[cpu])
}

/// Lets thread `tid` (0: the calling thread) run on `cpus` only. Returns
/// whether the kernel accepted the mask.
pub fn pin_to(tid: i32, cpus: &[usize]) -> bool {
    let mut mask = [0u64; 16];
    for &cpu in cpus {
        let Some(word) = mask.get_mut(cpu / 64) else {
            return false;
        };
        *word |= 1 << (cpu % 64);
    }
    // SAFETY: `mask` is a live, initialised `cpu_set_t`-sized buffer of
    // `size_of_val(&mask)` bytes that the call only reads.
    unsafe { sched_setaffinity(tid, std::mem::size_of_val(&mask), mask.as_ptr()) == 0 }
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_expand_ranges() {
        assert_eq!(cpu_list(" 0-1"), vec![0, 1]);
        assert_eq!(cpu_list("0-2,5,7-8\n"), vec![0, 1, 2, 5, 7, 8]);
        assert_eq!(cpu_list(""), Vec::<usize>::new());
        assert!(cpu_for(0).is_some());
    }
}
