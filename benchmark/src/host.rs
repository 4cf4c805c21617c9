//! Host-noise record: what else the machine was doing during a run, so a
//! noisy set of runs can be told apart from a slow change.

use crate::Outcome;
use std::path::Path;

/// Kernel clock ticks per second in `/proc` accounting (`USER_HZ`, fixed at
/// 100 on Linux for every mainstream architecture).
const USER_HZ: f64 = 100.0;

/// One reading of the machine-wide steal time and this process's CPU time.
pub struct Sample {
    steal_ticks: u64,
    user_ticks: u64,
    sys_ticks: u64,
}

impl Sample {
    pub fn now() -> Self {
        // /proc/stat "cpu  user nice system idle iowait irq softirq steal ..."
        let steal_ticks = std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|s| {
                let line = s.lines().next()?.to_owned();
                line.split_whitespace().nth(8)?.parse().ok()
            })
            .unwrap_or(0);
        // /proc/self/stat: fields 14 and 15 (utime, stime) follow the
        // parenthesised command name, which may itself hold spaces
        let (user_ticks, sys_ticks) = std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| {
                let rest = s.rsplit_once(')')?.1.to_owned();
                let f: Vec<&str> = rest.split_whitespace().collect();
                Some((f.get(11)?.parse().ok()?, f.get(12)?.parse().ok()?))
            })
            .unwrap_or((0, 0));
        Self {
            steal_ticks,
            user_ticks,
            sys_ticks,
        }
    }
}

/// The JSON host record for the interval between two samples.
pub fn record(before: &Sample, after: &Sample, outcome: &Outcome) -> String {
    let secs = |a: u64, b: u64| a.saturating_sub(b) as f64 / USER_HZ;
    let error_rate = if outcome.attempted == 0 {
        0.0
    } else {
        outcome.failed as f64 / outcome.attempted as f64
    };
    format!(
        "{{\"steal_s\": {:?}, \"user_s\": {:?}, \"sys_s\": {:?}, \"nproc\": {}, \
         \"git_rev\": \"{}\", \"error_rate\": {:?}}}",
        secs(after.steal_ticks, before.steal_ticks),
        secs(after.user_ticks, before.user_ticks),
        secs(after.sys_ticks, before.sys_ticks),
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        git_rev(),
        error_rate
    )
}

/// Peak resident set (`VmHWM`) of this process so far, in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_owned();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The checked-out commit, read from `.git` in the working directory
/// without running git; `unknown` outside a repository.
fn git_rev() -> String {
    let git = Path::new(".git");
    let read = |p: &Path| std::fs::read_to_string(p).ok();
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".to_owned();
    };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return head.to_owned();
    };
    if let Some(rev) = read(&git.join(name)) {
        return rev.trim().to_owned();
    }
    read(&git.join("packed-refs"))
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(name))
                .and_then(|l| l.split_whitespace().next().map(str::to_owned))
        })
        .unwrap_or_else(|| "unknown".to_owned())
}
