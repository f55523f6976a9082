//! The host and environment a result was measured on.

use autonbc::simcore::json::Json;
use std::process::Command;

/// Refuse to measure with any `NBC_*` knob set: each one silently changes
/// what the program under test does (`NBC_MEMO`, `NBC_RACING`, `NBC_JOBS`,
/// ...), and a ledger row must mean the same thing on every run.
/// `run.sh` unsets them; this catches a direct invocation.
pub fn refuse_nbc_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("NBC_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to measure with NBC_* knobs set: {} (unset them; run.sh does)",
            set.join(", ")
        ))
    }
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Load threads and worker threads the harness uses: the host's usable
/// parallelism, as the program under test detects it.
pub fn nproc() -> usize {
    autonbc::simcore::par::hardware_parallelism()
}

/// `nproc`, CPU model, kernel, compiler, commit and seed.
pub fn record(seed: u64) -> Json {
    let unknown = || "unknown".to_string();
    Json::obj([
        ("nproc", Json::num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model().unwrap_or_else(unknown))),
        (
            "kernel",
            Json::str(command_line("uname", &["-sr"]).unwrap_or_else(unknown)),
        ),
        (
            "rustc",
            Json::str(command_line("rustc", &["-V"]).unwrap_or_else(unknown)),
        ),
        // The driver's checkout is not a git repository: "unknown" there.
        (
            "commit",
            Json::str(command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(unknown)),
        ),
        ("seed", Json::num(seed as f64)),
    ])
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Holds every thread of this process on one CPU until dropped.
///
/// A closed-loop client and the daemon thread serving it are never runnable
/// together, yet on two CPUs each reply pays a cross-CPU wake-up; under
/// this hypervisor that is 40 of a 50 microsecond round trip, and whether
/// the scheduler happens to co-locate the two threads flips the median
/// sixfold. One CPU takes that coin toss out of the ping-pong measurements.
///
/// Done with `taskset` because the harness links nothing but `std`; if
/// `taskset` is missing the measurement runs unpinned and says so.
pub struct OneCpu {
    restore: Option<String>,
}

fn taskset_all_threads(cpus: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-p", "-c", cpus, &std::process::id().to_string()])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

impl OneCpu {
    pub fn pin() -> OneCpu {
        let allowed = std::fs::read_to_string("/proc/self/status")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .map(|v| v.trim().to_string())
            })
            .unwrap_or_default();
        let last = allowed.rsplit([',', '-']).next().unwrap_or("");
        if !last.is_empty() && taskset_all_threads(last) {
            OneCpu {
                restore: Some(allowed),
            }
        } else {
            eprintln!("ledger: note: taskset unavailable, ping-pong measurements run unpinned");
            OneCpu { restore: None }
        }
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        if let Some(allowed) = &self.restore {
            taskset_all_threads(allowed);
        }
    }
}
