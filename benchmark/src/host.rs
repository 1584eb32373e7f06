//! What the harness asks the host: CPU time (`getrusage`) and peak RSS
//! (`/proc/self/status`) of a run process, the machine note printed beside
//! every result, and child processes that cannot outlive the harness.
//! 64-bit Linux only.

use std::io::Read;
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, ExitStatus};

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then 14 `long`s.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const RUSAGE_SELF: i32 = 0;
const RUSAGE_CHILDREN: i32 = -1;
const RUSAGE_THREAD: i32 = 1;
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// User + system CPU seconds of `who`. `getrusage` rather than
/// `/proc/self/stat`: the kernel scales both to its nanosecond run-time
/// total, while `/proc` truncates them to 10 ms ticks — 1 % of a
/// one-second pass.
fn cpu_seconds(who: i32) -> f64 {
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `ru` is a live, writable `struct rusage` of the layout the
    // call fills; `who` is one of the three values the call defines.
    if unsafe { getrusage(who, &mut ru) } != 0 {
        return 0.0;
    }
    (ru.utime.sec + ru.stime.sec) as f64 + (ru.utime.usec + ru.stime.usec) as f64 / 1e6
}

/// User + system CPU seconds of this process and the children it has
/// waited for.
pub fn process_cpu_s() -> f64 {
    cpu_seconds(RUSAGE_SELF) + cpu_seconds(RUSAGE_CHILDREN)
}

/// User + system CPU seconds of the calling thread alone.
pub fn thread_cpu_s() -> f64 {
    cpu_seconds(RUSAGE_THREAD)
}

/// Peak resident set (`VmHWM`) of this process in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `nproc`, CPU model and kernel, for the results header and the README.
pub fn machine_note() -> String {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let model = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown CPU", |(_, m)| m.trim());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    format!("{} cores, {model}, Linux {}", cores(), kernel.trim())
}

/// A child process that cannot outlive the harness: killed and reaped on
/// drop (error paths, panics), and killed by the kernel if the spawning
/// thread dies without unwinding (`SIGKILL` of the harness).
///
/// Spawn only from a thread that outlives the child — the kernel ties the
/// death signal to the spawning thread, not the process.
pub struct OwnedChild(Child);

impl OwnedChild {
    pub fn spawn(cmd: &mut Command) -> std::io::Result<Self> {
        // SAFETY: the closure runs in the forked child before exec and
        // calls only `prctl`, which is async-signal-safe and touches no
        // memory shared with the parent.
        unsafe {
            cmd.pre_exec(|| {
                if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        cmd.spawn().map(OwnedChild)
    }

    /// Reads the child's piped stdout to its end and waits for it.
    pub fn output(mut self) -> std::io::Result<(ExitStatus, String)> {
        let mut said = String::new();
        if let Some(mut stdout) = self.0.stdout.take() {
            stdout.read_to_string(&mut said)?;
        }
        Ok((self.0.wait()?, said))
    }
}

impl Drop for OwnedChild {
    fn drop(&mut self) {
        if !matches!(self.0.try_wait(), Ok(Some(_))) {
            let _ = self.0.kill();
            let _ = self.0.wait();
        }
    }
}
