//! Child processes: one measured `bivc` run (wall time, exit status,
//! captured output, and the child's own peak RSS), and spawning `bivd`
//! shards that cannot outlive the benchmark.

use std::io::{self, Read};
use std::os::unix::process::CommandExt;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// `struct rusage` as Linux lays it out on 64-bit targets: two
/// `timeval`s, then fourteen `long`s of which `ru_maxrss` is the first.
#[repr(C)]
#[derive(Default)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// One finished child run.
pub struct Run {
    /// Whether the child exited with status 0.
    pub success: bool,
    /// Everything the child wrote to stdout.
    pub stdout: Vec<u8>,
    /// Everything the child wrote to stderr.
    pub stderr: Vec<u8>,
    /// Spawn to reap.
    pub wall: Duration,
    /// The child's peak resident set, in KiB, as the kernel counted it.
    pub max_rss_kb: u64,
}

/// Runs `cmd` to completion, timing it from spawn to reap.
///
/// The child is reaped with `wait4` rather than `Child::wait` because
/// only `wait4` reports that one child's peak RSS; the harness's own
/// earlier children (the cargo build) would dominate
/// `RUSAGE_CHILDREN`.
pub fn run_measured(cmd: &mut Command) -> io::Result<Run> {
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut err_pipe = child.stderr.take().expect("stderr is piped");
    let stderr_reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        err_pipe.read_to_end(&mut buf).map(|_| buf)
    });
    let mut stdout = Vec::new();
    let read = child
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_end(&mut stdout);
    let stderr = stderr_reader
        .join()
        .map_err(|_| io::Error::other("stderr reader panicked"))?;
    let (status, usage) = reap(&child)?;
    let wall = start.elapsed();
    read?;
    Ok(Run {
        success: status == 0,
        stdout,
        stderr: stderr?,
        wall,
        max_rss_kb: u64::try_from(usage.maxrss_kb).unwrap_or(0),
    })
}

/// Waits for `child` and returns its raw wait status (0 = exited 0)
/// and resource usage. The `Child` must not be waited on afterwards.
fn reap(child: &Child) -> io::Result<(i32, RUsage)> {
    let pid = i32::try_from(child.id()).map_err(|_| io::Error::other("pid out of range"))?;
    let mut status = 0i32;
    let mut usage = RUsage::default();
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out
        // as the kernel expects (`int` and `struct rusage` on 64-bit
        // Linux); `pid` is our own unreaped child.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Marks `cmd` so the child is SIGKILLed when the spawning thread
/// exits — a killed or crashed benchmark never leaves a shard running.
/// Spawn from the main thread: the signal follows the *thread*.
pub fn die_with_parent(cmd: &mut Command) -> &mut Command {
    // SAFETY: the hook runs in the forked child before exec and only
    // makes one async-signal-safe system call.
    unsafe {
        cmd.pre_exec(|| {
            if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) == 0 {
                Ok(())
            } else {
                Err(io::Error::last_os_error())
            }
        })
    }
}

/// Peak resident set of a live process, in KiB (`VmHWM`).
pub fn peak_rss_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}
