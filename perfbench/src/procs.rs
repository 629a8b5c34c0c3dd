//! Running one command and measuring it: wall time and the peak resident
//! set of that process alone.
//!
//! `getrusage(RUSAGE_CHILDREN)` folds every waited-for child into one
//! maximum (so `iotax-gen` would leak into `iotax-analyze`'s figure), and
//! Linux carries a parent's resident-set high-water mark across
//! `fork`+`exec`, so the harness must stay small and read the child's own
//! `rusage` from `wait4`.

use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the rusage layout below is 64-bit Linux's");

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss_kb: i64,
    _rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
}

/// How one command ended.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Wall time from spawn to reap, seconds.
    pub wall_s: f64,
    /// Peak resident set of the process, KiB.
    pub maxrss_kb: u64,
    /// CPU time (user + system), seconds.
    pub cpu_s: f64,
    /// Exit code, or `None` when a signal ended the process.
    pub exit_code: Option<i32>,
}

impl Measured {
    /// Exited with status 0.
    pub fn ok(&self) -> bool {
        self.exit_code == Some(0)
    }
}

/// Runs `program args…` with stdout and stderr sent to files (no pipes, so
/// no reader threads and no pipe-buffer stalls) and waits for it.
pub fn run(program: &Path, args: &[&str], stdout: &Path, stderr: &Path) -> io::Result<Measured> {
    let out = std::fs::File::create(stdout)?;
    let err = std::fs::File::create(stderr)?;
    let start = Instant::now();
    let child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .stderr(err)
        .spawn()
        .map_err(|e| io::Error::new(e.kind(), format!("spawning {}: {e}", program.display())))?;
    let pid = i32::try_from(child.id())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "child pid out of range"))?;
    let mut status = 0i32;
    let mut usage = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        maxrss_kb: 0,
        _rest: [0; 13],
    };
    loop {
        // SAFETY: `pid` is our own unreaped child (std never waits on a
        // `Child` unless asked), and both out-pointers refer to live,
        // properly aligned locals of the C layout `wait4` writes.
        let rc = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if rc == pid {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    // WIFEXITED / WEXITSTATUS from <sys/wait.h>.
    let exit_code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    let secs = |t: &Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Ok(Measured {
        wall_s,
        maxrss_kb: u64::try_from(usage.maxrss_kb).unwrap_or(0),
        cpu_s: secs(&usage.utime) + secs(&usage.stime),
        exit_code,
    })
}
