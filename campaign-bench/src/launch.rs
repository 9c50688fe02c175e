//! Launches one `rowpress-campaign` process and measures it from outside:
//! wall time, the arrival time of each stdout line, and the peak RSS of the
//! parent and its shards.

use crate::timeline::Timeline;
use std::ffi::OsStr;
use std::io::{self, BufRead, BufReader, Read};
use std::os::raw::{c_int, c_long};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Instant;

/// `struct timeval` of the Linux 64-bit ABI.
#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` of the Linux 64-bit ABI: two timevals, then fourteen
/// longs starting with `ru_maxrss` (kilobytes).
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Reaps `pid`, returning its raw wait status and resource usage. For a
/// reaped child the kernel reports the usage of the child *and* of every
/// descendant it reaped itself (the `RUSAGE_CHILDREN` accounting), so
/// `ru_maxrss` is the largest RSS of the campaign parent or any shard.
fn reap(pid: u32) -> io::Result<(c_int, Rusage)> {
    let pid = c_int::try_from(pid).map_err(io::Error::other)?;
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    loop {
        // SAFETY: `status` and `usage` are live, exclusively borrowed locals
        // whose layouts match the C `int` and `struct rusage` wait4 writes.
        let ret = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if ret == pid {
            return Ok((status, usage));
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// What one campaign process did, as seen from outside.
#[derive(Debug)]
pub struct Launched {
    /// Spawn to exit, seconds.
    pub wall_s: f64,
    /// Exit code; `None` when a signal ended the process.
    pub code: Option<i32>,
    pub timeline: Timeline,
    /// Largest RSS of the parent or any shard, kilobytes.
    pub peak_rss_kb: i64,
    pub stderr: String,
}

/// Runs `exe args..` to completion, timestamping every stdout line.
pub fn launch<S: AsRef<OsStr>>(exe: &Path, args: &[S]) -> io::Result<Launched> {
    let spawned = Instant::now();
    let mut child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()?;
    let mut stderr = child.stderr.take().expect("stderr is piped");
    let stderr_reader = std::thread::spawn(move || {
        let mut text = String::new();
        let _ = stderr.read_to_string(&mut text);
        text
    });
    let mut timeline = Timeline::default();
    let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
    let mut line = Vec::new();
    let read = loop {
        line.clear();
        match stdout.read_until(b'\n', &mut line) {
            Ok(0) => break Ok(()),
            Ok(_) => {
                let at = spawned.elapsed().as_secs_f64();
                timeline.observe(at, String::from_utf8_lossy(&line).trim_end());
            }
            Err(e) => break Err(e),
        }
    };
    if read.is_err() {
        let _ = child.kill();
    }
    let (status, usage) = reap(child.id())?;
    let wall_s = spawned.elapsed().as_secs_f64();
    timeline.exited(wall_s);
    let stderr = stderr_reader.join().expect("stderr reader must not panic");
    read?;
    let code = (status & 0x7f == 0).then_some((status >> 8) & 0xff);
    Ok(Launched {
        wall_s,
        code,
        timeline,
        peak_rss_kb: usage.ru_maxrss,
        stderr,
    })
}
