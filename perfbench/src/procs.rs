//! Child processes: `bbs serve` instances and the exact peak memory of a
//! finished child.

use crate::http;
use std::io::{self, BufRead, BufReader};
use std::net::SocketAddr;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a fresh server may take to answer `/readyz` with 200.
const READY_DEADLINE: Duration = Duration::from_secs(30);

/// One `bbs serve` child process on an ephemeral loopback port. Dropping
/// it kills the process and waits for it.
pub struct Server {
    child: Child,
    /// Kept open: the server prints its banner lines to stdout, and a
    /// closed pipe would fail those writes.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns `bbs serve --addr 127.0.0.1:0 <extra>` and reads the bound
    /// address from its banner. Every other flag keeps its default.
    pub fn spawn(bbs: &Path, extra: &[String]) -> io::Result<Server> {
        let mut child = Command::new(bbs)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let addr = stdout.read_line(&mut banner).ok().and_then(|_| {
            let rest = banner.split("http://").nth(1)?;
            rest.split_whitespace().next()?.parse().ok()
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "bbs serve printed no address: {banner:?}"
            )));
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Polls `GET /readyz` until it answers 200.
    pub fn wait_ready(&self) -> io::Result<()> {
        let deadline = Instant::now() + READY_DEADLINE;
        loop {
            if let Ok((200, _)) = http::get(self.addr, "/readyz") {
                return Ok(());
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(format!(
                    "{} never became ready",
                    self.addr
                )));
            }
            std::thread::sleep(Duration::from_micros(100));
        }
    }

    /// The process's peak resident set so far (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> u64 {
        std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            })
            .unwrap_or(0)
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Waits for `child` to exit; returns whether it succeeded and its peak
/// resident set in KiB, as the kernel accounted it (`wait4`).
pub fn wait_with_peak_rss(child: Child) -> io::Result<(bool, u64)> {
    // `struct rusage` on 64-bit Linux: two `timeval`s (two i64 each), then
    // fourteen longs, the first of which is `ru_maxrss` in KiB.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    }
    let pid = i32::try_from(child.id()).map_err(io::Error::other)?;
    let mut status = 0i32;
    let mut usage = Rusage([0; 18]);
    // Dropping a `Child` neither kills nor reaps it, so the pid stays ours
    // to reap here.
    drop(child);
    loop {
        // SAFETY: both pointers are to live, writable locals whose layouts
        // match what wait4(2) writes on 64-bit Linux.
        let r = unsafe { wait4(pid, &mut status, 0, &mut usage) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // WIFEXITED && WEXITSTATUS == 0
    let ok = status & 0x7f == 0 && (status >> 8) & 0xff == 0;
    Ok((ok, u64::try_from(usage.0[4]).unwrap_or(0)))
}
