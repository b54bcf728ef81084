//! Process hygiene: where the program binary and the scratch files
//! live, cold child runs with a deadline and a peak-RSS reading, and a
//! guard around the daemon so no exit path leaves it running.
//!
//! Everything is read and written inside the checkout: the scratch
//! directory sits in cargo's target directory next to the binaries, so
//! `.gitignore` already covers it. The program's own `fsync` policy is
//! untouched — artifact writes hit the checkout's filesystem for real.

use std::fs::File;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::httpc::Client;

/// Cargo's target directory as seen from the checkout root (the
/// driver sets `CARGO_TARGET_DIR`; a developer's run uses `target/`).
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Builds the shipped program from source (a no-op when fresh) and
/// returns the absolute path of `minoaner`. End-to-end numbers are
/// taken from this binary, black-box. Build time is not set-up time.
pub fn build_program() -> Result<PathBuf, String> {
    if !Path::new("crates/cli/Cargo.toml").exists() {
        return Err("run from the repository root: crates/cli/Cargo.toml not found".into());
    }
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
    let status = Command::new(cargo)
        .args(["build", "--release", "--quiet", "-p", "minoan-cli"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building minoaner failed ({status})"));
    }
    let exe = target_dir().join("release").join("minoaner");
    exe.canonicalize()
        .map_err(|e| format!("{} not found after the build: {e}", exe.display()))
}

/// A per-pid scratch directory, removed on every exit path that
/// unwinds (success, failed check, panic).
pub struct Scratch {
    root: PathBuf,
}

impl Scratch {
    pub fn create() -> Result<Self, String> {
        let parent = target_dir().join("spine-scratch");
        std::fs::create_dir_all(&parent)
            .map_err(|e| format!("cannot create {}: {e}", parent.display()))?;
        // A run killed by a signal cannot clean up after itself; sweep
        // what such runs left so artifacts do not pile up on disk.
        for entry in std::fs::read_dir(&parent).into_iter().flatten().flatten() {
            let stale = entry
                .file_name()
                .to_str()
                .and_then(|name| name.parse::<u32>().ok())
                .is_some_and(|pid| !Path::new(&format!("/proc/{pid}")).exists());
            if stale {
                let _ = std::fs::remove_dir_all(entry.path());
            }
        }
        let root = parent.join(std::process::id().to_string());
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)
            .map_err(|e| format!("cannot create {}: {e}", root.display()))?;
        let root = root.canonicalize().map_err(|e| e.to_string())?;
        Ok(Self { root })
    }

    /// Creates (emptying it first) a named subdirectory.
    pub fn fresh_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = self.root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }

    /// The filesystem type the scratch directory is on, from
    /// `/proc/mounts` (longest mount-point prefix wins).
    pub fn fs_type(&self) -> String {
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        mounts
            .lines()
            .filter_map(|line| {
                let mut cols = line.split_whitespace();
                let (_, mount, fs) = (cols.next()?, cols.next()?, cols.next()?);
                self.root
                    .starts_with(mount)
                    .then(|| (mount.len(), fs.to_string()))
            })
            .max()
            .map_or_else(|| "unknown".into(), |(_, fs)| fs)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// `VmHWM` of a live process in MB, from `/proc/<pid>/status`.
fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// What one cold child run cost.
pub struct ColdRun {
    pub wall_ms: f64,
    pub peak_rss_mb: f64,
    pub ok: bool,
}

/// How often a running child is polled for exit; it bounds what the
/// polling adds to a measured wall time.
const EXIT_POLL: Duration = Duration::from_micros(500);
/// Every this many exit polls, the child's `VmHWM` is read. The
/// high-water mark only grows, so the last reading before exit is the
/// peak up to a few milliseconds before the process ended.
const RSS_EVERY: u32 = 8;

/// Runs `exe args…` to completion with stdout redirected to `stdout`
/// (stderr passes through), killing it at `deadline`. `ok` is false for
/// a non-zero exit or a kill.
pub fn run_cold(
    exe: &Path,
    args: &[&str],
    stdout: &Path,
    deadline: Instant,
) -> Result<ColdRun, String> {
    let out =
        File::create(stdout).map_err(|e| format!("cannot create {}: {e}", stdout.display()))?;
    let start = Instant::now();
    let child = Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(out)
        .spawn()
        .map_err(|e| format!("cannot spawn {}: {e}", exe.display()))?;
    let mut child = ChildGuard(child);
    let pid = child.0.id();
    let mut peak = 0.0f64;
    let mut polls = 0u32;
    loop {
        match child.0.try_wait() {
            Ok(Some(status)) => {
                return Ok(ColdRun {
                    wall_ms: start.elapsed().as_secs_f64() * 1e3,
                    peak_rss_mb: peak,
                    ok: status.success(),
                })
            }
            Ok(None) => {}
            Err(e) => return Err(format!("cannot wait for pid {pid}: {e}")),
        }
        if polls.is_multiple_of(RSS_EVERY) {
            peak = peak.max(peak_rss_mb(pid).unwrap_or(0.0));
        }
        polls += 1;
        if Instant::now() >= deadline {
            // The guard kills and reaps the child on drop.
            return Ok(ColdRun {
                wall_ms: start.elapsed().as_secs_f64() * 1e3,
                peak_rss_mb: peak,
                ok: false,
            });
        }
        std::thread::sleep(EXIT_POLL);
    }
}

/// Kills and reaps its child when dropped, so a panic or an early
/// return in the harness never leaves a program process behind.
struct ChildGuard(Child);

impl Drop for ChildGuard {
    fn drop(&mut self) {
        if let Ok(None) = self.0.try_wait() {
            let _ = self.0.kill();
        }
        let _ = self.0.wait();
    }
}

/// Reserves a loopback port by binding `:0` and releasing it.
fn free_port() -> Result<SocketAddr, String> {
    TcpListener::bind("127.0.0.1:0")
        .and_then(|l| l.local_addr())
        .map_err(|e| format!("cannot reserve a loopback port: {e}"))
}

/// A running `minoaner serve` child.
pub struct Daemon {
    child: ChildGuard,
    pub http: SocketAddr,
    /// The line-JSON front-end, when asked for.
    pub line: Option<SocketAddr>,
}

impl Daemon {
    /// Starts `minoaner serve --listen-http … --index-dir <dir>` and
    /// returns once the HTTP port accepts connections (connect-polling,
    /// no fixed sleep).
    pub fn start(
        exe: &Path,
        index_dir: &Path,
        with_line: bool,
        deadline: Instant,
    ) -> Result<Self, String> {
        let http = free_port()?;
        let line = with_line.then(free_port).transpose()?;
        let mut cmd = Command::new(exe);
        cmd.args([
            "serve",
            "--log-level",
            "error",
            "--listen-http",
            &http.to_string(),
        ])
        .arg("--index-dir")
        .arg(index_dir)
        .stdin(Stdio::null())
        .stdout(Stdio::null());
        if let Some(line) = line {
            cmd.args(["--listen", &line.to_string()]);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
        let mut daemon = Daemon {
            child: ChildGuard(child),
            http,
            line,
        };
        for addr in std::iter::once(http).chain(line) {
            loop {
                if TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_ok() {
                    break;
                }
                if let Ok(Some(status)) = daemon.child.0.try_wait() {
                    return Err(format!("the daemon exited during start-up ({status})"));
                }
                if Instant::now() >= deadline {
                    return Err(format!("the daemon did not listen on {addr} in time"));
                }
                std::thread::sleep(Duration::from_millis(2));
            }
        }
        Ok(daemon)
    }

    pub fn pid(&self) -> u32 {
        self.child.0.id()
    }

    pub fn peak_rss_mb(&self) -> Option<f64> {
        peak_rss_mb(self.pid())
    }

    /// User + system CPU seconds the daemon has used so far, from
    /// `/proc/<pid>/stat` (fields 14 and 15, in clock ticks of 1/100 s).
    pub fn cpu_s(&self) -> Option<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid())).ok()?;
        // The command name (field 2) may contain spaces; count from its
        // closing parenthesis.
        let rest = &stat[stat.rfind(')')? + 1..];
        let mut fields = rest.split_whitespace().skip(11);
        let utime: f64 = fields.next()?.parse().ok()?;
        let stime: f64 = fields.next()?.parse().ok()?;
        Some((utime + stime) / 100.0)
    }

    /// Asks the daemon to drain and waits for it to exit; the guard
    /// kills it if it has not by `deadline`. Returns whether it exited
    /// cleanly.
    pub fn shutdown(mut self, deadline: Instant) -> bool {
        let mut client = Client::new(self.http, Duration::from_secs(5));
        let asked = client
            .request("POST", "/v1/shutdown", Some(b"{}"))
            .is_ok_and(|r| r.status == 200);
        while asked && Instant::now() < deadline {
            if let Ok(Some(status)) = self.child.0.try_wait() {
                return status.success();
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        false
    }
}
