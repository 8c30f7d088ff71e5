//! The system under test as a child process: building and locating
//! `whoisml`, spawning `whoisml serve`, and making sure it never outlives
//! the benchmark.

use crate::affinity;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};
use whois_serve::{ServeClient, StatsSnapshot};

const BUILD_COMMAND: &str = "cargo build --release --bin whoisml";

/// Cargo's target directory for this invocation, relative to the
/// repository root the benchmark runs from.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Build the daemon from the working tree (a no-op when fresh, and the
/// only thing standing between an edited source file and a stale binary),
/// then return the path to it.
pub fn build_whoisml() -> Result<PathBuf, String> {
    if !Path::new("crates/whois-serve").is_dir() || !Path::new("Cargo.toml").is_file() {
        return Err("run e2e from the repository root (no ./crates/whois-serve here)".into());
    }
    let status = Command::new("cargo")
        .args(["build", "--release", "--bin", "whoisml"])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run `{BUILD_COMMAND}`: {e}"))?;
    let bin = target_dir().join("release").join("whoisml");
    if !status.success() || !bin.is_file() {
        return Err(format!(
            "{} is missing or stale: `{BUILD_COMMAND}` must succeed first",
            bin.display()
        ));
    }
    Ok(bin)
}

/// A scratch directory inside the build directory (the benchmark may not
/// write outside its checkout), removed on drop.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(label: &str) -> Result<TempDir, String> {
        let dir = target_dir()
            .join("e2e-tmp")
            .join(format!("{}-{label}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

extern "C" {
    fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
}

/// A running `whoisml serve`. Dropping it kills and reaps the child on
/// every exit path that unwinds; the parent-death signal covers the ones
/// that do not (the benchmark itself being killed).
pub struct Daemon {
    child: Child,
    stdout: Option<std::thread::JoinHandle<()>>,
    pub addr: SocketAddr,
    /// The command line, for the result header.
    pub command: String,
    /// Spawn to `listening on`, seconds: model load plus bind.
    pub load_s: f64,
}

impl Daemon {
    /// Spawn `bin serve <args>` and wait (at most `deadline`) for its
    /// `listening on <addr>` line. stderr goes to `stderr_path`.
    pub fn spawn(
        bin: &Path,
        args: &[String],
        stderr_path: &Path,
        deadline: Duration,
    ) -> Result<Daemon, String> {
        let stderr = std::fs::File::create(stderr_path)
            .map_err(|e| format!("{}: {e}", stderr_path.display()))?;
        let mut cmd = Command::new(bin);
        cmd.arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(stderr);
        // SAFETY: the closure runs in the forked child before exec and
        // makes one async-signal-safe syscall with integer arguments.
        unsafe {
            cmd.pre_exec(|| {
                const PR_SET_PDEATHSIG: std::os::raw::c_int = 1;
                const SIGKILL: std::os::raw::c_ulong = 9;
                if prctl(PR_SET_PDEATHSIG, SIGKILL) != 0 {
                    return Err(std::io::Error::last_os_error());
                }
                Ok(())
            });
        }
        let command = format!("{} serve {}", bin.display(), args.join(" "));
        let started = Instant::now();
        let mut child = cmd.spawn().map_err(|e| format!("spawn {command}: {e}"))?;
        let pipe = child.stdout.take().expect("stdout was piped");
        let (tx, rx) = mpsc::channel();
        // The reader ends at EOF, which the kill in `drop` guarantees.
        let stdout = std::thread::spawn(move || {
            for line in BufReader::new(pipe).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut daemon = Daemon {
            child,
            stdout: Some(stdout),
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            command,
            load_s: 0.0,
        };
        let tail = |path: &Path| {
            let text = std::fs::read_to_string(path).unwrap_or_default();
            text.lines().last().unwrap_or("(no stderr)").to_string()
        };
        loop {
            let left = deadline.saturating_sub(started.elapsed());
            match rx.recv_timeout(left) {
                Ok(line) => {
                    if let Some(addr) = line.strip_prefix("listening on ") {
                        daemon.addr = addr
                            .trim()
                            .parse()
                            .map_err(|e| format!("bad listen address {addr:?}: {e}"))?;
                        daemon.load_s = started.elapsed().as_secs_f64();
                        return Ok(daemon);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {
                    return Err(format!(
                        "daemon did not listen within {deadline:?}: {}",
                        tail(stderr_path)
                    ));
                }
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    return Err(format!(
                        "daemon exited before listening: {}",
                        tail(stderr_path)
                    ));
                }
            }
        }
    }

    /// The `STATS` verb over a fresh connection (5 s deadline on every
    /// socket operation), so a long phase can never idle it out.
    pub fn stats(&self) -> Result<StatsSnapshot, String> {
        ServeClient::connect(self.addr)
            .and_then(|mut c| c.stats())
            .map_err(|e| format!("STATS: {e}"))
    }

    /// CPU ticks (user + system) each of the daemon's threads has used
    /// so far: `(thread id, name, ticks)`.
    pub fn thread_ticks(&self) -> Result<Vec<(i32, String, u64)>, String> {
        let dir = format!("/proc/{}/task", self.child.id());
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&dir).map_err(|e| format!("{dir}: {e}"))? {
            let entry = entry.map_err(|e| format!("{dir}: {e}"))?;
            // A thread may exit between the listing and the read.
            let Ok(stat) = std::fs::read_to_string(entry.path().join("stat")) else {
                continue;
            };
            // "tid (comm) state ppid ..."; comm may itself hold spaces
            // and parentheses, so split at the last ')'.
            let (Some(open), Some(close)) = (stat.find('('), stat.rfind(')')) else {
                continue;
            };
            let fields: Vec<&str> = stat[close + 1..].split_whitespace().collect();
            let (Ok(tid), Some(utime), Some(stime)) = (
                stat[..open].trim().parse::<i32>(),
                fields.get(11).and_then(|f| f.parse::<u64>().ok()),
                fields.get(12).and_then(|f| f.parse::<u64>().ok()),
            ) else {
                continue;
            };
            out.push((tid, stat[open + 1..close].to_string(), utime + stime));
        }
        Ok(out)
    }

    /// Give the threads that used the most CPU since `before` a CPU each
    /// (see [`crate::affinity`]). Returns `name -> cpu` for the header;
    /// empty when nothing was placed.
    pub fn place_busy_threads(
        &self,
        before: &[(i32, String, u64)],
        cpus: &[usize],
    ) -> Result<Vec<String>, String> {
        if cpus.len() < 2 {
            return Ok(Vec::new());
        }
        let mut used: Vec<(u64, i32, String)> = self
            .thread_ticks()?
            .into_iter()
            .map(|(tid, name, ticks)| {
                let earlier = before.iter().find(|b| b.0 == tid).map_or(0, |b| b.2);
                (ticks.saturating_sub(earlier), tid, name)
            })
            .filter(|&(delta, ..)| delta >= 2)
            .collect();
        used.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let busiest: Vec<i32> = used.iter().map(|u| u.1).collect();
        let mut placed = Vec::new();
        for (tid, cpu) in affinity::spread(&busiest, cpus) {
            affinity::set_affinity(tid, &[cpu]).map_err(|e| format!("pin thread {tid}: {e}"))?;
            let name = &used
                .iter()
                .find(|u| u.1 == tid)
                .expect("tid came from used")
                .2;
            placed.push(format!("{name} -> cpu {cpu}"));
        }
        Ok(placed)
    }

    /// Peak resident set (`VmHWM`) of the daemon so far, MB.
    pub fn rss_peak_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("{path}: no VmHWM line"))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stdout.take() {
            let _ = t.join();
        }
    }
}
