//! Run hygiene: locating and building the CLI, scrubbed child
//! environments, per-run scratch directories, free ports, child
//! processes that die with the benchmark, peak-RSS sampling and the
//! provenance printed with every result.

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::fs;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// Prefix of every environment knob the repository's code reads.
const KNOB_PREFIX: &str = "TLABP_";

/// Removes every `TLABP_*` variable from this process, before any
/// library code reads one, so a knob left in the shell (a forced SIMD
/// tier, a stream budget, a split policy) cannot change what the traced
/// run measures in-process.
pub fn scrub_own_env() -> Vec<String> {
    let knobs: Vec<OsString> = std::env::vars_os().map(|(k, _)| k).filter(is_knob).collect();
    for knob in &knobs {
        std::env::remove_var(knob);
    }
    knobs.into_iter().map(|k| k.to_string_lossy().into_owned()).collect()
}

fn is_knob(key: &OsString) -> bool {
    key.to_str().is_some_and(|k| k.starts_with(KNOB_PREFIX))
}

/// The checkout the benchmark runs in and the CLI built from it.
pub struct Host {
    pub root: PathBuf,
    pub exe: PathBuf,
    pub target: PathBuf,
}

impl Host {
    /// Checks that the working directory is a checkout of the
    /// repository and builds the `experiments` CLI in release mode, once
    /// and before anything is timed.
    pub fn prepare() -> Result<Host, String> {
        let root = std::env::current_dir().map_err(|e| format!("no working directory: {e}"))?;
        for needed in ["Cargo.toml", "crates/experiments", "results"] {
            if !root.join(needed).exists() {
                return Err(format!(
                    "{} has no {needed}: run from the root of a repository checkout",
                    root.display()
                ));
            }
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(dir) if !dir.is_empty() => root.join(dir),
            _ => root.join("target"),
        };
        let cargo = std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into());
        let status = scrubbed(Command::new(cargo))
            .args(["build", "--release", "-q", "-p", "tlabp-experiments"])
            .env("CARGO_TARGET_DIR", &target)
            .current_dir(&root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err(format!("building the experiments CLI failed ({status})"));
        }
        let exe = target.join("release").join("experiments");
        if !exe.is_file() {
            return Err(format!("build produced no {}", exe.display()));
        }
        Ok(Host { root, exe, target })
    }

    /// A `Command` for the CLI with every `TLABP_*` knob removed; the
    /// caller sets the ones the workload owns.
    pub fn cli(&self, cwd: &Path) -> Command {
        let mut cmd = scrubbed(Command::new(&self.exe));
        cmd.current_dir(cwd).stdin(Stdio::null());
        cmd
    }

    /// A fresh scratch directory for one run, removed on drop.
    pub fn scratch(&self) -> Result<Scratch, String> {
        let nanos = SystemTime::now().duration_since(UNIX_EPOCH).map_or(0, |d| d.as_nanos());
        let path = self.target.join("e2ebench").join(format!("run-{}-{nanos}", std::process::id()));
        fs::create_dir_all(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?;
        Ok(Scratch { path, next: 0 })
    }
}

fn scrubbed(mut cmd: Command) -> Command {
    for (key, _) in std::env::vars_os() {
        if is_knob(&key) {
            cmd.env_remove(key);
        }
    }
    cmd
}

/// A per-run directory under the build directory; every trace dir, memo
/// dir and output dir of the run lives inside it.
pub struct Scratch {
    pub path: PathBuf,
    next: usize,
}

impl Scratch {
    /// A new empty subdirectory named `<label>-<n>`.
    pub fn fresh_dir(&mut self, label: &str) -> Result<PathBuf, String> {
        self.next += 1;
        let dir = self.path.join(format!("{label}-{}", self.next));
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// A loopback address with a port nobody was listening on a moment ago.
pub fn free_addr() -> Result<String, String> {
    let listener =
        TcpListener::bind("127.0.0.1:0").map_err(|e| format!("cannot bind a probe port: {e}"))?;
    let port = listener.local_addr().map_err(|e| format!("probe port: {e}"))?.port();
    Ok(format!("127.0.0.1:{port}"))
}

/// A child process that is killed and reaped when dropped, so no exit
/// path of the benchmark (error return or panic) leaves it running.
pub struct Reaped(pub Child);

impl Reaped {
    /// Peak resident set of the live child, in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        vm_hwm_bytes(self.0.id())
    }

    /// Resets the live child's `VmHWM` to its current resident set, so
    /// a later [`Self::peak_rss_bytes`] covers only what ran since.
    pub fn reset_peak_rss(&self) -> std::io::Result<()> {
        fs::write(format!("/proc/{}/clear_refs", self.0.id()), "5")
    }
}

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// `VmHWM` of a live process, in bytes.
pub fn vm_hwm_bytes(pid: u32) -> Option<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// What one timed CLI invocation did.
pub struct Timed {
    pub status: ExitStatus,
    pub wall: Duration,
    /// Largest `VmHWM` sampled while the process ran.
    pub peak_rss_bytes: u64,
    /// `>>> <artifact>` lines of stdout with their offsets from spawn
    /// (only when stdout was stamped).
    pub marks: Vec<(Duration, String)>,
    /// Where the process started, on the benchmark's clock.
    pub started: Instant,
}

/// How often a running CLI's `VmHWM` is sampled. The mark is a high
/// water mark, so a late sample still sees an early peak.
const RSS_POLL: Duration = Duration::from_millis(5);

/// Spawns `cmd`, waits for it, and times it from spawn to exit. With
/// `stamp` the child's stdout is read line by line and every `>>> `
/// artifact marker is timestamped on arrival; otherwise stdout is
/// discarded. Stderr goes to `stderr_file`.
pub fn run_timed(mut cmd: Command, stamp: bool, stderr_file: &Path) -> Result<Timed, String> {
    let err = fs::File::create(stderr_file)
        .map_err(|e| format!("cannot create {}: {e}", stderr_file.display()))?;
    cmd.stderr(err).stdout(if stamp { Stdio::piped() } else { Stdio::null() });
    let started = Instant::now();
    let mut child = cmd.spawn().map_err(|e| format!("cannot spawn the CLI: {e}"))?;
    let pid = child.id();
    let stdout = child.stdout.take();
    let done = AtomicBool::new(false);
    let (status, wall, peak, marks) = thread::scope(|scope| {
        let reader = scope.spawn(move || {
            let mut marks = Vec::new();
            if let Some(out) = stdout {
                for line in BufReader::new(out).lines().map_while(Result::ok) {
                    if let Some(name) = line.strip_prefix(">>> ") {
                        marks.push((started.elapsed(), name.trim().to_owned()));
                    }
                }
            }
            marks
        });
        let poller = scope.spawn(|| {
            let mut peak = 0;
            while !done.load(Ordering::Relaxed) {
                peak = vm_hwm_bytes(pid).unwrap_or(0).max(peak);
                thread::sleep(RSS_POLL);
            }
            peak
        });
        let status = child.wait();
        let wall = started.elapsed();
        done.store(true, Ordering::Relaxed);
        (status, wall, poller.join(), reader.join())
    });
    let status = status.map_err(|e| format!("waiting for the CLI: {e}"))?;
    let peak_rss_bytes = peak.map_err(|_| "RSS poller panicked".to_owned())?;
    let marks = marks.map_err(|_| "stdout reader panicked".to_owned())?;
    Ok(Timed { status, wall, peak_rss_bytes, marks, started })
}

/// How fast the host was while a workload ran: the share of CPU time
/// the hypervisor gave to other guests (`steal` in `/proc/stat`), the
/// mean clock `/proc/cpuinfo` reports, and the time a fixed integer loop
/// took before and after. They tell a slower machine from a slower
/// program when medians taken at different times disagree.
pub struct HostSpeed {
    ticks: Option<(u64, u64)>,
    loop_ms_before: f64,
}

impl HostSpeed {
    pub fn start() -> HostSpeed {
        HostSpeed { ticks: cpu_ticks(), loop_ms_before: calibration_ms() }
    }

    /// The facts for the span since [`Self::start`].
    pub fn finish(&self) -> Vec<(&'static str, String)> {
        let mut facts = vec![
            ("loop_ms_before", format!("{:.2}", self.loop_ms_before)),
            ("loop_ms_after", format!("{:.2}", calibration_ms())),
        ];
        if let (Some((steal0, total0)), Some((steal1, total1))) = (self.ticks, cpu_ticks()) {
            let total = total1.saturating_sub(total0).max(1);
            let steal = steal1.saturating_sub(steal0) as f64 * 100.0 / total as f64;
            facts.push(("steal_pct", format!("{steal:.2}")));
        }
        if let Some(mhz) = cpu_mhz() {
            facts.push(("cpu_mhz", format!("{mhz:.0}")));
        }
        facts
    }
}

/// Steal and total ticks of all CPUs from the first line of `/proc/stat`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    Some((*fields.get(7)?, fields.iter().sum()))
}

/// Mean of the `cpu MHz` lines of `/proc/cpuinfo`.
fn cpu_mhz() -> Option<f64> {
    let info = fs::read_to_string("/proc/cpuinfo").ok()?;
    let mhz: Vec<f64> = info
        .lines()
        .filter(|l| l.starts_with("cpu MHz"))
        .filter_map(|l| l.split(':').nth(1)?.trim().parse().ok())
        .collect();
    (!mhz.is_empty()).then(|| mhz.iter().sum::<f64>() / mhz.len() as f64)
}

/// Median of three timings of a fixed single-threaded integer loop, in
/// milliseconds.
fn calibration_ms() -> f64 {
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut x = 0x9E37_79B9_7F4A_7C15u64;
            for _ in 0..20_000_000 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}

/// Host facts printed with every result.
pub fn provenance(host: &Host) -> BTreeMap<&'static str, String> {
    let simd = tlabp_core::SimdMode::from_env();
    let nproc = thread::available_parallelism().map_or(1, usize::from);
    let mut facts = BTreeMap::new();
    facts.insert("nproc", nproc.to_string());
    facts.insert("pool_threads", tlabp_sim::SweepPool::global().threads().to_string());
    facts.insert("simd_requested", simd.name().to_owned());
    facts.insert("simd_resolved", simd.resolved_name().to_owned());
    facts.insert("commit", commit(&host.root));
    facts
}

/// The checked-out commit, or `unknown` for an exported tree that is
/// not a git repository.
fn commit(root: &Path) -> String {
    let from_git = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .current_dir(root)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_owned());
    from_git.filter(|s| !s.is_empty()).unwrap_or_else(|| "unknown".to_owned())
}
