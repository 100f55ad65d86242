//! `paper-cold` and `paper-warm`: one `experiments all` at a time, the
//! way a user regenerates every table and figure, with every emitted CSV
//! byte-compared against the committed `results/`.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::host::{run_timed, Host, Scratch, Timed};
use crate::Report;

/// Whether each timed `all` starts from an empty trace directory or
/// from one a previous `all` populated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    Cold,
    Warm,
}

/// How many times a run repeats its set-up; `setup_s` is their median.
const SETUP_REPEATS_COLD: usize = 9;
const SETUP_REPEATS_WARM: usize = 3;

/// The reference outputs: every committed `results/*.csv` that `all`
/// regenerates.
pub struct Expected {
    csvs: BTreeMap<String, Vec<u8>>,
}

impl Expected {
    /// Loads the committed CSVs, leaving out the throughput artifacts
    /// (`BENCH_*`, host-dependent) and the outputs of artifacts the CLI's
    /// usage text marks as not part of `all`.
    pub fn load(host: &Host, scratch: &Path) -> Result<Expected, String> {
        let usage = host
            .cli(scratch)
            .arg("--help")
            .output()
            .map_err(|e| format!("cannot run the CLI: {e}"))?;
        let usage = String::from_utf8_lossy(&usage.stdout);
        let helpers: Vec<&str> = usage
            .lines()
            .filter(|l| l.contains("[not in `all`]"))
            .filter_map(|l| l.split_whitespace().next())
            .collect();
        let dir = host.root.join("results");
        let mut csvs = BTreeMap::new();
        for entry in
            fs::read_dir(&dir).map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        {
            let path = entry.map_err(|e| format!("listing {}: {e}", dir.display()))?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()).map(str::to_owned) else {
                continue;
            };
            let Some(stem) = name.strip_suffix(".csv") else { continue };
            if stem.starts_with("BENCH_") || helpers.contains(&stem) {
                continue;
            }
            let bytes = fs::read(&path).map_err(|e| format!("cannot read {name}: {e}"))?;
            csvs.insert(name, bytes);
        }
        if csvs.is_empty() {
            return Err(format!("{} holds no reference CSVs", dir.display()));
        }
        Ok(Expected { csvs })
    }

    /// Number of reference CSVs.
    pub fn len(&self) -> usize {
        self.csvs.len()
    }

    /// Checks that `out` holds exactly the reference CSVs, byte for byte.
    pub fn check_dir(&self, out: &Path) -> Result<(), String> {
        let mut seen = 0;
        for entry in fs::read_dir(out).map_err(|e| format!("cannot list {}: {e}", out.display()))? {
            let path = entry.map_err(|e| format!("listing {}: {e}", out.display()))?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if !name.ends_with(".csv") {
                continue;
            }
            let Some(want) = self.csvs.get(name) else {
                return Err(format!("{name} has no committed counterpart in results/"));
            };
            let got = fs::read(&path).map_err(|e| format!("cannot read {name}: {e}"))?;
            if &got != want {
                return Err(format!("{name} differs from results/{name}"));
            }
            seen += 1;
        }
        if seen != self.csvs.len() {
            return Err(format!("{seen} of {} reference CSVs were written", self.csvs.len()));
        }
        Ok(())
    }

    /// Checks one named CSV in `out`, when it is a reference output.
    pub fn check_file(&self, out: &Path, name: &str) -> Result<(), String> {
        let Some(want) = self.csvs.get(name) else { return Ok(()) };
        match fs::read(out.join(name)) {
            Ok(got) if &got == want => Ok(()),
            Ok(_) => Err(format!("{name} differs from results/{name}")),
            Err(e) => Err(format!("cannot read {name}: {e}")),
        }
    }
}

/// One `experiments all` against `trace_dir`, writing into a fresh
/// output directory whose CSVs are then checked.
pub fn run_all(
    host: &Host,
    scratch: &mut Scratch,
    expected: &Expected,
    trace_dir: &Path,
    stamp: bool,
) -> Result<(Timed, Result<(), String>), String> {
    let out = scratch.fresh_dir("out")?;
    let mut cmd = host.cli(&scratch.path);
    cmd.arg("all").arg("--out").arg(&out).env(tlabp_sim::TRACE_DIR_ENV, trace_dir);
    let stderr = out.join("stderr.txt");
    let timed = run_timed(cmd, stamp, &stderr)?;
    let verdict = if timed.status.success() {
        expected.check_dir(&out)
    } else {
        let log = fs::read_to_string(&stderr).unwrap_or_default();
        let tail = log.lines().rev().take(3).collect::<Vec<_>>().join(" / ");
        Err(format!("`experiments all` exited with {}: {tail}", timed.status))
    };
    let _ = fs::remove_dir_all(&out);
    Ok((timed, verdict))
}

/// A trace directory populated by one cold `all`, with that run's
/// timing and verdict.
pub fn populate(
    host: &Host,
    scratch: &mut Scratch,
    expected: &Expected,
) -> Result<(PathBuf, Timed, Result<(), String>), String> {
    let dir = scratch.fresh_dir("traces")?;
    let (timed, verdict) = run_all(host, scratch, expected, &dir, false)?;
    Ok((dir, timed, verdict))
}

/// Runs `paper-cold` or `paper-warm` for about `seconds` of timed work.
pub fn run(host: &Host, mode: Mode, seconds: u64) -> Result<Report, String> {
    let mut scratch = host.scratch()?;
    let expected = Expected::load(host, &scratch.path)?;
    let mut report = Report::default();

    // Set-up. Cold: fresh empty directories plus a simulation-free CLI
    // probe (`table3`), i.e. process start-up and registry set-up. Warm:
    // populating a trace directory with one cold `all`, which is how a
    // user's cache gets warm.
    let mut warm_dir = None;
    let repeats = if mode == Mode::Cold { SETUP_REPEATS_COLD } else { SETUP_REPEATS_WARM };
    for _ in 0..repeats {
        let start = Instant::now();
        let verdict = match mode {
            Mode::Cold => {
                let traces = scratch.fresh_dir("traces")?;
                let out = scratch.fresh_dir("out")?;
                let mut cmd = host.cli(&scratch.path);
                cmd.arg("table3").arg("--out").arg(&out).env(tlabp_sim::TRACE_DIR_ENV, &traces);
                let timed = run_timed(cmd, false, &out.join("stderr.txt"))?;
                let verdict = if timed.status.success() {
                    expected.check_file(&out, "table3.csv")
                } else {
                    Err(format!("`experiments table3` exited with {}", timed.status))
                };
                let _ = fs::remove_dir_all(&traces);
                let _ = fs::remove_dir_all(&out);
                verdict
            }
            Mode::Warm => {
                let (dir, _, verdict) = populate(host, &mut scratch, &expected)?;
                if let Some(old) = warm_dir.replace(dir) {
                    let _ = fs::remove_dir_all(old);
                }
                verdict
            }
        };
        report.push("setup_s", start.elapsed().as_secs_f64());
        report.tally.record(verdict);
    }

    let deadline = Duration::from_secs(seconds);
    let timed_start = Instant::now();
    while timed_start.elapsed() < deadline {
        let (trace_dir, fresh) = match (&warm_dir, mode) {
            (Some(dir), Mode::Warm) => (dir.clone(), false),
            _ => (scratch.fresh_dir("traces")?, true),
        };
        let (timed, verdict) = run_all(host, &mut scratch, &expected, &trace_dir, false)?;
        if fresh {
            let _ = fs::remove_dir_all(&trace_dir);
        }
        report.push("wall_s", timed.wall.as_secs_f64());
        report.push("peak_rss_mb", timed.peak_rss_bytes as f64 / 1e6);
        report.tally.record(verdict);
    }
    report.note(format!("reference CSVs compared per `all`: {}", expected.len()));
    Ok(report)
}
