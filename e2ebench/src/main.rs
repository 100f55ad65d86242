//! End-to-end and per-layer benchmark of the reproduction.
//!
//! ```text
//! cargo run --release -q --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper-cold|paper-warm|serve-mixed|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. With `--trace 0` the workload drives
//! the `experiments` CLI (or the sweep daemon through the wire client)
//! for about `--seconds` of timed work and reports the end-to-end
//! metrics; with `--trace 1` it makes the traced layer run instead and
//! reports the per-layer metrics. Every output is checked; the last line
//! of stdout is one JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See `NOTES.md` for what each workload and metric
//! means.

use std::collections::BTreeMap;
use std::process::ExitCode;

mod host;
mod layers;
mod metrics;
mod paper;
mod serve;
mod stats;

use host::Host;
use stats::{Summary, Tally};

const WORKLOADS: [&str; 3] = ["paper-cold", "paper-warm", "serve-mixed"];

const USAGE: &str = "usage: e2ebench --workload <paper-cold|paper-warm|serve-mixed|all> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// What one workload run measured and checked.
#[derive(Default)]
pub struct Report {
    pub tally: Tally,
    /// Samples per end-to-end metric; the reported value is their median.
    samples: BTreeMap<String, Vec<f64>>,
    /// Values that are reported as they are (the traced run's metrics).
    values: BTreeMap<String, f64>,
    /// Per-class latency series (milliseconds), printed in the summary
    /// only as `<name>_p50_ms` and a tail percentile.
    series: Vec<(String, Vec<f64>)>,
    /// Single values printed in the summary only.
    extras: Vec<(String, &'static str, f64)>,
    notes: Vec<String>,
}

impl Report {
    pub fn push(&mut self, metric: &str, sample: f64) {
        self.samples.entry(metric.to_owned()).or_default().push(sample);
    }

    pub fn set(&mut self, metric: impl Into<String>, value: f64) {
        self.values.insert(metric.into(), value);
    }

    pub fn series(&mut self, name: &str, samples_ms: Vec<f64>) {
        self.series.push((name.to_owned(), samples_ms));
    }

    pub fn extra(&mut self, name: &str, unit: &'static str, value: f64) {
        self.extras.push((name.to_owned(), unit, value));
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// The metric values to report, in declaration order. A metric with
    /// no measurement is a failure of the run.
    fn finish(&mut self, declared: &[(String, &'static str)]) -> Vec<(String, &'static str, f64)> {
        let mut out = Vec::new();
        for (name, unit) in declared {
            let value = self
                .values
                .get(name)
                .copied()
                .or_else(|| Summary::of(self.samples.get(name)?).map(|s| s.median));
            match value {
                Some(v) if v.is_finite() => out.push((name.clone(), *unit, v)),
                _ => {
                    self.tally.record(Err(format!("no measurement of {name}")));
                    out.push((name.clone(), *unit, 0.0));
                }
            }
        }
        out
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|_| format!("{flag}: not a number: {value}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args { workload, seed, seconds, trace })
}

fn run_workload(host: &Host, workload: &str, args: &Args) -> Result<Report, String> {
    if args.trace {
        return layers::run(host, workload, args.seed);
    }
    match workload {
        "paper-cold" => paper::run(host, paper::Mode::Cold, args.seconds),
        "paper-warm" => paper::run(host, paper::Mode::Warm, args.seconds),
        "serve-mixed" => serve::run(host, args.seed, args.seconds),
        other => Err(format!("unknown workload {other}")),
    }
}

fn print_summary(
    workload: &str,
    args: &Args,
    report: &Report,
    values: &[(String, &str, f64)],
    facts: &BTreeMap<&str, String>,
) {
    let kind = if args.trace { "traced layer run" } else { "end-to-end" };
    println!("== {workload}: {kind}, seed {}, {} s ==", args.seed, args.seconds);
    let facts: Vec<String> = facts.iter().map(|(k, v)| format!("{k}={v}")).collect();
    println!("host: {}", facts.join(" "));
    for (name, unit, value) in values {
        match report.samples.get(name).and_then(|s| Summary::of(s)) {
            Some(s) => println!(
                "{name:<34} {value:>14.6} {unit:<5} median of n={} (q1 {:.6}, q3 {:.6}, spread {:.1}%)",
                s.n,
                s.q1,
                s.q3,
                s.spread() * 100.0
            ),
            None => println!("{name:<34} {value:>14.6} {unit}"),
        }
    }
    for (name, samples) in &report.series {
        let Some(s) = Summary::of(samples) else {
            println!("{:<34} no samples", format!("{name}_p50_ms"));
            continue;
        };
        println!(
            "{:<34} {:>14.6} ms    median of n={} (q1 {:.6}, q3 {:.6})",
            format!("{name}_p50_ms"),
            s.median,
            s.n,
            s.q1,
            s.q3
        );
        match stats::tail_percentile(s.n).and_then(|p| Some((p, stats::percentile(samples, p)?))) {
            Some((p, v)) => println!(
                "{:<34} {v:>14.6} ms    highest percentile with >=10 of n={} beyond it",
                format!("{name}_p{p}_ms"),
                s.n
            ),
            None => println!("{name:<34} no tail percentile: fewer than 10 samples beyond p75"),
        }
    }
    for (name, unit, value) in &report.extras {
        println!("{name:<34} {value:>14.6} {unit}");
    }
    println!(
        "{:<34} {:>14.6} frac  ({} failed of {} attempted)",
        "failed_frac",
        report.tally.failed_frac(),
        report.tally.failed,
        report.tally.attempted
    );
    for reason in &report.tally.reasons {
        println!("failure: {reason}");
    }
    for note in &report.notes {
        println!("note: {note}");
    }
}

fn json_line(tally: &Tally, values: &[(String, &str, f64)]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.correct(),
        tally.attempted,
        tally.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    // Before any library code reads a knob.
    let scrubbed = host::scrub_own_env();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = match Host::prepare() {
        Ok(host) => host,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !scrubbed.is_empty() {
        eprintln!("e2ebench: ignoring {} from the environment", scrubbed.join(", "));
    }
    let facts = host::provenance(&host);
    let declared: Vec<(String, &'static str)> = if args.trace {
        metrics::per_layer()
    } else {
        metrics::END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    let workloads: Vec<&str> =
        if args.workload == "all" { WORKLOADS.to_vec() } else { vec![args.workload.as_str()] };

    let mut total = Tally::default();
    let mut combined = Vec::new();
    for workload in &workloads {
        let speed = host::HostSpeed::start();
        let mut report = match run_workload(&host, workload, &args) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("e2ebench: {workload}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let values = report.finish(&declared);
        let mut facts = facts.clone();
        facts.extend(speed.finish());
        print_summary(workload, &args, &report, &values, &facts);
        let prefix = if workloads.len() > 1 { format!("{workload}.") } else { String::new() };
        combined.extend(values.into_iter().map(|(n, u, v)| (format!("{prefix}{n}"), u, v)));
        total.absorb(report.tally);
    }
    println!("{}", json_line(&total, &combined));
    if total.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
