//! The traced run (`--trace 1`): spans around calls into each layer's
//! public functions, made from this file, plus timestamped `experiments
//! all` runs that place each artifact on the CLI's own timeline.
//!
//! Attribution. The traced `all` wall is split into layer self times
//! measured in-process on the same state the workload's `all` sees (cold:
//! an empty trace directory; warm: one a previous `all` populated):
//!
//! ```text
//! traced wall = suite.first_touch_s.<mode> + Σ engine.plan_s.<artifact>
//!             + experiments.unattributed_s
//! ```
//!
//! `unattributed` is what no layer span covers: process start, the
//! artifacts that run no engine plan (tables, fig4, costs, ablations),
//! table formatting and CSV writing. The finer metrics — generation,
//! pack, intern, encode, decode, stream derivation and replay — are the
//! same work taken apart by direct calls; they explain the first-touch
//! and plan times and are not added again.

use std::collections::BTreeMap;
use std::fs;
use std::os::unix::fs::MetadataExt;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use tlabp_core::SimdMode;
use tlabp_service::proto::{done_payload, encode_frame, result_payload};
use tlabp_service::{Client, FrameKind};
use tlabp_sim::{
    derive_pattern_stream, replay_stream_key, simulate_replay_transposed, JobOutcome, Plan,
    PredictorSpec, ResultSet, Session, TraceStore,
};
use tlabp_trace::io::{
    chunk_bytes_from_env, read_artifacts, write_artifacts_chunked, write_file_atomic,
};
use tlabp_trace::InternedConds;
use tlabp_workloads::{Benchmark, DataSet};

use crate::host::{Host, Scratch, Timed};
use crate::metrics::{ALL_ARTIFACTS, PLANNED_ARTIFACTS};
use crate::paper::{self, Expected};
use crate::serve;
use crate::stats::{median, Tally};
use crate::Report;

/// Untraced/traced `all` pairs, alternated; walls are their medians.
const PAIRS: usize = 3;
/// Fresh sweeps the service part submits, each then repeated once.
const SERVICE_PLANS: usize = 6;

/// One recorded span.
struct Span {
    name: String,
    start: Duration,
    end: Duration,
    parent: Option<usize>,
    request: Option<String>,
}

/// Spans kept in memory and written out when the run ends.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }

    fn open(&mut self, name: &str, parent: Option<usize>, request: Option<String>) -> usize {
        let start = self.origin.elapsed();
        self.spans.push(Span { name: name.to_owned(), start, end: start, parent, request });
        self.spans.len() - 1
    }

    /// Closes span `id` and returns its duration.
    fn close(&mut self, id: usize) -> Duration {
        let span = &mut self.spans[id];
        span.end = self.origin.elapsed();
        span.end - span.start
    }

    /// Records a span whose bounds were taken elsewhere.
    fn record(&mut self, name: &str, parent: usize, request: String, start: Instant, end: Instant) {
        let (start, end) = (start - self.origin, end - self.origin);
        self.spans.push(Span {
            name: name.to_owned(),
            start,
            end,
            parent: Some(parent),
            request: Some(request),
        });
    }

    /// Times `work` as a span.
    fn time<T>(
        &mut self,
        name: &str,
        parent: usize,
        request: &str,
        work: impl FnOnce() -> T,
    ) -> (T, Duration) {
        let id = self.open(name, Some(parent), Some(request.to_owned()));
        let value = work();
        (value, self.close(id))
    }

    /// One JSON object per span: id, name, start/end in ns since the run
    /// began, parent id and request id.
    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let request = span.request.as_ref().map_or("null".to_owned(), |r| format!("\"{r}\""));
            out.push_str(&format!(
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"request\": {request}}}\n",
                span.name,
                span.start.as_nanos(),
                span.end.as_nanos()
            ));
        }
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

/// Every input trace: the nine testing sets and the training sets that
/// exist.
fn inputs() -> Vec<(&'static Benchmark, DataSet)> {
    let mut inputs: Vec<_> = Benchmark::ALL.iter().map(|b| (b, DataSet::Testing)).collect();
    inputs.extend(
        Benchmark::ALL.iter().filter(|b| b.has_training_set()).map(|b| (b, DataSet::Training)),
    );
    inputs
}

fn input_name(benchmark: &Benchmark, data_set: DataSet) -> String {
    let set = match data_set {
        DataSet::Testing => "testing",
        DataSet::Training => "training",
    };
    format!("{}-{set}", benchmark.name())
}

/// The persisted artifact of an input in a trace directory.
fn artifact_of(dir: &Path, input: &str) -> Option<PathBuf> {
    let prefix = format!("{input}-");
    fs::read_dir(dir).ok()?.filter_map(Result::ok).map(|e| e.path()).find(|p| {
        p.file_name()
            .and_then(|n| n.to_str())
            .is_some_and(|n| n.starts_with(&prefix) && n.ends_with(".tlabp"))
    })
}

/// Identity of a file's current contents: inode, length, mtime. A
/// rewrite (atomic rename) changes it.
fn file_id(path: &Path) -> Option<(u64, u64, i64, i64)> {
    let meta = fs::metadata(path).ok()?;
    Some((meta.ino(), meta.len(), meta.mtime(), meta.mtime_nsec()))
}

/// Per-artifact durations from an `all` run's `>>>` markers.
fn artifact_times(timed: &Timed) -> BTreeMap<String, Duration> {
    let mut times = BTreeMap::new();
    for (i, (at, name)) in timed.marks.iter().enumerate() {
        let end = timed.marks.get(i + 1).map_or(timed.wall, |(next, _)| *next);
        times.insert(name.clone(), end.saturating_sub(*at));
    }
    times
}

/// The workload's mode for the CLI part and the attribution.
fn mode_of(workload: &str) -> paper::Mode {
    if workload == "paper-cold" {
        paper::Mode::Cold
    } else {
        paper::Mode::Warm
    }
}

pub fn run(host: &Host, workload: &str, seed: u64) -> Result<Report, String> {
    let mut scratch = host.scratch()?;
    let expected = Expected::load(host, &scratch.path)?;
    let plans = serve::artifact_plans(host, &mut scratch)?;
    let mode = mode_of(workload);
    let mut report = Report::default();
    let mut spans = Spans::new();
    let root = spans.open("traced_run", None, Some(workload.to_owned()));

    // experiments: untraced and stdout-stamped `all` runs, alternated.
    let (populated, cli) =
        cli_runs(host, &mut scratch, &expected, mode, &mut spans, root, &mut report.tally)?;

    // sim.suite: first touch of every input, cold and warm.
    let cold_dir = scratch.fresh_dir("suite-cold")?;
    let cold_store = TraceStore::with_cache_dir(&cold_dir);
    let (_, cold_touch) =
        spans.time("suite.first_touch.cold", root, "all-inputs", || touch_all(&cold_store));
    let before: Vec<_> = inputs()
        .iter()
        .map(|&(b, d)| artifact_of(&populated, &input_name(b, d)).and_then(|p| file_id(&p)))
        .collect();
    let warm_store = TraceStore::with_cache_dir(&populated);
    let (_, warm_touch) =
        spans.time("suite.first_touch.warm", root, "all-inputs", || touch_all(&warm_store));
    let hydrated = inputs()
        .iter()
        .zip(&before)
        .filter(|((b, d), id)| {
            id.is_some()
                && **id == artifact_of(&populated, &input_name(b, *d)).and_then(|p| file_id(&p))
        })
        .count();
    report.set("suite.first_touch_s.cold", cold_touch.as_secs_f64());
    report.set("suite.first_touch_s.warm", warm_touch.as_secs_f64());
    report.set("suite.hydrate_hit_frac", hydrated as f64 / inputs().len() as f64);

    // sim.engine: each planned artifact on the store in the workload's
    // state, after its first touch.
    let store = if mode == paper::Mode::Cold { &cold_store } else { &warm_store };
    let session = Session::new(store.clone());
    let engine = spans.open("sim.engine", Some(root), None);
    let (mut plan_total, mut preds_total) = (0.0, 0u64);
    for name in PLANNED_ARTIFACTS {
        let Some(plan) = plans.get(name) else { continue };
        let id = spans.open("engine.plan", Some(engine), Some(name.to_owned()));
        let start = Instant::now();
        let mut first = None;
        let mut preds = 0u64;
        for item in session.submit(plan) {
            first.get_or_insert_with(|| start.elapsed());
            if let JobOutcome::Measured(m) = &item.outcome {
                preds += m.sim.predictions;
            }
        }
        let took = spans.close(id).as_secs_f64();
        plan_total += took;
        preds_total += preds;
        report.set(format!("engine.plan_s.{name}"), took);
        report.set(
            format!("engine.first_outcome_ms.{name}"),
            first.unwrap_or_default().as_secs_f64() * 1e3,
        );
        report.set(format!("engine.preds.{name}"), preds as f64);
    }
    spans.close(engine);
    report.set("engine.ns_per_pred", plan_total * 1e9 / preds_total.max(1) as f64);
    let bytes = store.cache_bytes();
    report.set("suite.cache_bytes.packed", bytes.packed as f64);
    report.set("suite.cache_bytes.interned", bytes.interned as f64);
    report.set("suite.cache_bytes.streams", bytes.streams as f64);
    report.set("suite.cache_bytes.disk", bytes.disk as f64);

    // Attribution of the traced `all` wall.
    let first_touch = if mode == paper::Mode::Cold { cold_touch } else { warm_touch };
    let layer_self = first_touch.as_secs_f64() + plan_total;
    report.set("experiments.layer_self_s", layer_self);
    report.set("experiments.unattributed_s", cli.traced_wall - layer_self);
    report.set("experiments.traced_wall_s", cli.traced_wall);
    report.set("experiments.untraced_wall_s", cli.untraced_wall);
    report.set("experiments.tracing_overhead_s", cli.traced_wall - cli.untraced_wall);
    for name in ALL_ARTIFACTS {
        let took = cli.artifacts.get(name).map_or(0.0, Duration::as_secs_f64);
        report.set(format!("experiments.artifact_s.{name}"), took);
    }
    report.note(format!(
        "attribution ({mode:?}): first touch {:.3} s + engine plans {plan_total:.3} s + unattributed {:.3} s = traced wall {:.3} s",
        first_touch.as_secs_f64(),
        cli.traced_wall - layer_self,
        cli.traced_wall
    ));
    report.note(format!(
        "tracing overhead: traced {:.3} s - untraced {:.3} s = {:.3} s (medians of {PAIRS} alternated `all` runs)",
        cli.traced_wall,
        cli.untraced_wall,
        cli.traced_wall - cli.untraced_wall
    ));
    drop(session);
    drop(cold_store);
    drop(warm_store);

    // workloads, trace: each stage of the first-touch pipeline by direct
    // call, on every input.
    let interned = direct_pipeline(&mut scratch, &populated, &mut spans, root, &mut report)?;

    // sim.runner: the grid's stream derivations and replay batches.
    runner_part(plans.get("grid"), &interned, &mut spans, root, &mut report);

    // service: fresh sweeps and their memo-hit repeats over a raw socket.
    service_part(host, &mut scratch, seed, &mut spans, root, &mut report)?;

    spans.close(root);
    let path = host.target.join("e2ebench").join(format!("spans-{workload}-seed{seed}.jsonl"));
    match spans.write(&path) {
        Ok(()) => report.note(format!("{} spans written to {}", spans.spans.len(), path.display())),
        Err(e) => eprintln!("e2ebench: cannot write {}: {e}", path.display()),
    }
    Ok(report)
}

/// First touch of every input through the store's getters, asking for
/// the forms `all` uses: the interned stream (and with it the packed
/// stream and the trace) of testing sets, the raw trace of training sets.
fn touch_all(store: &TraceStore) {
    for (benchmark, data_set) in inputs() {
        match data_set {
            DataSet::Testing => drop(store.get_interned(benchmark, data_set)),
            DataSet::Training => drop(store.get(benchmark, data_set)),
        }
    }
}

/// Walls and per-artifact times of the CLI runs.
struct CliRuns {
    untraced_wall: f64,
    traced_wall: f64,
    artifacts: BTreeMap<String, Duration>,
}

/// `PAIRS` untraced and stamped `all` runs, alternated, in the
/// workload's mode; returns a trace directory a real `all` populated.
fn cli_runs(
    host: &Host,
    scratch: &mut Scratch,
    expected: &Expected,
    mode: paper::Mode,
    spans: &mut Spans,
    root: usize,
    tally: &mut Tally,
) -> Result<(PathBuf, CliRuns), String> {
    let mut populated = None;
    if mode == paper::Mode::Warm {
        let (dir, timed, verdict) = paper::populate(host, scratch, expected)?;
        tally.record(verdict);
        let label = "populate".to_owned();
        spans.record("experiments.all", root, label, timed.started, timed.started + timed.wall);
        populated = Some(dir);
    }
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        for stamp in [false, true] {
            let dir = match (&populated, mode) {
                (Some(dir), paper::Mode::Warm) => dir.clone(),
                _ => scratch.fresh_dir("traces")?,
            };
            let (timed, verdict) = paper::run_all(host, scratch, expected, &dir, stamp)?;
            tally.record(verdict);
            let label = format!("{}-{pair}", if stamp { "traced" } else { "untraced" });
            spans.record("experiments.all", root, label, timed.started, timed.started + timed.wall);
            if stamp {
                let parent = spans.spans.len() - 1;
                let times = artifact_times(&timed);
                for (at, name) in &timed.marks {
                    let start = timed.started + *at;
                    spans.record(
                        "experiments.artifact",
                        parent,
                        name.clone(),
                        start,
                        start + times[name],
                    );
                }
                traced.push(timed);
            } else {
                untraced.push(timed.wall.as_secs_f64());
            }
            if mode == paper::Mode::Cold {
                if let Some(old) = populated.replace(dir) {
                    let _ = fs::remove_dir_all(old);
                }
            }
        }
    }
    traced.sort_by_key(|t| t.wall);
    let middle = &traced[traced.len() / 2];
    untraced.sort_by(f64::total_cmp);
    let runs = CliRuns {
        untraced_wall: median(&untraced).unwrap_or_default(),
        traced_wall: middle.wall.as_secs_f64(),
        artifacts: artifact_times(middle),
    };
    Ok((populated.expect("at least one `all` ran"), runs))
}

/// Generation, pack, intern, encode (with the atomic write) and decode of
/// each input by direct call. Returns the interned testing streams.
fn direct_pipeline(
    scratch: &mut Scratch,
    populated: &Path,
    spans: &mut Spans,
    root: usize,
    report: &mut Report,
) -> Result<BTreeMap<&'static str, InternedConds>, String> {
    let out = scratch.fresh_dir("encoded")?;
    let chunk_bytes = chunk_bytes_from_env();
    let mut totals = [Duration::ZERO; 5];
    let (mut events, mut artifact_bytes) = (0u64, 0u64);
    let mut interned_by_bench = BTreeMap::new();
    for (benchmark, data_set) in inputs() {
        let name = input_name(benchmark, data_set);
        let (trace, t) = spans.time("workloads.trace", root, &name, || benchmark.trace(data_set));
        totals[0] += t;
        events += trace.len() as u64;
        let (packed, t) = spans.time("trace.pack", root, &name, || trace.pack_conditionals());
        totals[1] += t;
        let (interned, t) =
            spans.time("trace.intern", root, &name, || InternedConds::from_packed(&packed));
        totals[2] += t;
        let path = out.join(format!("{name}.tlabp"));
        let (written, t) = spans.time("trace.encode", root, &name, || {
            let bytes = write_artifacts_chunked(
                benchmark.fingerprint(data_set),
                Some(&trace),
                Some(&packed),
                Some(&interned),
                &[],
                chunk_bytes,
            );
            write_file_atomic(&path, &bytes).map(|()| bytes.len())
        });
        totals[3] += t;
        artifact_bytes +=
            written.map_err(|e| format!("cannot write {}: {e}", path.display()))? as u64;
        let persisted = artifact_of(populated, &name)
            .ok_or_else(|| format!("`all` persisted no artifact for {name}"))?;
        let (decoded, t) = spans.time("trace.decode", root, &name, || {
            fs::read(&persisted)
                .map_err(|e| e.to_string())
                .and_then(|b| read_artifacts(&b).map_err(|e| e.to_string()))
        });
        totals[4] += t;
        report.tally.record(decoded.map(drop).map_err(|e| format!("decoding {name}: {e}")));
        if data_set == DataSet::Testing {
            interned_by_bench.insert(benchmark.name(), interned);
        }
    }
    let _ = fs::remove_dir_all(&out);
    for (metric, total) in
        ["workloads.trace_s", "trace.pack_s", "trace.intern_s", "trace.encode_s", "trace.decode_s"]
            .iter()
            .zip(totals)
    {
        report.set(*metric, total.as_secs_f64());
    }
    report.set("workloads.events", events as f64);
    report.set("trace.artifact_bytes", artifact_bytes as f64);
    Ok(interned_by_bench)
}

/// Derives one stream per (benchmark, fold class) of the grid plan, at
/// the class's widest width as the engine does, and replays each class's
/// members over it with the default kernel tier.
fn runner_part(
    grid: Option<&Plan>,
    interned: &BTreeMap<&'static str, InternedConds>,
    spans: &mut Spans,
    root: usize,
    report: &mut Report,
) {
    let mut groups: Vec<((&'static str, tlabp_sim::runner::FoldKey), Vec<_>)> = Vec::new();
    for job in grid.map_or(&[][..], Plan::jobs) {
        let PredictorSpec::Scheme(config) = job.spec else { continue };
        let Some(key) = replay_stream_key(config) else { continue };
        let group = (job.trace.benchmark.name(), key.fold_key());
        match groups.iter_mut().find(|(g, _)| *g == group) {
            Some((_, members)) => members.push((config, key)),
            None => groups.push((group, vec![(config, key)])),
        }
    }
    let (mut derive, mut replay, mut preds, mut streams) =
        (Duration::ZERO, Duration::ZERO, 0u64, 0u64);
    for ((bench, _), members) in &groups {
        let (Some(interned), Some(widest)) = (
            interned.get(bench),
            members.iter().map(|(_, key)| *key).max_by_key(|k| k.history_bits()),
        ) else {
            continue;
        };
        let Ok(predictors) =
            members.iter().map(|(c, _)| c.build_any()).collect::<Result<Vec<_>, _>>()
        else {
            continue;
        };
        let (stream, t) =
            spans.time("runner.derive", root, bench, || derive_pattern_stream(interned, widest));
        derive += t;
        streams += 1;
        let (results, t) = spans.time("runner.replay", root, bench, || {
            simulate_replay_transposed(&predictors, &stream, SimdMode::from_env())
        });
        replay += t;
        preds += results.iter().flatten().map(|r| r.predictions).sum::<u64>();
    }
    report.set("runner.derive_s", derive.as_secs_f64());
    report.set("runner.streams", streams as f64);
    report.set("runner.replay_preds_per_s", preds as f64 / replay.as_secs_f64().max(1e-9));
}

/// The bytes of the frames the daemon sends for `results`: one result
/// frame per outcome and the done frame, each with its newline.
fn response_bytes(results: &ResultSet, memo: bool) -> usize {
    let results_len: usize = results
        .outcomes()
        .enumerate()
        .map(|(index, outcome)| {
            encode_frame(FrameKind::Result, &result_payload(index, outcome)).len() + 1
        })
        .sum();
    let done = encode_frame(FrameKind::Done, &done_payload(results.outcomes().count(), memo));
    results_len + done.len() + 1
}

/// Submits `plan` and drains the response: the time to the first
/// outcome, the results, and the done frame's memo flag.
fn request(client: &mut Client, plan: &Plan) -> std::io::Result<(Duration, ResultSet, bool)> {
    let start = Instant::now();
    let mut stream = client.submit(plan)?;
    let (mut first, mut outcomes) = (None, Vec::with_capacity(plan.len()));
    while let Some((_, outcome)) = stream.next_outcome()? {
        first.get_or_insert_with(|| start.elapsed());
        outcomes.push(outcome);
    }
    let done = stream.finish()?;
    Ok((first.unwrap_or_default(), ResultSet::from_outcomes(plan, outcomes), done.memo))
}

fn service_part(
    host: &Host,
    scratch: &mut Scratch,
    seed: u64,
    spans: &mut Spans,
    root: usize,
    report: &mut Report,
) -> Result<(), String> {
    let plans: Vec<Plan> = serve::fresh_sweeps(seed).into_iter().take(SERVICE_PLANS).collect();
    let oracle = Session::new(TraceStore::new());
    let expected: Vec<String> = plans.iter().map(|p| oracle.run(p).to_json_string()).collect();

    let memo = scratch.fresh_dir("serve-memo")?;
    let daemon = serve::spawn_daemon(host, scratch, &memo)?;
    let mut client = Client::connect_with_retry(&daemon.addr, Duration::from_secs(30))
        .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
    let warmup = client.execute(&serve::warmup_plan());
    report.tally.record(warmup.map(drop).map_err(|e| format!("warm-up: {e}")));

    let (mut first_frames, mut sizes, mut hits) = (Vec::new(), Vec::new(), 0);
    let service = spans.open("service", Some(root), None);
    for (class, repeat) in [("fresh", false), ("memo", true)] {
        for (i, plan) in plans.iter().enumerate() {
            let id = spans.open("service.request", Some(service), Some(format!("{class}-{i}")));
            let answer = request(&mut client, plan);
            spans.close(id);
            let verdict = match answer {
                Ok((first, results, memo)) if results.to_json_string() == expected[i] => {
                    sizes.push(response_bytes(&results, memo) as f64);
                    if repeat {
                        hits += usize::from(memo);
                    } else {
                        first_frames.push(first.as_secs_f64() * 1e3);
                    }
                    Ok(())
                }
                Ok(_) => Err(format!("{class} response {i} differs from the in-process run")),
                Err(e) => Err(format!("{class} request {i} failed: {e}")),
            };
            report.tally.record(verdict);
        }
    }
    spans.close(service);
    drop(daemon);
    first_frames.sort_by(f64::total_cmp);
    sizes.sort_by(f64::total_cmp);
    report.set("service.memo_hit_frac", hits as f64 / plans.len().max(1) as f64);
    report.set("service.first_frame_ms.fresh", median(&first_frames).unwrap_or_default());
    report.set("service.response_bytes", median(&sizes).unwrap_or_default());
    Ok(())
}
