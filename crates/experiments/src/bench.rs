//! Throughput harness: reference baseline vs the engine's fast paths.
//!
//! Not a paper artifact. Five sections, each runnable alone via
//! `--section <name>` (mirroring the ARTIFACTS registry dispatch):
//!
//! **single** — the full-suite PAg(12) evaluation (the workhorse
//! configuration of Figures 5–11) measured two ways:
//!
//! * **reference** — each job forced onto the reference path (one boxed
//!   `dyn BranchPredictor` per benchmark, the event-dispatching
//!   simulation loop over the full trace), executed on a one-worker pool
//!   so cells run strictly one after another: the pre-sweep code path;
//! * **engine** — the same plan lowered normally on the global worker
//!   pool.
//!
//! **multi** — the full catalog sweep (every Table 3 configuration on
//! every benchmark), the shape every real experiment driver has,
//! measured two ways:
//!
//! * **per-cell** — every job capped at [`ExecPath::PerCell`], so it
//!   runs its own pass over the packed stream: the pre-fusion engine;
//! * **fused** — every job capped at [`ExecPath::Fused`], so the plan's
//!   jobs group by trace into batched passes over the
//!   pc-interned stream ([`tlabp_sim::runner::simulate_fused`]): the
//!   PR 3 engine.
//!
//! **replay** — the automaton-ablation sweep (every Figure 5 automaton
//! on PAg(12) plus the PSg(12) preset second level, all sharing the
//! paper-default `BHT(512,4,12)` first level, on every benchmark),
//! measured three ways:
//!
//! * **fused** — capped at [`ExecPath::Fused`]: every job re-walks the
//!   shared BHT inside its fused batch (the PR 3 path, this section's
//!   baseline);
//! * **replay scalar** — the transposed replay lowering forced onto the
//!   scalar per-member kernel body
//!   ([`tlabp_core::SimdMode::Scalar`]): one stream walk for the
//!   whole batch, no bit-slicing — the PR 4-equivalent path;
//! * **replay** — the default lowering: the same single stream walk
//!   through the bit-sliced SWAR kernel
//!   ([`tlabp_sim::runner::simulate_replay_transposed`]), body chosen
//!   by `TLABP_SIMD` (default: the SWAR body).
//!
//! **cold_start** — trace *ingestion* rather than simulation: VM
//! generation plus form derivation for the ablation plan, measured lazy
//! and serial (no cache), through the engine's parallel prefetch
//! barrier, and as a warm disk-cache load
//! ([`tlabp_sim::TraceStore::with_cache_dir`]). Lands in
//! `results/BENCH_cold_start.csv`.
//!
//! **service** — the sweep daemon's event-driven connection core
//! ([`tlabp_service::event`]) under 64 concurrent clients, in two
//! regimes:
//!
//! * **cold** — memoization disabled, one cheap job per plan: every
//!   submission simulates, so the cell is simulation-bound;
//! * **memo** — a catalog-wide 27-job plan submitted repeatedly after
//!   one warm execution: every timed submission is a memo hit, so the
//!   cell isolates connection handling (the event core answers hits
//!   from the raw payload without parsing the plan and writes response
//!   frames in readiness-sized batches).
//!
//! Every timed response is `read_exact` into a buffer and byte-compared
//! against frames encoded from an in-process `execute` of the same plan
//! — throughput numbers only count if the daemon's answers are
//! bit-identical. Lands in `BENCH_service.csv` and the `service` block
//! of `BENCH_sweep.json`. The committed `results/` copies are the
//! historical event-vs-threaded record, measured while the daemon still
//! had a thread-per-connection loop.
//!
//! Every bench artifact (the CSVs and `BENCH_sweep.json`) records the
//! measuring host's facts — core count, pool width, requested and
//! selected kernel body — so a committed number carries the hardware
//! context that bounds it.
//!
//! All other runs start from warmed trace caches (including materialized
//! pattern streams), so the numbers compare simulation throughput, not
//! VM trace generation or stream derivation. Within each section the
//! throughput numerator is identical across modes (trace events for the
//! single-scheme pair, measured predictions for the other two), so each
//! reported speedup equals the wall-clock ratio. Results print as
//! tables; a full (unfiltered) run lands in `results/BENCH_sweep.json`.
//! Every run ends with the per-form cache-bytes report, warning when the
//! total exceeds a 1 GiB soft cap.
//!
//! Timing iterations default to 3 (best-of); the `TLABP_BENCH_ITERS`
//! environment variable overrides (CI smoke runs set 1).

use std::time::Instant;

use tlabp_core::automaton::Automaton;
use tlabp_core::config::SchemeConfig;
use tlabp_core::SimdMode;
use tlabp_sim::engine::{execute, execute_on, execute_with, prefetch_on, ExecOptions};
use tlabp_sim::plan::{ExecPath, Job, Plan};
use tlabp_sim::report::Table;
use tlabp_sim::runner::SimConfig;
use tlabp_sim::{SweepPool, TraceStore};
use tlabp_workloads::{Benchmark, DataSet};

use crate::tables::all_table3_configs;
use crate::Ctx;

/// Fastest of `n` timed runs, in seconds.
fn best_of(n: u32, mut body: impl FnMut()) -> f64 {
    (0..n)
        .map(|_| {
            let start = Instant::now();
            body();
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

/// Timing iterations: `TLABP_BENCH_ITERS` when it holds a positive
/// integer, else 3.
fn bench_iterations() -> u32 {
    std::env::var("TLABP_BENCH_ITERS")
        .ok()
        .and_then(|v| v.trim().parse::<u32>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(3)
}

/// Soft cap for the trace-cache footprint report, in bytes.
const CACHE_BYTES_CAP: usize = 1 << 30;

/// A bench section: runs its measurement and returns the JSON fragment
/// (a `"name": {...}` member) it contributes to `BENCH_sweep.json`.
type Section = fn(&Ctx, u32, usize) -> String;

/// The registered bench sections, in run order.
const SECTIONS: [(&str, Section); 5] = [
    ("single", single_section),
    ("multi", multi_section),
    ("replay", replay_section),
    ("cold_start", cold_start_section),
    ("service", service_section),
];

/// The measuring host's core count.
fn host_cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZero::get)
}

/// The host facts every bench artifact records: core count, pool width,
/// and the requested vs selected replay kernel body.
fn host_meta(threads: usize) -> Vec<(&'static str, String)> {
    let mode = SimdMode::from_env();
    vec![
        ("host_cores", host_cores().to_string()),
        ("pool_threads", threads.to_string()),
        ("simd_requested", mode.name().to_owned()),
        ("simd_selected", mode.resolved_name().to_owned()),
    ]
}

/// `cargo run -p tlabp-experiments --release -- bench [--section NAME]`
pub fn bench(ctx: &Ctx) {
    let iterations = bench_iterations();
    let threads = SweepPool::global().threads();

    match ctx.section() {
        Some(name) => match SECTIONS.iter().find(|(section, _)| *section == name) {
            Some((_, run)) => {
                run(ctx, iterations, threads);
                println!("[section {name:?} only: not rewriting BENCH_sweep.json]\n");
            }
            None => {
                eprintln!("unknown bench section {name:?}");
                eprintln!("sections: {}", SECTIONS.map(|(section, _)| section).join(", "));
                std::process::exit(2);
            }
        },
        None => {
            let fragments: Vec<String> =
                SECTIONS.iter().map(|(_, run)| run(ctx, iterations, threads)).collect();
            let mode = SimdMode::from_env();
            let json = format!(
                "{{\n  \"iterations\": {iterations},\n  \
                 \"sweep_threads\": {threads},\n  \
                 \"host_cores\": {cores},\n  \
                 \"simd_requested\": \"{requested}\",\n  \
                 \"simd_selected\": \"{selected}\",\n{}\n}}\n",
                fragments.join(",\n"),
                cores = host_cores(),
                requested = mode.name(),
                selected = mode.resolved_name(),
            );
            ctx.emit_raw("BENCH_sweep.json", &json);
        }
    }

    report_cache_bytes(ctx);
}

/// Single scheme: full-suite PAg(12), reference vs engine.
fn single_section(ctx: &Ctx, iterations: u32, threads: usize) -> String {
    let config = SchemeConfig::pag(12);

    // Warm every cache both modes touch.
    let mut total_events = 0u64;
    let mut total_conditionals = 0u64;
    for benchmark in &Benchmark::ALL {
        total_events += ctx.store().get(benchmark, DataSet::Testing).len() as u64;
        total_conditionals += ctx.store().get_packed(benchmark, DataSet::Testing).len() as u64;
    }

    let fast_plan: Plan =
        Benchmark::ALL.iter().map(|benchmark| Job::scheme(config, benchmark)).collect();
    let reference_plan: Plan = Benchmark::ALL
        .iter()
        .map(|benchmark| Job::scheme(config, benchmark).with_path(ExecPath::Reference))
        .collect();

    let sequential_pool = SweepPool::new(1);
    let sequential_secs = best_of(iterations, || {
        let results = execute_on(&sequential_pool, &reference_plan, ctx.store());
        assert!(results.iter().all(|(_, o)| o.accuracy().is_some()));
    });
    let sweep_secs = best_of(iterations, || {
        let results = execute(&fast_plan, ctx.store());
        assert_eq!(results.len(), Benchmark::ALL.len());
    });

    let seq_eps = total_events as f64 / sequential_secs;
    let sweep_eps = total_events as f64 / sweep_secs;
    let sweep_speedup = sequential_secs / sweep_secs;

    let mut table = Table::new(vec![
        "mode".into(),
        format!("seconds (best of {iterations})"),
        "events/sec".into(),
        "speedup".into(),
    ]);
    table.push_row(vec![
        "sequential dyn".into(),
        format!("{sequential_secs:.3}"),
        format!("{seq_eps:.0}"),
        "1.00".into(),
    ]);
    table.push_row(vec![
        format!("sweep ({threads} threads)"),
        format!("{sweep_secs:.3}"),
        format!("{sweep_eps:.0}"),
        format!("{sweep_speedup:.2}"),
    ]);
    ctx.emit("BENCH_sweep_table", "Sweep throughput: full-suite PAg(12)", &table);

    format!(
        "  \"single_scheme\": {{\n    \
           \"benchmark\": \"full-suite PAg(12), no context switches\",\n    \
           \"total_trace_events\": {total_events},\n    \
           \"total_conditional_branches\": {total_conditionals},\n    \
           \"sequential\": {{ \"seconds\": {sequential_secs:.6}, \"events_per_sec\": {seq_eps:.1} }},\n    \
           \"sweep\": {{ \"seconds\": {sweep_secs:.6}, \"events_per_sec\": {sweep_eps:.1} }},\n    \
           \"speedup\": {sweep_speedup:.3}\n  }}"
    )
}

/// Multi scheme: full catalog sweep, per-cell vs fused.
fn multi_section(ctx: &Ctx, iterations: u32, threads: usize) -> String {
    let configs = all_table3_configs();
    // Replay off in both modes: this section isolates what fusion buys
    // over per-cell passes (the PR 3 comparison); the replay section
    // below measures what replay buys over fusion.
    let fused_plan: Plan = Plan::suites(&configs, &SimConfig::no_context_switch())
        .into_iter()
        .map(|job| job.with_path(ExecPath::Fused))
        .collect();
    let cell_plan: Plan =
        fused_plan.jobs().iter().map(|job| job.clone().with_path(ExecPath::PerCell)).collect();

    // One throwaway execution warms the training traces and interned
    // streams and supplies the shared numerator: the predictions every
    // measured job makes (identical across modes by construction —
    // fusion never changes results, asserted by the differential suite).
    let warm = execute(&fused_plan, ctx.store());
    let multi_predictions: u64 =
        warm.iter().filter_map(|(_, o)| o.metrics()).map(|m| m.sim.predictions).sum();

    let cell_secs = best_of(iterations, || {
        let results = execute(&cell_plan, ctx.store());
        assert_eq!(results.len(), cell_plan.len());
    });
    let fused_secs = best_of(iterations, || {
        let results = execute(&fused_plan, ctx.store());
        assert_eq!(results.len(), fused_plan.len());
    });

    let cell_eps = multi_predictions as f64 / cell_secs;
    let fused_eps = multi_predictions as f64 / fused_secs;
    let fused_speedup = cell_secs / fused_secs;

    let mut fused_table = Table::new(vec![
        "mode".into(),
        format!("seconds (best of {iterations})"),
        "predictions/sec".into(),
        "speedup".into(),
    ]);
    fused_table.push_row(vec![
        format!("per-cell ({threads} threads)"),
        format!("{cell_secs:.3}"),
        format!("{cell_eps:.0}"),
        "1.00".into(),
    ]);
    fused_table.push_row(vec![
        format!("fused ({threads} threads)"),
        format!("{fused_secs:.3}"),
        format!("{fused_eps:.0}"),
        format!("{fused_speedup:.2}"),
    ]);
    ctx.emit(
        "BENCH_fused_table",
        &format!(
            "Fused trace passes: {} Table 3 configs x {} benchmarks",
            configs.len(),
            Benchmark::ALL.len()
        ),
        &fused_table,
    );

    format!(
        "  \"multi_scheme\": {{\n    \
           \"benchmark\": \"all Table 3 configs x all benchmarks, no context switches\",\n    \
           \"configs\": {n_configs},\n    \
           \"jobs\": {n_jobs},\n    \
           \"measured_predictions\": {multi_predictions},\n    \
           \"cell\": {{ \"seconds\": {cell_secs:.6}, \"events_per_sec\": {cell_eps:.1} }},\n    \
           \"fused\": {{ \"seconds\": {fused_secs:.6}, \"events_per_sec\": {fused_eps:.1} }},\n    \
           \"speedup\": {fused_speedup:.3}\n  }}",
        n_configs = configs.len(),
        n_jobs = fused_plan.len(),
    )
}

/// Replay: the automaton-ablation sweep, fused vs pattern-stream replay.
fn replay_section(ctx: &Ctx, iterations: u32, threads: usize) -> String {
    // Every second-level variant of the paper-default first level: all
    // six automata (the five of Figure 5 plus the untrained preset bit)
    // on PAg(12). All six share BHT(512,4,12), so fused execution
    // already rides one driver walk per benchmark — the strongest
    // available baseline — and replay shares one materialized stream per
    // benchmark. The trained PSg variant is deliberately absent: both
    // modes would rebuild (re-train) it inside the timed region, adding
    // a constant that measures training, not the sweep.
    let configs: Vec<SchemeConfig> = Automaton::ALL
        .iter()
        .map(|&automaton| SchemeConfig::pag(12).with_automaton(automaton))
        .collect();
    let replay_plan = Plan::suites(&configs, &SimConfig::no_context_switch());
    let fused_plan: Plan =
        replay_plan.jobs().iter().map(|job| job.clone().with_path(ExecPath::Fused)).collect();

    // Warm run on the replay lowering: generates traces and derives and
    // caches every pattern stream — so the timed runs below measure
    // replay, not derivation — and supplies the shared numerator (replay
    // is bit-identical to fusion, asserted by the differential suite).
    let warm = execute(&replay_plan, ctx.store());
    let replay_predictions: u64 =
        warm.iter().filter_map(|(_, o)| o.metrics()).map(|m| m.sim.predictions).sum();

    let fused_secs = best_of(iterations, || {
        let results = execute(&fused_plan, ctx.store());
        assert_eq!(results.len(), fused_plan.len());
    });
    let scalar_secs = best_of(iterations, || {
        let results = execute_with(
            SweepPool::global(),
            &replay_plan,
            ctx.store(),
            ExecOptions { simd: SimdMode::Scalar, ..ExecOptions::default() },
        );
        assert_eq!(results.len(), replay_plan.len());
    });
    let replay_secs = best_of(iterations, || {
        let results = execute(&replay_plan, ctx.store());
        assert_eq!(results.len(), replay_plan.len());
    });

    let fused_eps = replay_predictions as f64 / fused_secs;
    let scalar_eps = replay_predictions as f64 / scalar_secs;
    let replay_eps = replay_predictions as f64 / replay_secs;
    let scalar_speedup = fused_secs / scalar_secs;
    let replay_speedup = fused_secs / replay_secs;
    let simd_speedup = scalar_secs / replay_secs;

    let mut table = Table::new(vec![
        "mode".into(),
        format!("seconds (best of {iterations})"),
        "predictions/sec".into(),
        "speedup".into(),
    ]);
    table.push_row(vec![
        format!("fused ({threads} threads)"),
        format!("{fused_secs:.3}"),
        format!("{fused_eps:.0}"),
        "1.00".into(),
    ]);
    table.push_row(vec![
        format!("replay scalar ({threads} threads)"),
        format!("{scalar_secs:.3}"),
        format!("{scalar_eps:.0}"),
        format!("{scalar_speedup:.2}"),
    ]);
    table.push_row(vec![
        format!("replay simd ({threads} threads)"),
        format!("{replay_secs:.3}"),
        format!("{replay_eps:.0}"),
        format!("{replay_speedup:.2}"),
    ]);
    ctx.emit_with_meta(
        "BENCH_replay_table",
        &format!(
            "Pattern-stream replay: {} automaton ablations x {} benchmarks (simd vs scalar: {simd_speedup:.2}x)",
            configs.len(),
            Benchmark::ALL.len()
        ),
        &host_meta(threads),
        &table,
    );

    format!(
        "  \"replay\": {{\n    \
           \"benchmark\": \"automaton ablations on BHT(512,4,12) x all benchmarks, no context switches\",\n    \
           \"configs\": {n_configs},\n    \
           \"jobs\": {n_jobs},\n    \
           \"measured_predictions\": {replay_predictions},\n    \
           \"fused\": {{ \"seconds\": {fused_secs:.6}, \"events_per_sec\": {fused_eps:.1} }},\n    \
           \"replay_scalar\": {{ \"seconds\": {scalar_secs:.6}, \"events_per_sec\": {scalar_eps:.1} }},\n    \
           \"replay\": {{ \"seconds\": {replay_secs:.6}, \"events_per_sec\": {replay_eps:.1} }},\n    \
           \"simd_speedup\": {simd_speedup:.3},\n    \
           \"speedup\": {replay_speedup:.3}\n  }}",
        n_configs = configs.len(),
        n_jobs = replay_plan.len(),
    )
}

/// Cold start: trace ingestion (VM generation + form derivation) for the
/// automaton-ablation plan, measured three ways — lazy serial with no
/// cache at all, the engine's parallel prefetch barrier, and a warm
/// disk-cache load. Unlike the other sections, the interesting state here
/// is an *empty* store, so every timed iteration builds a fresh one.
fn cold_start_section(ctx: &Ctx, iterations: u32, threads: usize) -> String {
    let configs: Vec<SchemeConfig> = Automaton::ALL
        .iter()
        .map(|&automaton| SchemeConfig::pag(12).with_automaton(automaton))
        .collect();
    let plan = Plan::suites(&configs, &SimConfig::no_context_switch());

    // (a) Cold, serial: one worker generates and derives every form in
    // sequence — what every lazy first touch cost before the prefetch
    // barrier existed.
    let serial_pool = SweepPool::new(1);
    let cold_serial_secs = best_of(iterations, || {
        let cold = TraceStore::new();
        prefetch_on(&serial_pool, &plan, &cold);
        assert_eq!(cold.len(), Benchmark::ALL.len());
    });

    // (b) Cold, parallel: the same work fanned across the global pool by
    // the prefetch barrier, still without any disk cache.
    let prefetch_secs = best_of(iterations, || {
        let cold = TraceStore::new();
        prefetch_on(SweepPool::global(), &plan, &cold);
        assert_eq!(cold.len(), Benchmark::ALL.len());
    });

    // (c) Warm disk: populate an artifact directory once (untimed), then
    // time fresh stores hydrating from it — no VM, no derivation.
    let dir = std::env::temp_dir().join(format!("tlabp-bench-cold-start-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    prefetch_on(SweepPool::global(), &plan, &TraceStore::with_cache_dir(&dir));
    let warm_disk_secs = best_of(iterations, || {
        let warm = TraceStore::with_cache_dir(&dir);
        prefetch_on(SweepPool::global(), &plan, &warm);
        assert_eq!(warm.len(), Benchmark::ALL.len());
    });
    let disk_bytes = TraceStore::with_cache_dir(&dir).cache_bytes().disk;
    let _ = std::fs::remove_dir_all(&dir);

    let prefetch_speedup = cold_serial_secs / prefetch_secs;
    let warm_speedup = cold_serial_secs / warm_disk_secs;
    // The measured cores, recorded with the numbers: prefetch-vs-serial
    // speedup is bounded by this, so the figure is meaningless without it.
    let host_cores = host_cores();

    let mut table = Table::new(vec![
        "mode".into(),
        format!("seconds (best of {iterations})"),
        "speedup".into(),
    ]);
    table.push_row(vec![
        "cold VM, serial (1 thread)".into(),
        format!("{cold_serial_secs:.3}"),
        "1.00".into(),
    ]);
    table.push_row(vec![
        format!("cold VM, prefetch ({threads} threads)"),
        format!("{prefetch_secs:.3}"),
        format!("{prefetch_speedup:.2}"),
    ]);
    table.push_row(vec![
        "warm disk cache".into(),
        format!("{warm_disk_secs:.3}"),
        format!("{warm_speedup:.2}"),
    ]);
    ctx.emit_with_meta(
        "BENCH_cold_start",
        &format!(
            "Cold-start ingestion: {} benchmarks, {} disk-artifact bytes, {host_cores}-core host",
            Benchmark::ALL.len(),
            disk_bytes
        ),
        &host_meta(threads),
        &table,
    );

    format!(
        "  \"cold_start\": {{\n    \
           \"benchmark\": \"trace generation + derivation for the automaton-ablation plan\",\n    \
           \"host_cores\": {host_cores},\n    \
           \"disk_artifact_bytes\": {disk_bytes},\n    \
           \"cold_serial\": {{ \"seconds\": {cold_serial_secs:.6} }},\n    \
           \"prefetch\": {{ \"seconds\": {prefetch_secs:.6}, \"speedup\": {prefetch_speedup:.3} }},\n    \
           \"warm_disk\": {{ \"seconds\": {warm_disk_secs:.6}, \"speedup\": {warm_speedup:.3} }}\n  }}"
    )
}

/// Concurrent clients the service load generator drives per cell.
const SERVICE_CLIENTS: usize = 64;
/// Timed rounds each client submits in the memo-hit cells.
const SERVICE_MEMO_ROUNDS: usize = 16;

/// The exact response byte stream the daemon must produce for `plan`:
/// one result frame per job in plan order, then the terminal done frame,
/// each newline-terminated.
fn service_expected_bytes(plan: &Plan, results: &tlabp_sim::ResultSet, memo: bool) -> Vec<u8> {
    use tlabp_service::proto::{done_payload, encode_frame, result_payload, FrameKind};
    let mut bytes = Vec::new();
    for index in 0..plan.len() {
        let payload = result_payload(index, results.outcome(index));
        bytes.extend_from_slice(encode_frame(FrameKind::Result, &payload).as_bytes());
        bytes.push(b'\n');
    }
    bytes.extend_from_slice(
        encode_frame(FrameKind::Done, &done_payload(plan.len(), memo)).as_bytes(),
    );
    bytes.push(b'\n');
    bytes
}

/// One timed service cell's aggregate numbers.
struct ServiceCell {
    seconds: f64,
    plans_per_s: f64,
    frames_per_s: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drives `clients` concurrent raw-socket clients against the daemon at
/// `addr`: each submits `rounds` copies of the pre-encoded plan frame
/// and `read_exact`s the full response, byte-compared against the
/// expected in-process encoding. Returns the aggregate rates and the
/// per-plan latency percentiles across all clients.
fn service_drive(
    addr: &str,
    clients: usize,
    rounds: usize,
    plan_frame: &std::sync::Arc<Vec<u8>>,
    expected: &std::sync::Arc<Vec<u8>>,
    frames_per_plan: usize,
) -> ServiceCell {
    use std::io::{Read, Write};

    let start = Instant::now();
    let handles: Vec<_> = (0..clients)
        .map(|client| {
            let addr = addr.to_owned();
            let plan_frame = std::sync::Arc::clone(plan_frame);
            let expected = std::sync::Arc::clone(expected);
            std::thread::spawn(move || {
                let mut stream =
                    std::net::TcpStream::connect(&addr).expect("bench client connects");
                stream.set_nodelay(true).expect("set_nodelay");
                let mut response = vec![0u8; expected.len()];
                let mut latencies = Vec::with_capacity(rounds);
                for round in 0..rounds {
                    let sent = Instant::now();
                    stream.write_all(&plan_frame).expect("plan frame writes");
                    stream.read_exact(&mut response).expect("full response reads");
                    latencies.push(sent.elapsed().as_secs_f64() * 1e3);
                    assert!(
                        response == *expected.as_slice(),
                        "client {client} round {round}: daemon response bytes diverged \
                         from the in-process execution"
                    );
                }
                latencies
            })
        })
        .collect();
    let mut latencies: Vec<f64> = handles
        .into_iter()
        .flat_map(|handle| handle.join().expect("bench client thread"))
        .collect();
    let seconds = start.elapsed().as_secs_f64();
    latencies.sort_by(f64::total_cmp);
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p).round() as usize];
    let plans = (clients * rounds) as f64;
    ServiceCell {
        seconds,
        plans_per_s: plans / seconds,
        frames_per_s: plans * frames_per_plan as f64 / seconds,
        p50_ms: pct(0.50),
        p99_ms: pct(0.99),
    }
}

/// The **service** section: the event core under concurrent load.
/// Iteration count is ignored — each cell already aggregates over
/// `clients x rounds` submissions.
fn service_section(ctx: &Ctx, _iterations: u32, threads: usize) -> String {
    use std::sync::Arc;
    use std::time::Duration;
    use tlabp_service::proto::{encode_frame, FrameKind};
    use tlabp_service::{
        Client, MemoDirMode, ServeConfig, SweepServer, DEFAULT_INFLIGHT, DEFAULT_MEMO_BYTES,
    };

    // Memo-hit plan: three schemes across the whole catalog — 27 jobs of
    // canonical JSON per submission and 28 response frames, the shape
    // that exposes per-plan connection-handling overhead.
    let memo_plan: Plan = [SchemeConfig::pag(12), SchemeConfig::gag(10), SchemeConfig::gsg(6)]
        .iter()
        .flat_map(|&config| {
            Benchmark::ALL.iter().map(move |benchmark| Job::scheme(config, benchmark))
        })
        .collect();

    // Cold plan: one cheap job on the shortest trace. With memoization
    // off every submission simulates, so this cell is simulation-bound.
    let short = Benchmark::ALL
        .iter()
        .min_by_key(|benchmark| ctx.store().get_packed(benchmark, DataSet::Testing).len())
        .expect("catalog is non-empty");
    let cold_plan: Plan = std::iter::once(Job::scheme(SchemeConfig::btfn(), short)).collect();

    // In-process reference executions: the byte streams every timed
    // response is compared against.
    let memo_results = ctx.run(&memo_plan);
    let cold_results = ctx.run(&cold_plan);
    let frame_bytes = |plan: &Plan| {
        let mut bytes = encode_frame(FrameKind::Plan, &plan.to_json_string()).into_bytes();
        bytes.push(b'\n');
        Arc::new(bytes)
    };
    let memo_frame = frame_bytes(&memo_plan);
    let cold_frame = frame_bytes(&cold_plan);
    let memo_expected = Arc::new(service_expected_bytes(&memo_plan, &memo_results, true));
    let cold_expected = Arc::new(service_expected_bytes(&cold_plan, &cold_results, false));

    let spawn_server = |memo_bytes: usize| -> String {
        let config = ServeConfig {
            addr: "127.0.0.1:0".to_owned(),
            memo_bytes,
            inflight: DEFAULT_INFLIGHT,
            memo_dir: MemoDirMode::Off,
            memo_disk_bytes: None,
        };
        let server = SweepServer::bind(&config, ctx.store().clone(), ExecOptions::default())
            .expect("bench daemon binds");
        let addr = server.local_addr().expect("bound address").to_string();
        std::thread::spawn(move || server.run());
        addr
    };

    // Cold cell: memoization off, one submission per client.
    let addr = spawn_server(0);
    let cold =
        service_drive(&addr, SERVICE_CLIENTS, 1, &cold_frame, &cold_expected, cold_plan.len() + 1);

    // Memo cell: one untimed warm execution through the structured
    // client (verifying the decoded results too), then every timed
    // submission is a memo hit.
    let addr = spawn_server(DEFAULT_MEMO_BYTES);
    let mut client =
        Client::connect_with_retry(&addr, Duration::from_secs(10)).expect("bench daemon reachable");
    let (warm, done) = client.execute(&memo_plan).expect("warm submission");
    assert!(!done.memo, "the first submission must simulate");
    assert_eq!(
        warm.to_json_string(),
        memo_results.to_json_string(),
        "daemon results must be bit-identical to the in-process execution"
    );
    drop(client);
    let memo = service_drive(
        &addr,
        SERVICE_CLIENTS,
        SERVICE_MEMO_ROUNDS,
        &memo_frame,
        &memo_expected,
        memo_plan.len() + 1,
    );

    let mut table = Table::new(vec![
        "mode".into(),
        "clients".into(),
        "plans".into(),
        "plans/s".into(),
        "frames/s".into(),
        "p50 ms".into(),
        "p99 ms".into(),
    ]);
    let mut rows = Vec::new();
    for (mode, rounds, cell) in [("cold", 1, &cold), ("memo", SERVICE_MEMO_ROUNDS, &memo)] {
        let plans = SERVICE_CLIENTS * rounds;
        table.push_row(vec![
            mode.into(),
            SERVICE_CLIENTS.to_string(),
            plans.to_string(),
            format!("{:.1}", cell.plans_per_s),
            format!("{:.1}", cell.frames_per_s),
            format!("{:.3}", cell.p50_ms),
            format!("{:.3}", cell.p99_ms),
        ]);
        rows.push(format!(
            "      {{ \"mode\": \"{mode}\", \"plans\": {plans}, \"seconds\": {:.6}, \
             \"plans_per_s\": {:.1}, \"frames_per_s\": {:.1}, \"p50_ms\": {:.3}, \
             \"p99_ms\": {:.3} }}",
            cell.seconds, cell.plans_per_s, cell.frames_per_s, cell.p50_ms, cell.p99_ms
        ));
    }

    ctx.emit_with_meta(
        "BENCH_service",
        &format!(
            "Sweep service: {SERVICE_CLIENTS} concurrent clients on the event core, every \
             response byte-verified"
        ),
        &host_meta(threads),
        &table,
    );

    format!(
        "  \"service\": {{\n    \
           \"benchmark\": \"{SERVICE_CLIENTS} concurrent clients, cold vs memo-hit plans, \
           event core, responses byte-verified\",\n    \
           \"clients\": {SERVICE_CLIENTS},\n    \
           \"memo_plan_jobs\": {jobs},\n    \
           \"rows\": [\n{rows}\n    ]\n  }}",
        jobs = memo_plan.len(),
        rows = rows.join(",\n"),
    )
}

/// Per-form cache footprint of everything the run materialized, with a
/// warning when the total (hydrated forms plus v3 disk artifacts) is
/// above [`CACHE_BYTES_CAP`].
fn report_cache_bytes(ctx: &Ctx) {
    let bytes = ctx.store().cache_bytes();
    let mib = |n: usize| format!("{:.2}", n as f64 / (1024.0 * 1024.0));
    let mut table = Table::new(vec!["cached form".into(), "bytes".into(), "MiB".into()]);
    table.push_row(vec!["packed".into(), bytes.packed.to_string(), mib(bytes.packed)]);
    table.push_row(vec!["interned".into(), bytes.interned.to_string(), mib(bytes.interned)]);
    table.push_row(vec!["pattern streams".into(), bytes.streams.to_string(), mib(bytes.streams)]);
    table.push_row(vec!["disk artifacts".into(), bytes.disk.to_string(), mib(bytes.disk)]);
    table.push_row(vec!["total".into(), bytes.total().to_string(), mib(bytes.total())]);
    ctx.emit("BENCH_cache_bytes", "Trace cache footprint by form", &table);
    if bytes.total() > CACHE_BYTES_CAP {
        eprintln!(
            "warning: trace cache holds {} bytes, above the {CACHE_BYTES_CAP}-byte soft cap",
            bytes.total()
        );
    }
}
