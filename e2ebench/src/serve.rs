//! `serve-mixed`: one `experiments serve` daemon driven by `nproc`
//! closed-loop wire clients. The traffic follows the daemon's documented
//! use: the artifact plans `experiments plan` writes, answered once and
//! then repeated (memo hits), interleaved with fresh configuration sweeps
//! over the `grid` artifact's axes. Every response is byte-compared,
//! after the timed phase, against an in-process `Session` run of the
//! same plan.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::thread;
use std::time::{Duration, Instant};

use tlabp_core::automaton::Automaton;
use tlabp_core::config::SchemeConfig;
use tlabp_core::registry;
use tlabp_core::schemes::Gshare;
use tlabp_service::Client;
use tlabp_sim::runner::SimConfig;
use tlabp_sim::{Plan, PredictorSpec, Session, TraceStore};
use tlabp_trace::rng::SmallRng;

use crate::host::{free_addr, Host, Reaped, Scratch};
use crate::metrics::PLANNED_ARTIFACTS;
use crate::Report;

/// The load runs in this many equal segments, each on a daemon of its
/// own. Segments are a measurement device, not traffic: each one gives
/// a `setup_s` sample and a `peak_rss_mb` sample, and the medians over
/// several daemons are steadier than one daemon's figures. Few enough
/// that each daemon answers many sweeps, as a long-lived one does.
const SEGMENTS: u32 = 4;
/// How long a client waits for a just-spawned daemon to accept.
const CONNECT_DEADLINE: Duration = Duration::from_secs(30);

/// History widths fresh sweeps draw from: the `grid` artifact's width
/// axis.
const WIDTHS: [u32; 5] = [4, 6, 8, 10, 12];

/// The plan every daemon answers first: always-taken and the trained
/// profiling scheme over the nine benchmarks. It touches every testing
/// and every training trace but lowers to no pattern-stream replay, so
/// stream derivation stays on the fresh sweeps' path.
pub fn warmup_plan() -> Plan {
    let configs = [SchemeConfig::always_taken(), SchemeConfig::profiling()];
    Plan::suites(&configs, &SimConfig::no_context_switch())
}

/// Every fresh sweep, in the order `seed` shuffles them into: one of the
/// `grid` artifact's structures (GAg, PAg, PAp) at one history width
/// from [`WIDTHS`] × two of the Figure 5 automata, over the nine
/// benchmarks (18 jobs, lowered to pattern-stream replay). None of them
/// is an artifact plan, so each is answered by simulation the first
/// time a daemon sees it.
pub fn fresh_sweeps(seed: u64) -> Vec<Plan> {
    type Make = fn(u32) -> SchemeConfig;
    let structures: [Make; 3] = [SchemeConfig::gag, SchemeConfig::pag, SchemeConfig::pap];
    let automata = Automaton::FIGURE5;
    let mut plans = Vec::new();
    for make in structures {
        for width in WIDTHS {
            for (i, &a1) in automata.iter().enumerate() {
                for &a2 in &automata[i + 1..] {
                    let configs = [a1, a2].map(|a| make(width).with_automaton(a));
                    plans.push(Plan::suites(&configs, &SimConfig::no_context_switch()));
                }
            }
        }
    }
    shuffle(&mut plans, &mut SmallRng::seed_from_u64(seed));
    plans
}

/// Each planned artifact's plan, as `experiments plan` writes it.
pub fn artifact_plans(
    host: &Host,
    scratch: &mut Scratch,
) -> Result<BTreeMap<&'static str, Plan>, String> {
    let dir = scratch.fresh_dir("plans")?;
    let mut plans = BTreeMap::new();
    for name in PLANNED_ARTIFACTS {
        let status = host
            .cli(&scratch.path)
            .args(["plan", name, "--out"])
            .arg(&dir)
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run the CLI: {e}"))?;
        if !status.success() {
            return Err(format!("`experiments plan {name}` failed ({status})"));
        }
        let text = fs::read_to_string(dir.join(format!("{name}.plan.json")))
            .map_err(|e| format!("cannot read the {name} plan: {e}"))?;
        let plan = Plan::from_json_str(text.trim_end()).map_err(|e| format!("{name} plan: {e}"))?;
        register_customs(&plan).map_err(|e| format!("{name} plan: {e}"))?;
        plans.insert(name, plan);
    }
    Ok(plans)
}

/// Registers, in this process, the builders a plan's custom predictors
/// need, the way the CLI does. The CLI's plans name only gshare.
fn register_customs(plan: &Plan) -> Result<(), String> {
    for job in plan.jobs() {
        let PredictorSpec::Custom(name) = &job.spec else { continue };
        if registry::is_registered(name) {
            continue;
        }
        let bits = name
            .strip_prefix("gshare(")
            .and_then(|rest| rest.strip_suffix(')'))
            .and_then(|bits| bits.parse::<u32>().ok())
            .ok_or_else(|| format!("no builder for custom predictor {name}"))?;
        registry::register(name, move || Box::new(Gshare::new(bits, Automaton::A2)));
    }
    Ok(())
}

/// The plans one run submits.
struct Catalogue {
    warmup: Plan,
    artifacts: Vec<Plan>,
    fresh: Vec<Plan>,
}

fn shuffle<T>(items: &mut [T], rng: &mut SmallRng) {
    for i in (1..items.len()).rev() {
        let j = rng.next_below(i as u64 + 1) as usize;
        items.swap(i, j);
    }
}

/// A running daemon and its trace directory.
pub struct Daemon {
    pub process: Reaped,
    pub addr: String,
    pub traces: PathBuf,
}

/// Spawns `experiments serve` on a free loopback port with a fresh trace
/// directory and the memo directory `memo`; every other `TLABP_*` knob
/// is scrubbed.
pub fn spawn_daemon(host: &Host, scratch: &mut Scratch, memo: &Path) -> Result<Daemon, String> {
    let traces = scratch.fresh_dir("serve-traces")?;
    let addr = free_addr()?;
    let log = fs::File::create(traces.with_extension("log"))
        .map_err(|e| format!("cannot create the daemon log: {e}"))?;
    let child = host
        .cli(&scratch.path)
        .arg("serve")
        .env(tlabp_sim::TRACE_DIR_ENV, &traces)
        .env(tlabp_service::SERVE_MEMO_DIR_ENV, memo)
        .env(tlabp_service::SERVE_ADDR_ENV, &addr)
        .stdout(Stdio::null())
        .stderr(log)
        .spawn()
        .map_err(|e| format!("cannot spawn the daemon: {e}"))?;
    Ok(Daemon { process: Reaped(child), addr, traces })
}

/// Which class a timed request belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Class {
    Memo,
    Fresh,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum PlanRef {
    Warmup,
    Artifact(usize),
    Fresh(usize),
}

impl Catalogue {
    fn plan(&self, plan: PlanRef) -> &Plan {
        match plan {
            PlanRef::Warmup => &self.warmup,
            PlanRef::Artifact(i) => &self.artifacts[i],
            PlanRef::Fresh(i) => &self.fresh[i],
        }
    }
}

/// One answered (or failed) request; `class` is `None` for the untimed
/// set-up and priming requests.
struct Answer {
    class: Option<Class>,
    plan: PlanRef,
    rtt: Duration,
    /// The canonical result document and the `done` frame's memo flag.
    response: Result<(String, bool), String>,
}

fn ask(client: &mut Client, plan: &Plan) -> Result<(String, bool), String> {
    client
        .execute(plan)
        .map(|(results, done)| (results.to_json_string(), done.memo))
        .map_err(|e| format!("request failed: {e}"))
}

/// What one client did in the timed phase.
#[derive(Default)]
struct ClientLog {
    answers: Vec<Answer>,
    rounds: Vec<f64>,
    exhausted: bool,
}

/// One closed-loop client: rounds of one fresh sweep and one artifact
/// plan repeat, in an order drawn from a generator seeded by the run's
/// seed, the segment and the client, until the deadline. The repeats
/// cycle through the artifacts from a seeded offset, so every artifact
/// is repeated about equally often. The fresh sweeps are every
/// `clients`-th catalogue entry from an offset that moves on with each
/// segment, so no daemon is asked a fresh sweep twice.
fn client_loop(
    addr: &str,
    catalogue: &Catalogue,
    seed: u64,
    (segment, id, clients): (u32, usize, usize),
    deadline: Instant,
) -> ClientLog {
    let mut log = ClientLog::default();
    let stream = u64::from(segment) << 32 | id as u64;
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(stream + 1));
    let len = catalogue.fresh.len();
    let offset = segment as usize * len / SEGMENTS as usize + id;
    let mut fresh = (0..len / clients).map(|k| (offset + k * clients) % len);
    let artifacts = catalogue.artifacts.len();
    let mut repeats = (rng.next_below(artifacts as u64) as usize..).map(|k| k % artifacts);
    let mut client = match Client::connect_with_retry(addr, CONNECT_DEADLINE) {
        Ok(client) => client,
        Err(e) => {
            log.answers.push(Answer {
                class: Some(Class::Fresh),
                plan: PlanRef::Warmup,
                rtt: Duration::ZERO,
                response: Err(format!("client {id} cannot connect: {e}")),
            });
            return log;
        }
    };
    'rounds: while Instant::now() < deadline {
        let Some(fresh) = fresh.next() else {
            log.exhausted = true;
            break;
        };
        let repeat = PlanRef::Artifact(repeats.next().expect("an endless cycle"));
        let mut round = [(Class::Fresh, PlanRef::Fresh(fresh)), (Class::Memo, repeat)];
        shuffle(&mut round, &mut rng);
        let round_start = Instant::now();
        for (class, plan) in round {
            let start = Instant::now();
            let response = ask(&mut client, catalogue.plan(plan));
            let rtt = start.elapsed();
            let failed = response.is_err();
            log.answers.push(Answer { class: Some(class), plan, rtt, response });
            if failed {
                // The stream may be mid-response: start over on a new
                // connection, or stop this client if there is none.
                match Client::connect(addr) {
                    Ok(fresh_client) => client = fresh_client,
                    Err(_) => break 'rounds,
                }
                continue 'rounds;
            }
        }
        log.rounds.push(round_start.elapsed().as_secs_f64());
    }
    log
}

/// Answers the warm-up plan on a new connection to `daemon`.
fn warm_up(daemon: &Daemon, catalogue: &Catalogue) -> Result<(Client, Answer), String> {
    let start = Instant::now();
    let mut client = Client::connect_with_retry(&daemon.addr, CONNECT_DEADLINE)
        .map_err(|e| format!("cannot connect to the daemon: {e}"))?;
    let response = ask(&mut client, &catalogue.warmup);
    Ok((client, Answer { class: None, plan: PlanRef::Warmup, rtt: start.elapsed(), response }))
}

/// Copies every file of `from` into `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let entries = fs::read_dir(from).map_err(|e| format!("cannot list {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| format!("listing {}: {e}", from.display()))?.path();
        if let Some(name) = path.file_name().filter(|_| path.is_file()) {
            fs::copy(&path, to.join(name))
                .map_err(|e| format!("cannot copy {}: {e}", path.display()))?;
        }
    }
    Ok(())
}

/// Runs `serve-mixed` for about `seconds` of timed load.
pub fn run(host: &Host, seed: u64, seconds: u64) -> Result<Report, String> {
    let mut scratch = host.scratch()?;
    let artifacts = artifact_plans(host, &mut scratch)?.into_values().collect();
    let catalogue = Catalogue { warmup: warmup_plan(), artifacts, fresh: fresh_sweeps(seed) };
    let mut report = Report::default();
    let mut answers: Vec<Answer> = Vec::new();
    let clients = thread::available_parallelism().map_or(1, usize::from);

    // Priming, untimed: a first daemon answers every artifact plan once
    // and persists the responses to its memo directory. Every timed
    // daemon starts on a copy of it, as a restarted daemon would.
    let primed = scratch.fresh_dir("serve-memo")?;
    {
        let daemon = spawn_daemon(host, &mut scratch, &primed)?;
        let (mut client, answer) = warm_up(&daemon, &catalogue)?;
        answers.push(answer);
        for i in 0..catalogue.artifacts.len() {
            let plan = PlanRef::Artifact(i);
            let response = ask(&mut client, catalogue.plan(plan));
            answers.push(Answer { class: None, plan, rtt: Duration::ZERO, response });
        }
    }

    let (mut timed_answers, mut timed_wall) = (0, 0.0);
    for segment in 0..SEGMENTS {
        // Set-up: spawn a daemon on a copy of the primed memo directory
        // (it hydrates the memo from disk) and wait until the warm-up
        // plan touching every input is answered.
        let memo = scratch.fresh_dir("serve-memo")?;
        copy_dir(&primed, &memo)?;
        let start = Instant::now();
        let daemon = spawn_daemon(host, &mut scratch, &memo)?;
        let (client, answer) = warm_up(&daemon, &catalogue)?;
        report.push("setup_s", start.elapsed().as_secs_f64());
        answers.push(answer);
        drop(client);
        // The daemon's peak RSS is to cover the timed load only.
        if let Err(e) = daemon.process.reset_peak_rss() {
            report.tally.record(Err(format!("cannot reset the daemon's peak RSS: {e}")));
        }

        let segment_start = Instant::now();
        let deadline = segment_start + Duration::from_secs(seconds) / SEGMENTS;
        let logs: Vec<ClientLog> = thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|id| {
                    let (addr, catalogue) = (&daemon.addr, &catalogue);
                    let who = (segment, id, clients);
                    scope.spawn(move || client_loop(addr, catalogue, seed, who, deadline))
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
        });
        timed_wall += segment_start.elapsed().as_secs_f64();
        match daemon.process.peak_rss_bytes() {
            Some(bytes) => report.push("peak_rss_mb", bytes as f64 / 1e6),
            None => report.tally.record(Err("the daemon exited before the load ended".into())),
        }
        let traces = daemon.traces.clone();
        drop(daemon);
        let _ = fs::remove_dir_all(traces);
        let _ = fs::remove_dir_all(memo);
        for log in logs {
            if log.exhausted {
                report.note("a client ran out of fresh sweeps before the deadline".into());
            }
            for wall in log.rounds {
                report.push("wall_s", wall);
            }
            timed_answers += log.answers.len();
            answers.extend(log.answers);
        }
    }

    // The oracle, outside the timed phase: an in-process session on a
    // memory-only store, one run per distinct plan.
    let session = Session::new(TraceStore::new());
    let mut expected: BTreeMap<PlanRef, String> = BTreeMap::new();
    let (mut memo_rtt, mut fresh_rtt, mut memo_flags) = (Vec::new(), Vec::new(), Vec::new());
    for answer in &answers {
        let want = expected
            .entry(answer.plan)
            .or_insert_with(|| session.run(catalogue.plan(answer.plan)).to_json_string());
        let verdict = match &answer.response {
            Ok((got, _)) if got == want => Ok(()),
            Ok(_) => Err(format!("response to {:?} differs from the in-process run", answer.plan)),
            Err(e) => Err(e.clone()),
        };
        let ok = verdict.is_ok();
        report.tally.record(verdict);
        let ms = answer.rtt.as_secs_f64() * 1e3;
        match answer.class {
            Some(Class::Memo) if ok => {
                memo_rtt.push(ms);
                memo_flags.push(matches!(answer.response, Ok((_, true))));
            }
            Some(Class::Fresh) if ok => fresh_rtt.push(ms),
            _ => {}
        }
    }
    report.series("rtt_memo", memo_rtt);
    report.series("rtt_fresh", fresh_rtt);
    report.extra("plans_per_s", "1/s", timed_answers as f64 / timed_wall);
    let hits = memo_flags.iter().filter(|&&m| m).count();
    report.extra("memo_hit_frac", "frac", hits as f64 / memo_flags.len().max(1) as f64);
    report.note(format!(
        "{timed_answers} plans over {timed_wall:.3} s in {SEGMENTS} segments from {clients} closed-loop clients"
    ));
    Ok(report)
}
