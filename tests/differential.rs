//! Differential tests pinning the fast simulation paths to the
//! reference path.
//!
//! The sweep engine runs cells through a monomorphized
//! [`AnyPredictor`] over the packed conditional-branch stream — and
//! fuses packed-path jobs that share a trace and a context-switch model
//! into batched passes over the pc-interned stream. Context switches
//! reach both loops as a schedule derived from the full trace
//! ([`switch_schedule`]). None of these transformations may change a
//! single prediction: for every scheme in the catalog, the boxed `dyn
//! BranchPredictor` over the full trace (the [`simulate`] oracle), the
//! `AnyPredictor` over the full trace, the `AnyPredictor` over the
//! packed stream, and the fused batch over the interned stream must
//! produce identical [`SimResult`]s, with and without context switches.

use tlabp::core::any::AnyPredictor;
use tlabp::core::automaton::Automaton;
use tlabp::core::config::SchemeConfig;
use tlabp::core::predictor::BranchPredictor;
use tlabp::core::schemes::Pag;
use tlabp::core::BhtConfig;
use tlabp::sim::runner::{
    simulate, simulate_fused, simulate_packed, switch_schedule, ContextSwitchConfig, SimConfig,
};
use tlabp::sim::SimResult;
use tlabp::trace::synth::{BiasedCoins, CorrelatedBranches, Correlation, LoopNest, MarkovBranches};
use tlabp::trace::{InternedConds, Trace, TraceEvent, TrapRecord};
use tlabp::workloads::{Benchmark, DataSet};

/// Every scheme kind the simulator supports, across automata, history
/// lengths and BHT geometries (a superset of the paper's Table 3 axes).
fn catalog() -> Vec<SchemeConfig> {
    let mut configs = vec![
        SchemeConfig::gag(6),
        SchemeConfig::gag(12).with_automaton(Automaton::LastTime),
        SchemeConfig::gag(18).with_automaton(Automaton::A4),
        SchemeConfig::pag(8),
        SchemeConfig::pag(12).with_automaton(Automaton::A3),
        SchemeConfig::pag(10).with_bht(BhtConfig::Cache { entries: 256, ways: 1 }),
        SchemeConfig::pag(12).with_bht(BhtConfig::Ideal),
        SchemeConfig::pap(6),
        SchemeConfig::pap(8).with_bht(BhtConfig::Ideal),
        SchemeConfig::gsg(12),
        SchemeConfig::psg(12),
        SchemeConfig::btb(Automaton::A2),
        SchemeConfig::btb(Automaton::LastTime),
        SchemeConfig::always_taken(),
        SchemeConfig::btfn(),
        SchemeConfig::profiling(),
    ];
    // The same axes with the context-switch flag set.
    for config in configs.clone() {
        configs.push(config.with_context_switch(true));
    }
    configs
}

fn traces() -> Vec<(&'static str, Trace)> {
    vec![
        ("loop_nest", LoopNest::new(&[40, 11, 3]).generate()),
        ("biased_coins", BiasedCoins::uniform(24, 0.7, 400, 7).generate()),
        ("correlated", CorrelatedBranches::new(Correlation::Xor, 2000, 0.5, 11).generate()),
        ("markov", MarkovBranches::new(16, 0.85, 3000, 23).generate()),
        ("li_testing", Benchmark::by_name("li").expect("li exists").trace(DataSet::Testing)),
    ]
}

fn build_any(config: &SchemeConfig, training: &Trace) -> AnyPredictor {
    if config.needs_training() {
        config.build_any_trained(training)
    } else {
        config.build_any().expect("builds")
    }
}

fn build_boxed(config: &SchemeConfig, training: &Trace) -> Box<dyn BranchPredictor> {
    if config.needs_training() {
        config.build_trained(training)
    } else {
        config.build().expect("builds")
    }
}

/// A short switch interval: about a thousand switches over li.
const SHORT_INTERVAL: ContextSwitchConfig =
    ContextSwitchConfig { interval_instructions: 2_000, on_traps: true };

/// Asserts that every config of `configs` gets the same [`SimResult`]
/// under `sim` on `trace` from the `simulate` oracle (boxed `dyn` over
/// the full trace), from `simulate` over the `AnyPredictor`, from the
/// packed loop and from one fused batch of all `configs` — the last two
/// under the trace's switch schedule.
fn assert_paths_agree(
    configs: &[SchemeConfig],
    trace_name: &str,
    trace: &Trace,
    training: &Trace,
    sim: &SimConfig,
) {
    let switches = sim.context_switch.map_or_else(Vec::new, |cs| switch_schedule(trace, cs));
    let packed = trace.pack_conditionals();
    let mut batch: Vec<AnyPredictor> = configs.iter().map(|c| build_any(c, training)).collect();
    let fused = simulate_fused(&mut batch, &InternedConds::from_packed(&packed), &switches);
    for (config, fused_result) in configs.iter().zip(&fused) {
        let oracle = simulate(&mut *build_boxed(config, training), trace, sim);
        let any_result = simulate(&mut build_any(config, training), trace, sim);
        assert_eq!(oracle, any_result, "dyn vs AnyPredictor diverged for {config} on {trace_name}");
        let packed_result = simulate_packed(&mut build_any(config, training), &packed, &switches);
        assert_eq!(oracle, packed_result, "dyn vs packed diverged for {config} on {trace_name}");
        assert_eq!(&oracle, fused_result, "dyn vs fused diverged for {config} on {trace_name}");
    }
}

/// The monomorphized, packed and fused paths are bit-identical to the
/// boxed reference for every catalog scheme on every trace, with and
/// without context-switch simulation.
#[test]
fn every_catalog_scheme_is_path_invariant() {
    let training = BiasedCoins::uniform(24, 0.7, 400, 8).generate();
    let (switching, plain): (Vec<SchemeConfig>, Vec<SchemeConfig>) =
        catalog().into_iter().partition(SchemeConfig::context_switch);
    for (trace_name, trace) in traces() {
        let no_switch = SimConfig::no_context_switch();
        assert_paths_agree(&plain, trace_name, &trace, &training, &no_switch);
        let paper = SimConfig::paper_context_switch();
        assert_paths_agree(&switching, trace_name, &trace, &training, &paper);
    }
}

/// li's testing trace with traps spliced in: two back-to-back traps
/// after every 40 000th event (two switches with no conditional branch
/// between them), and one trap [`SHORT_INTERVAL`] instructions past the
/// end, where an interval switch and a trap switch fire on the same
/// event after the last conditional branch.
fn li_with_traps() -> Trace {
    let li = Benchmark::by_name("li").expect("li exists").trace(DataSet::Testing);
    let mut events: Vec<TraceEvent> = Vec::with_capacity(li.len() + 64);
    for (index, event) in li.iter().enumerate() {
        events.push(*event);
        if index % 40_000 == 39_999 {
            events.push(TrapRecord::new(0x7000, event.instret()).into());
            events.push(TrapRecord::new(0x7004, event.instret()).into());
        }
    }
    let last = events.last().map_or(0, TraceEvent::instret);
    events.push(TrapRecord::new(0x7008, last + SHORT_INTERVAL.interval_instructions).into());
    Trace::from_events(events)
}

/// A short switch interval over a trace whose schedule holds
/// coincident switches mid-trace and after the last conditional: every
/// path agrees with the oracle for every (no-flag) catalog scheme.
#[test]
fn short_interval_switches_are_path_invariant() {
    let training = BiasedCoins::uniform(24, 0.7, 400, 8).generate();
    let trace = li_with_traps();
    let schedule = switch_schedule(&trace, SHORT_INTERVAL);
    let conditionals = trace.conditional_branches().count();
    assert!(schedule.len() > 1000, "{} switch points", schedule.len());
    assert!(
        schedule.iter().any(|&(at, count)| count > 1 && at < conditionals),
        "coincident switches mid-trace"
    );
    assert_eq!(schedule.last(), Some(&(conditionals, 2)), "coincident trailing switches");
    let plain: Vec<SchemeConfig> =
        catalog().into_iter().filter(|config| !config.context_switch()).collect();
    let sim = SimConfig { context_switch: Some(SHORT_INTERVAL) };
    assert_paths_agree(&plain, "li_with_traps", &trace, &training, &sim);
}

/// A PAg(12) that also reinitializes its PHT on every switch — the
/// `ablation_flush_pht` variant, outside the catalog.
fn flush_pht_pag() -> Pag {
    let mut pag = Pag::new(12, BhtConfig::PAPER_DEFAULT, Automaton::A2);
    pag.set_flush_pht_on_context_switch(true);
    pag
}

/// One fused batch mixing shared-BHT PAg/PAp members (one driver table
/// walks BHT(512,4,12) for all of them) with the flush-PHT PAg behind
/// `AnyPredictor::Dyn`: at every switch the driver flushes and every
/// member switches, so the flush-PHT member loses its PHT while the
/// others keep theirs — each bit-identical to its own `simulate` run.
#[test]
fn fused_flush_pht_batch_matches_the_oracle() {
    use tlabp::core::registry;
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::TraceStore;

    let gcc = Benchmark::by_name("gcc").expect("gcc exists");
    let cases = [
        ("gcc", gcc.trace(DataSet::Testing), SimConfig::paper_context_switch()),
        ("li_with_traps", li_with_traps(), SimConfig { context_switch: Some(SHORT_INTERVAL) }),
    ];
    let members: [fn() -> AnyPredictor; 4] = [
        || SchemeConfig::pag(12).build_any().expect("builds"),
        || AnyPredictor::Dyn(Box::new(flush_pht_pag())),
        || SchemeConfig::pap(12).build_any().expect("builds"),
        || SchemeConfig::pag(12).with_automaton(Automaton::A3).build_any().expect("builds"),
    ];
    for (trace_name, trace, sim) in cases {
        let switches = switch_schedule(&trace, sim.context_switch.expect("switching"));
        let mut batch: Vec<AnyPredictor> = members.iter().map(|build| build()).collect();
        let signatures: Vec<_> = batch.iter().map(BranchPredictor::shared_bht).collect();
        assert!(signatures.iter().all(|s| s.is_some() && *s == signatures[0]), "one driver");
        let fused = simulate_fused(&mut batch, &InternedConds::from_trace(&trace), &switches);
        let oracles: Vec<SimResult> =
            members.iter().map(|build| simulate(&mut build(), &trace, &sim)).collect();
        assert_eq!(fused, oracles, "fused flush-PHT batch diverged on {trace_name}");
        assert!(fused[0].context_switches > 0, "{trace_name} switches");
        assert_ne!(fused[0].correct, fused[1].correct, "flushing the PHT costs accuracy");
    }

    // The same mix through the engine, planned as `ablation_flush_pht`
    // plans it: the fused plan matches the reference plan.
    registry::register("differential-flush-pht", || Box::new(flush_pht_pag()));
    let sim = SimConfig::paper_context_switch();
    let jobs = [
        Job::scheme(SchemeConfig::pag(12), gcc).with_sim(sim),
        Job::custom("differential-flush-pht", gcc).with_sim(sim),
        Job::scheme(SchemeConfig::pap(12), gcc).with_sim(sim),
    ];
    let store = TraceStore::from_env();
    let fused_out = execute(&jobs.iter().cloned().collect(), &store);
    let reference: Plan = jobs.iter().map(|job| job.clone().with_reference_path(true)).collect();
    let reference_out = execute(&reference, &store);
    assert_eq!(
        fused_out.outcomes().collect::<Vec<_>>(),
        reference_out.outcomes().collect::<Vec<_>>(),
        "fused vs reference flush-PHT plan"
    );
}

/// Instrumented metrics honor the job's context switches on every
/// path: gcc PAg(12) under the paper's model reports the same accuracy
/// counters (switches included) whether it asks for accuracy only, a
/// miss breakdown, fetch statistics or both, and the reference path
/// returns every metric the fast path does, bit for bit.
#[test]
fn instrumented_metrics_honor_context_switches_on_every_path() {
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, MetricSet, Plan, TargetCacheSpec};
    use tlabp::sim::TraceStore;

    let gcc = Benchmark::by_name("gcc").expect("gcc exists");
    let fetch = Some(TargetCacheSpec::PAPER_DEFAULT);
    let metric_sets = [
        MetricSet::ACCURACY,
        MetricSet { miss_breakdown: true, fetch: None },
        MetricSet { miss_breakdown: false, fetch },
        MetricSet { miss_breakdown: true, fetch },
    ];
    let jobs: Vec<Job> = metric_sets
        .iter()
        .flat_map(|&metrics| {
            let job = Job::scheme(SchemeConfig::pag(12), gcc)
                .with_sim(SimConfig::paper_context_switch())
                .with_metrics(metrics);
            [job.clone(), job.with_reference_path(true)]
        })
        .collect();
    let plan: Plan = jobs.iter().cloned().collect();
    let results = execute(&plan, &TraceStore::from_env());
    let accuracy_only = &results.outcome(0).metrics().expect("measured").sim;
    assert!(accuracy_only.context_switches > 0, "gcc has traps");
    for (index, job) in jobs.iter().enumerate() {
        let what = format!("{:?}, reference path {}", job.metrics, job.reference_path);
        let metrics = results.outcome(index).metrics().expect("measured");
        assert_eq!(&metrics.sim, accuracy_only, "accuracy counters diverged for {what}");
        assert_eq!(metrics.miss_breakdown.is_some(), job.metrics.miss_breakdown, "{what}");
        assert_eq!(metrics.fetch.is_some(), job.metrics.fetch.is_some(), "{what}");
        if job.reference_path {
            assert_eq!(results.outcome(index), results.outcome(index - 1), "{what}");
        }
    }
}

/// The execution engine's three lowerings agree job-for-job: a scheme
/// job on the fast path, the same scheme forced onto the reference path,
/// and the same predictor entering as a registry-built custom job (the
/// `AnyPredictor::Dyn` escape hatch) all produce identical accuracy
/// counters.
#[test]
fn engine_paths_agree_for_every_lowering() {
    use tlabp::core::registry;
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::TraceStore;

    let li = Benchmark::by_name("li").expect("li exists");
    let configs = [SchemeConfig::pag(8), SchemeConfig::gag(10).with_automaton(Automaton::A3)];
    for config in configs {
        let name = format!("differential-dyn-{config}");
        registry::register(&name, move || Box::new(config.build_any().expect("builds")));
        let plan: Plan = [
            Job::scheme(config, li),
            Job::scheme(config, li).with_reference_path(true),
            Job::custom(name.clone(), li),
        ]
        .into_iter()
        .collect();
        let results = execute(&plan, &TraceStore::from_env());
        let sims: Vec<&SimResult> =
            results.iter().map(|(_, outcome)| &outcome.metrics().expect("measured").sim).collect();
        assert_eq!(sims[0], sims[1], "fast vs reference diverged for {config}");
        assert_eq!(sims[0], sims[2], "fast vs dyn diverged for {config}");
    }
}

/// Fusion is invisible: for every catalog scheme — including the
/// context-switch variants, which fuse in batches of their own under
/// one switch schedule — a fused plan, the same plan with fusion
/// disabled, and the same plan forced onto the reference path produce
/// identical outcomes job for job: measured counters and skip reasons
/// alike.
#[test]
fn fused_per_cell_and_reference_plans_agree_job_for_job() {
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::TraceStore;

    let li = Benchmark::by_name("li").expect("li exists");
    let eqntott = Benchmark::by_name("eqntott").expect("eqntott exists");
    let mut jobs: Vec<Job> = catalog().into_iter().map(|config| Job::scheme(config, li)).collect();
    // eqntott has no training set: profiled schemes must skip (with the
    // same reason) on every path, alongside fusible neighbors.
    jobs.extend(
        [SchemeConfig::profiling(), SchemeConfig::gsg(12), SchemeConfig::pag(8)]
            .map(|config| Job::scheme(config, eqntott)),
    );

    let store = TraceStore::from_env();
    let fused: Plan = jobs.iter().cloned().collect();
    let per_cell: Plan = jobs.iter().map(|job| job.clone().with_fusion(false)).collect();
    let reference: Plan = jobs.iter().map(|job| job.clone().with_reference_path(true)).collect();

    let fused_out = execute(&fused, &store);
    let cell_out = execute(&per_cell, &store);
    let reference_out = execute(&reference, &store);
    for (index, job) in jobs.iter().enumerate() {
        let label = job.label();
        let benchmark = job.trace.benchmark.name();
        assert_eq!(
            fused_out.outcome(index),
            cell_out.outcome(index),
            "fused vs per-cell diverged for {label} on {benchmark}"
        );
        assert_eq!(
            fused_out.outcome(index),
            reference_out.outcome(index),
            "fused vs reference diverged for {label} on {benchmark}"
        );
    }
}

/// A fused batch's composition never affects its members: every catalog
/// scheme measured alone in its own single-job plan matches the outcome
/// it gets inside the all-schemes plan (where the switching half shares
/// one fused batch of 16 predictors and one switch schedule).
#[test]
fn fused_outcomes_are_independent_of_batch_composition() {
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::TraceStore;

    let li = Benchmark::by_name("li").expect("li exists");
    let fusible = catalog();
    let store = TraceStore::from_env();
    let multi: Plan = fusible.iter().map(|&config| Job::scheme(config, li)).collect();
    let multi_out = execute(&multi, &store);
    for (index, &config) in fusible.iter().enumerate() {
        let single: Plan = [Job::scheme(config, li)].into_iter().collect();
        let single_out = execute(&single, &store);
        assert_eq!(
            multi_out.outcome(index),
            single_out.outcome(0),
            "{config} outcome depends on its batch"
        );
    }
}

/// Every replay-eligible scheme structure crossed with every automaton
/// (Last-Time and the four-state counters via `with_automaton`, the
/// PresetBit 2-state packing via the trained GSg/PSg schemes): replaying
/// the materialized pattern stream through the bit-packed PHT is
/// bit-identical to the packed fast path and to the boxed reference on
/// every trace.
#[test]
fn replay_is_bit_identical_for_every_scheme_and_automaton() {
    use tlabp::core::SimdMode;
    use tlabp::sim::runner::{
        derive_pattern_stream, replay_stream_key, simulate_replay_transposed,
    };
    use tlabp::trace::InternedConds;

    let structures = [
        SchemeConfig::gag(8),
        SchemeConfig::pag(8),
        SchemeConfig::pag(10).with_bht(BhtConfig::Cache { entries: 256, ways: 1 }),
        SchemeConfig::pag(12).with_bht(BhtConfig::Ideal),
        SchemeConfig::pap(6),
    ];
    let mut configs: Vec<SchemeConfig> = structures
        .iter()
        .flat_map(|&config| {
            Automaton::FIGURE5.iter().map(move |&automaton| config.with_automaton(automaton))
        })
        .collect();
    configs.extend([SchemeConfig::gsg(12), SchemeConfig::psg(12)]);

    let training = BiasedCoins::uniform(24, 0.7, 400, 8).generate();
    let sim = SimConfig::no_context_switch();
    for (trace_name, trace) in traces() {
        let interned = InternedConds::from_trace(&trace);
        for &config in &configs {
            let key = replay_stream_key(config).expect("catalog scheme has a stream key");
            let stream = derive_pattern_stream(&interned, key);
            let build = || {
                if config.needs_training() {
                    config.build_any_trained(&training)
                } else {
                    config.build_any().expect("builds")
                }
            };
            let packed_result = simulate_packed(&mut build(), &trace.pack_conditionals(), &[]);

            // Both bodies of the transposed kernel reproduce the packed
            // fast path bit for bit — scheme × automaton × trace.
            for mode in [SimdMode::Auto, SimdMode::Scalar] {
                let transposed = simulate_replay_transposed(&[build()], &stream, mode)
                    .expect("catalog scheme has a replay PHT");
                assert_eq!(
                    transposed[0], packed_result,
                    "transposed {mode:?} vs packed diverged for {config} on {trace_name}"
                );
            }

            let mut boxed = if config.needs_training() {
                config.build_trained(&training)
            } else {
                config.build().expect("builds")
            };
            let dyn_result = simulate(&mut *boxed, &trace, &sim);
            assert_eq!(
                packed_result, dyn_result,
                "packed vs reference diverged for {config} on {trace_name}"
            );
        }
    }
}

/// The engine's replay lowering is invisible: the default plan (replay
/// on), the same plan with replay disabled (fused execution), and the
/// same plan forced onto the reference path produce identical outcomes
/// job for job — including the profiled schemes that skip benchmarks
/// without training sets.
#[test]
fn replay_fused_and_reference_plans_agree_job_for_job() {
    use tlabp::sim::engine::execute;
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::TraceStore;

    let li = Benchmark::by_name("li").expect("li exists");
    let eqntott = Benchmark::by_name("eqntott").expect("eqntott exists");
    let mut jobs: Vec<Job> = catalog().into_iter().map(|config| Job::scheme(config, li)).collect();
    jobs.extend(
        [SchemeConfig::psg(12), SchemeConfig::gsg(12), SchemeConfig::pag(8)]
            .map(|config| Job::scheme(config, eqntott)),
    );

    let store = TraceStore::from_env();
    let replay: Plan = jobs.iter().cloned().collect();
    let fused: Plan = jobs.iter().map(|job| job.clone().with_replay(false)).collect();
    let reference: Plan = jobs.iter().map(|job| job.clone().with_reference_path(true)).collect();

    let replay_out = execute(&replay, &store);
    let fused_out = execute(&fused, &store);
    let reference_out = execute(&reference, &store);
    for (index, job) in jobs.iter().enumerate() {
        let label = job.label();
        let benchmark = job.trace.benchmark.name();
        assert_eq!(
            replay_out.outcome(index),
            fused_out.outcome(index),
            "replay vs fused diverged for {label} on {benchmark}"
        );
        assert_eq!(
            replay_out.outcome(index),
            reference_out.outcome(index),
            "replay vs reference diverged for {label} on {benchmark}"
        );
    }
}

/// The bit-packed PHT's lookup table agrees with `Automaton::update` and
/// `Automaton::predict` on all 256 (state, taken) inputs, for every
/// automaton — including the 2-state Last-Time and PresetBit packings,
/// whose stored state is the masked low bit of the index.
#[test]
fn packed_lut_matches_automaton_on_all_256_inputs() {
    use tlabp::core::automaton::State;

    for automaton in Automaton::ALL {
        let lut = automaton.packed_lut();
        let mask = automaton.state_count() - 1;
        for (index, &entry) in lut.iter().enumerate() {
            let taken = index & 1 != 0;
            let state = State::new(((index >> 1) as u8) & mask);
            assert_eq!(
                entry & 0b11,
                automaton.update(state, taken).value(),
                "{automaton} next state diverged at index {index}"
            );
            assert_eq!(
                entry & 0b100 != 0,
                automaton.predict(state),
                "{automaton} prediction diverged at index {index}"
            );
        }
    }
}

/// Both bodies of the transposed kernel — portable u64 SWAR and the
/// scalar transposed loop — agree with
/// `Automaton::update` / `Automaton::predict` on all 256 (state, taken)
/// transition inputs, for every automaton: a one-member bank stepped
/// through each input singly must land in the reference next state and
/// count the reference correctness, under every `TLABP_SIMD` mode.
#[test]
fn transposed_kernels_match_automaton_on_all_256_inputs() {
    use tlabp::core::automaton::State;
    use tlabp::core::pht::{PackedPht, TransposedPhtBank};
    use tlabp::core::SimdMode;

    for automaton in Automaton::ALL {
        let mask = automaton.state_count() - 1;
        for index in 0..256usize {
            let taken = index & 1 != 0;
            let state = State::new(((index >> 1) as u8) & mask);
            for mode in [SimdMode::Auto, SimdMode::Scalar] {
                let mut table = PackedPht::new(1, automaton);
                table.set_state(0, state);
                table.set_state(1, state);
                let mut bank = TransposedPhtBank::new(&[table]);
                bank.replay(&[u32::from(taken)], mode);
                assert_eq!(
                    bank.state(0, 0),
                    automaton.update(state, taken),
                    "{automaton} next state diverged at index {index} under {mode:?}"
                );
                assert_eq!(
                    bank.counts()[0],
                    u64::from(automaton.predict(state) == taken),
                    "{automaton} correctness diverged at index {index} under {mode:?}"
                );
            }
        }
    }
}

/// The full grid plan — every (scheme, width, automaton) cell of the
/// Fig. 8 design-space artifact, where the engine's fold grouping packs
/// entire width × automaton columns into single transposed batches over
/// one shared stream — is lowering-invariant: the SWAR kernel, the
/// scalar kernel, the kernel `TLABP_SIMD` selects and fused execution
/// with replay disabled all agree job for job.
#[test]
fn grid_plan_is_invariant_across_replay_kernels_and_fusion() {
    use tlabp::core::SimdMode;
    use tlabp::sim::engine::{execute, execute_with, ExecOptions};
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::{SweepPool, TraceStore};

    let benchmarks =
        [Benchmark::by_name("li").expect("li exists"), Benchmark::by_name("eqntott").unwrap()];
    let schemes: [fn(u32) -> SchemeConfig; 3] =
        [SchemeConfig::gag, SchemeConfig::pag, SchemeConfig::pap];
    let mut jobs: Vec<Job> = Vec::new();
    for benchmark in benchmarks {
        for scheme in schemes {
            for width in [4u32, 6, 8, 10, 12] {
                for &automaton in &Automaton::FIGURE5 {
                    jobs.push(Job::scheme(scheme(width).with_automaton(automaton), benchmark));
                }
            }
        }
    }
    let plan: Plan = jobs.iter().cloned().collect();
    let fused: Plan = jobs.iter().map(|job| job.clone().with_replay(false)).collect();

    let store = TraceStore::from_env();
    let env = execute(&plan, &store);
    let fused_out = execute(&fused, &store);
    let kernel = |simd| {
        execute_with(
            SweepPool::global(),
            &plan,
            &store,
            ExecOptions { simd, ..ExecOptions::default() },
        )
    };
    let swar = kernel(SimdMode::Auto);
    let scalar = kernel(SimdMode::Scalar);
    for (index, job) in jobs.iter().enumerate() {
        let label = job.label();
        let benchmark = job.trace.benchmark.name();
        assert_eq!(
            swar.outcome(index),
            scalar.outcome(index),
            "swar vs scalar diverged for {label} on {benchmark}"
        );
        assert_eq!(
            swar.outcome(index),
            env.outcome(index),
            "swar vs TLABP_SIMD kernel diverged for {label} on {benchmark}"
        );
        assert_eq!(
            swar.outcome(index),
            fused_out.outcome(index),
            "swar vs fused diverged for {label} on {benchmark}"
        );
    }
}

/// Intra-batch splitting is invisible for every scheme structure and
/// automaton: a plan whose width × automaton columns fold into wide
/// replay batches produces bit-identical outcomes whether each batch
/// runs whole on one worker or is scattered word-by-word across the
/// pool — under the auto split heuristic and under forced part counts
/// far above and below the atom supply.
#[test]
fn split_replay_matches_unsplit_for_every_scheme_and_automaton() {
    use tlabp::core::SimdMode;
    use tlabp::sim::engine::{execute_with, ExecOptions, SplitPolicy};
    use tlabp::sim::plan::{Job, Plan};
    use tlabp::sim::{SweepPool, TraceStore};

    let benchmark = Benchmark::by_name("li").expect("li exists");
    let schemes: [fn(u32) -> SchemeConfig; 3] =
        [SchemeConfig::gag, SchemeConfig::pag, SchemeConfig::pap];
    let mut jobs: Vec<Job> = Vec::new();
    for scheme in schemes {
        for width in [6u32, 8] {
            for automaton in Automaton::ALL {
                jobs.push(Job::scheme(scheme(width).with_automaton(automaton), benchmark));
            }
        }
    }
    let plan: Plan = jobs.iter().cloned().collect();

    let store = TraceStore::new();
    let pool = SweepPool::new(2);
    let run = |split| {
        execute_with(
            &pool,
            &plan,
            &store,
            ExecOptions { simd: SimdMode::Auto, split, ..ExecOptions::default() },
        )
    };
    let unsplit = run(SplitPolicy::Off);
    for split in [SplitPolicy::Auto, SplitPolicy::Parts(2), SplitPolicy::Parts(64)] {
        let split_out = run(split);
        for (index, job) in jobs.iter().enumerate() {
            assert_eq!(
                unsplit.outcome(index),
                split_out.outcome(index),
                "{split:?} diverged from unsplit for {}",
                job.label()
            );
        }
    }
}

/// The packed stream itself is lossless for prediction: pc, direction
/// and backwardness survive the 8-byte encoding.
#[test]
fn packed_records_preserve_prediction_inputs() {
    for (trace_name, trace) in traces() {
        let packed = trace.pack_conditionals();
        let originals: Vec<_> = trace.conditional_branches().collect();
        assert_eq!(packed.len(), originals.len(), "{trace_name}");
        for (cond, original) in packed.iter().zip(originals) {
            let rebuilt = cond.to_record();
            assert_eq!(rebuilt.pc, original.pc, "{trace_name}");
            assert_eq!(rebuilt.taken, original.taken, "{trace_name}");
            assert_eq!(rebuilt.is_backward(), original.is_backward(), "{trace_name}");
        }
    }
}
