//! The traced run: per-layer metrics from the program's own spans and
//! LP counters, plus the benchmark's spans around direct calls into each
//! layer's public functions.
//!
//! Every instance records into its own `Telemetry` handle. Its spans are
//! written to one Chrome trace, where the instance's index is the
//! process id and an `instance` argument on every span.

use std::collections::BTreeMap;

use metis_core::{
    audit_schedule, maa, metis, solve_rlspm_relaxation, taa, MetisConfig, Phase, RoundTrace,
    SpmInstance,
};
use metis_telemetry::{names, Snapshot, Telemetry, TraceSpan};
use metis_workload::json::Json;
use metis_workload::RequestId;

use crate::checks::Checker;
use crate::workloads::{epoch_members, Mode, Outcome, Workload};
use crate::{timed, Metric, Report};

/// Benchmark-owned spans. The program's spans nest under `bench.solve`.
const SPAN_INSTANCE: &str = "bench.instance";
const SPAN_SOLVE: &str = "bench.solve";
const SPAN_BUILD: &str = "instance.build";
const SPAN_REPLAY: &str = "bench.online_replay";
const SPAN_RELAX0: &str = "rlspm.relax0";
const SPAN_MAA0: &str = "rlspm.maa0";
const SPAN_TAA0: &str = "blspm.taa0";
const SPAN_EVALUATE: &str = "schedule.evaluate";
const SPAN_AUDIT: &str = "audit.schedule";

/// The layers whose self time should account for the traced solve.
const LAYERS: [&str; 5] = [
    names::SPAN_MAA_RELAX,
    names::SPAN_TAA_RELAX,
    names::SPAN_TAA_WALK,
    names::SPAN_MAA_ROUNDING,
    names::SPAN_LIMITER,
];

/// Sums over the traced instances; divided by their count at the end.
#[derive(Default)]
struct Totals {
    span_s: BTreeMap<&'static str, f64>,
    epochs: u64,
    epoch_total_s: f64,
    epoch_max_s: f64,
    counters: BTreeMap<&'static str, u64>,
    self_us: BTreeMap<&'static str, u64>,
    solve_span_us: u64,
    build_s: f64,
    paths: usize,
    relax0_s: f64,
    relax0_pivots: usize,
    relax0_phase1: usize,
    rounded_cost: f64,
    lp_cost: f64,
    taa_revenue: f64,
    lp_revenue: f64,
    evaluate_s: f64,
    audit_s: f64,
    violations: usize,
    invocations: usize,
    improving: usize,
    rlspm_pivots: usize,
    blspm_pivots: usize,
}

const COUNTERS: [(&str, &str); 8] = [
    ("lp.pivots", names::LP_SIMPLEX_ITERATIONS),
    ("lp.phase1_pivots", names::LP_SIMPLEX_PHASE1),
    ("lp.dual_pivots", names::LP_SIMPLEX_DUAL),
    ("lp.bound_flips", names::LP_SIMPLEX_BOUND_FLIPS),
    ("lp.refactorizations", names::LP_SIMPLEX_REFRESHES),
    ("lp.eta_updates", names::LP_LU_ETA_UPDATES),
    ("lp.cold_solves", names::LP_COLD_SOLVES),
    ("lp.warm_solves", names::LP_WARM_BASIS_REUSE),
];

pub fn run(w: &Workload, seed: u64) -> Result<Report, String> {
    let mut checker = Checker::default();
    let mut t = Totals::default();
    let mut overhead_share = 0.0;
    let mut events = Vec::new();
    let mut notes = Vec::new();

    for j in 0..w.traced_instances {
        let inputs = w.inputs(seed, j)?;
        let label = format!("instance {j} (seed {})", inputs.seed);
        let tele = Telemetry::enabled();
        if !tele.is_enabled() {
            return Err("metis-telemetry was built without its `capture` feature".into());
        }
        let root = tele.span(SPAN_INSTANCE);

        let parts = inputs.parts();
        let instance = {
            let _s = tele.span(SPAN_BUILD);
            inputs.build(parts)?
        };
        t.paths += instance.iter().map(|(_, p)| p.len()).sum::<usize>();

        let (traced, traced_s) = {
            let _s = tele.span(SPAN_SOLVE);
            timed(|| w.solve_traced(&instance, inputs.theta, &tele))
        };
        let traced = traced.map_err(|e| format!("{label}: {e}"))?;
        checker.result(&label, &instance, &traced);
        if j == 0 {
            // Telemetry must not change the result; the pair also gives
            // the tracing overhead.
            let (plain, plain_s) = timed(|| w.solve(&instance, inputs.theta));
            let plain = plain.map_err(|e| format!("{label}: {e}"))?;
            checker.result(&label, &instance, &plain);
            checker.same(&format!("{label} traced vs untraced"), &plain, &traced);
            overhead_share = (traced_s - plain_s) / plain_s;
        }

        // Round traces, and the inputs of each run's round 0: the whole
        // instance offline, each epoch's subset online.
        let (traces, round0) = match (&traced, w.mode) {
            (Outcome::Online(r), Mode::Online { epochs }) => {
                let _s = tele.span(SPAN_REPLAY);
                replay_online(
                    &instance,
                    epochs,
                    inputs.theta,
                    &r.schedule,
                    &label,
                    &mut checker,
                )?
            }
            (Outcome::Offline(r), _) => (vec![r.round_trace.clone()], vec![instance.clone()]),
            (Outcome::Online(_), Mode::Offline) => return Err("offline mode solved online".into()),
        };
        for trace in &traces {
            fold_round_trace(&mut t, trace);
        }

        let config = MetisConfig::with_theta(inputs.theta);
        for sub in &round0 {
            let everyone = vec![true; sub.num_requests()];
            let (relax, secs) = {
                let _s = tele.span(SPAN_RELAX0);
                timed(|| solve_rlspm_relaxation(sub, &everyone, &config.maa.lp))
            };
            let relax = relax.map_err(|e| format!("{label}: round-0 RL-SPM relaxation: {e}"))?;
            t.relax0_s += secs;
            t.relax0_pivots += relax.stats.iterations;
            t.relax0_phase1 += relax.stats.phase1_iterations;

            let maa0 = {
                let _s = tele.span(SPAN_MAA0);
                maa(sub, &everyone, &config.maa)
            }
            .map_err(|e| format!("{label}: round-0 MAA: {e}"))?;
            t.rounded_cost += maa0.evaluation.cost;
            t.lp_cost += maa0.relaxation.cost;

            let taa0 = {
                let _s = tele.span(SPAN_TAA0);
                taa(sub, &maa0.evaluation.charged, &config.taa)
            }
            .map_err(|e| format!("{label}: TAA on MAA's charged capacities: {e}"))?;
            t.taa_revenue += taa0.evaluation.revenue;
            t.lp_revenue += taa0.relaxation.revenue;
        }

        let (_, secs) = {
            let _s = tele.span(SPAN_EVALUATE);
            timed(|| traced.schedule().evaluate(&instance))
        };
        t.evaluate_s += secs;
        let (audit, secs) = {
            let _s = tele.span(SPAN_AUDIT);
            timed(|| audit_schedule(&instance, traced.schedule(), traced.evaluation()))
        };
        t.audit_s += secs;
        t.violations += audit.violations.len();
        drop(root);

        let snapshot = tele.snapshot().ok_or("telemetry snapshot missing")?;
        fold_snapshot(&mut t, &snapshot, w.mode);
        let spans = tele.raw_spans().ok_or("telemetry span log missing")?;
        if snapshot.dropped.span_records > 0 {
            checker.fail(format!(
                "{label}: span log dropped {} records",
                snapshot.dropped.span_records
            ));
        }
        fold_self_times(&mut t, &spans);
        let trace = tele.chrome_trace().ok_or("chrome trace missing")?;
        tag_events(&trace, j, inputs.seed, &mut events)?;
    }

    let path = write_trace(w.name, seed, events)?;
    notes.push(format!("chrome trace: {path}"));
    let solve_us = t.solve_span_us.max(1) as f64;
    for (name, us) in &t.self_us {
        notes.push(format!(
            "self time {name:<22} {:>10.6} s/solve  {:>6.2}% of traced solve",
            *us as f64 / 1e6 / w.traced_instances as f64,
            100.0 * *us as f64 / solve_us
        ));
    }

    Ok(Report {
        metrics: per_layer_metrics(&t, w.traced_instances, overhead_share),
        checker,
        notes,
        solves: w.traced_instances,
    })
}

/// Runs each online epoch through `metis()` exactly as `online_metis`
/// cuts them, for the round traces the online result does not carry.
/// The replay must reproduce the online schedule.
fn replay_online(
    instance: &SpmInstance,
    epochs: usize,
    theta: usize,
    online: &metis_core::Schedule,
    label: &str,
    checker: &mut Checker,
) -> Result<(Vec<Vec<RoundTrace>>, Vec<SpmInstance>), String> {
    let mut traces = Vec::new();
    let mut subs = Vec::new();
    for (e, members) in epoch_members(instance, epochs).into_iter().enumerate() {
        if members.is_empty() {
            continue;
        }
        let sub = instance
            .try_subset(&members)
            .map_err(|err| format!("{label}: epoch {e} subset: {err}"))?;
        let run = metis(&sub, &MetisConfig::with_theta(theta))
            .map_err(|err| format!("{label}: epoch {e} replay: {err}"))?;
        let diverged = members.iter().enumerate().any(|(local, &original)| {
            run.schedule.path_choice(RequestId(local as u32))
                != online.path_choice(RequestId(original as u32))
        });
        if diverged {
            checker.fail(format!(
                "{label}: replay of epoch {e} disagrees with online_metis"
            ));
        }
        traces.push(run.round_trace);
        subs.push(sub);
    }
    Ok((traces, subs))
}

fn fold_round_trace(t: &mut Totals, trace: &[RoundTrace]) {
    let mut best = 0.0;
    for entry in trace {
        t.invocations += 1;
        if entry.best_profit > best {
            t.improving += 1;
        }
        best = entry.best_profit;
        match entry.phase {
            Phase::Maa => t.rlspm_pivots += entry.lp_iterations,
            Phase::Taa => t.blspm_pivots += entry.lp_iterations,
        }
    }
}

fn fold_snapshot(t: &mut Totals, s: &Snapshot, mode: Mode) {
    for name in LAYERS {
        *t.span_s.entry(name).or_default() += s.span_secs(name);
    }
    // An offline run decides the whole cycle at once: its one epoch is
    // the `metis` span.
    let epoch = match mode {
        Mode::Offline => s.span(names::SPAN_METIS),
        Mode::Online { .. } => s.span(names::SPAN_EPOCH),
    };
    if let Some(e) = epoch {
        t.epochs += e.count;
        t.epoch_total_s += e.total_us as f64 / 1e6;
        t.epoch_max_s = t.epoch_max_s.max(e.max_us as f64 / 1e6);
    }
    for (key, name) in COUNTERS {
        *t.counters.entry(key).or_default() += s.counter(name);
    }
    t.build_s += s.span_secs(SPAN_BUILD);
}

/// Self time of every span: its duration minus the part of it covered
/// by its children, the spans one level deeper on the same thread. Those
/// run one after another, and `raw_spans` orders spans by start.
fn fold_self_times(t: &mut Totals, spans: &[TraceSpan]) {
    for (i, s) in spans.iter().enumerate() {
        let end = s.start_us + s.duration_us;
        let covered: u64 = spans[i + 1..]
            .iter()
            .take_while(|c| c.start_us < end)
            .filter(|c| c.lane == s.lane && c.depth == s.depth + 1)
            .map(|c| (c.start_us + c.duration_us).min(end) - c.start_us)
            .sum();
        *t.self_us.entry(s.name).or_default() += s.duration_us.saturating_sub(covered);
        if s.name == SPAN_SOLVE {
            t.solve_span_us += s.duration_us;
        }
    }
}

fn per_layer_metrics(t: &Totals, n: usize, overhead_share: f64) -> Vec<Metric> {
    let n = n as f64;
    let span = |name: &str| t.span_s.get(name).copied().unwrap_or(0.0) / n;
    let counter = |key: &str| t.counters.get(key).copied().unwrap_or(0) as f64 / n;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let relax_s = span(names::SPAN_MAA_RELAX) + span(names::SPAN_TAA_RELAX);
    let layer_self_us: u64 = LAYERS.iter().filter_map(|l| t.self_us.get(l)).sum();
    let m = Metric::new;
    vec![
        m("rlspm.relax_s", span(names::SPAN_MAA_RELAX), "s"),
        m("blspm.relax_s", span(names::SPAN_TAA_RELAX), "s"),
        m("blspm.walk_s", span(names::SPAN_TAA_WALK), "s"),
        m("rlspm.rounding_s", span(names::SPAN_MAA_ROUNDING), "s"),
        m("limiter.apply_s", span(names::SPAN_LIMITER), "s"),
        m(
            "online.epoch_mean_s",
            ratio(t.epoch_total_s, t.epochs as f64),
            "s",
        ),
        m("online.epoch_max_s", t.epoch_max_s, "s"),
        m("lp.pivots", counter("lp.pivots"), "count"),
        m("lp.phase1_pivots", counter("lp.phase1_pivots"), "count"),
        m(
            "lp.phase1_share",
            ratio(counter("lp.phase1_pivots"), counter("lp.pivots")),
            "ratio",
        ),
        m(
            "lp.us_per_pivot",
            ratio(relax_s * 1e6, counter("lp.pivots")),
            "us",
        ),
        m("lp.dual_pivots", counter("lp.dual_pivots"), "count"),
        m("lp.bound_flips", counter("lp.bound_flips"), "count"),
        m(
            "lp.refactorizations",
            counter("lp.refactorizations"),
            "count",
        ),
        m("lp.eta_updates", counter("lp.eta_updates"), "count"),
        m("lp.cold_solves", counter("lp.cold_solves"), "count"),
        m("lp.warm_solves", counter("lp.warm_solves"), "count"),
        m("rlspm.pivots", t.rlspm_pivots as f64 / n, "count"),
        m("blspm.pivots", t.blspm_pivots as f64 / n, "count"),
        m("instance.build_s", t.build_s / n, "s"),
        m("instance.paths", t.paths as f64 / n, "count"),
        m("rlspm.relax0_s", t.relax0_s / n, "s"),
        m("rlspm.relax0_pivots", t.relax0_pivots as f64 / n, "count"),
        m(
            "rlspm.relax0_phase1_pivots",
            t.relax0_phase1 as f64 / n,
            "count",
        ),
        m(
            "rlspm.rounding_gap",
            ratio(t.rounded_cost, t.lp_cost),
            "ratio",
        ),
        m(
            "blspm.revenue_ratio",
            ratio(t.taa_revenue, t.lp_revenue),
            "ratio",
        ),
        m("schedule.evaluate_s", t.evaluate_s / n, "s"),
        m("audit.schedule_s", t.audit_s / n, "s"),
        m("audit.violations", t.violations as f64, "count"),
        m("framework.invocations", t.invocations as f64 / n, "count"),
        m(
            "framework.improving_share",
            ratio(t.improving as f64, t.invocations as f64),
            "ratio",
        ),
        m("telemetry.overhead_share", overhead_share, "ratio"),
        m(
            "trace.layer_coverage",
            ratio(layer_self_us as f64, t.solve_span_us as f64),
            "ratio",
        ),
    ]
}

/// Re-homes one instance's Chrome trace events under process id
/// `index + 1` and tags every span with the instance index.
fn tag_events(trace: &str, index: usize, seed: u64, out: &mut Vec<Json>) -> Result<(), String> {
    let doc = Json::parse(trace).map_err(|e| format!("chrome trace: {e}"))?;
    let Some(Json::Arr(events)) = doc.get("traceEvents").cloned() else {
        return Err("chrome trace has no traceEvents array".into());
    };
    for event in events {
        let Json::Obj(mut fields) = event else {
            continue;
        };
        let phase = fields
            .iter()
            .find(|(k, _)| k == "ph")
            .and_then(|(_, v)| v.as_str());
        let is_span = phase == Some("X");
        let is_process_name = fields
            .iter()
            .any(|(k, v)| k == "name" && v.as_str() == Some("process_name"));
        for (key, value) in &mut fields {
            match (key.as_str(), &mut *value) {
                ("pid", _) => *value = Json::from(index + 1),
                ("args", Json::Obj(args)) if is_span => {
                    args.push(("instance".into(), Json::from(index)));
                }
                ("args", Json::Obj(args)) if is_process_name => {
                    *args = vec![(
                        "name".into(),
                        Json::from(format!("instance {index} (seed {seed})")),
                    )];
                }
                _ => {}
            }
        }
        out.push(Json::Obj(fields));
    }
    Ok(())
}

fn write_trace(workload: &str, seed: u64, events: Vec<Json>) -> Result<String, String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
    let path = format!("{dir}/trace-{workload}-seed{seed}.json");
    let doc = Json::Obj(vec![
        ("displayTimeUnit".into(), Json::from("ms")),
        ("traceEvents".into(), Json::Arr(events)),
    ]);
    std::fs::write(&path, doc.to_pretty()).map_err(|e| format!("cannot write {path}: {e}"))?;
    Ok(path)
}
