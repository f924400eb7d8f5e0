//! End-to-end benchmark of the Metis pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` the run measures set-up and solve time with
//! telemetry off and prints the end-to-end metrics. With `--trace 1` it
//! solves with telemetry on, calls each layer directly, writes a Chrome
//! trace to `perfbench/out/`, and prints the per-layer metrics. Every
//! result is checked outside the timed regions; the last line of
//! standard output is one JSON object. `--workload all` runs every
//! workload, each in its own process. The workloads are described in
//! `perfbench/README.md`.

mod checks;
mod traced;
mod workloads;

use std::process::{Command, ExitCode};
use std::time::Instant;

use checks::Checker;
use metis_core::SpmInstance;
use workloads::{Workload, WORKLOADS};

const USAGE: &str =
    "usage: metis-perfbench --workload NAME|all [--seed N] [--seconds S] [--trace 0|1]";

/// Timed instance builds before each solve of an end-to-end run.
const BUILDS_PER_SOLVE: usize = 16;

/// One reported metric.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What one run prints.
pub struct Report {
    metrics: Vec<Metric>,
    checker: Checker,
    notes: Vec<String>,
    solves: usize,
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: 20.0,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all();
    }
    let Some(w) = workloads::find(&args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {}; known: {}",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    let seed = args.seed.unwrap_or(w.default_seed);
    let report = if args.trace {
        traced::run(w, seed)
    } else {
        run_e2e(w, seed, args.seconds)
    };
    match report {
        Ok(report) => {
            report.print(w, seed, args.trace);
            if report.checker.is_correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("{}: {e}", w.name);
            ExitCode::FAILURE
        }
    }
}

/// Re-runs this program once per workload, so each workload's peak
/// memory is its own, passing the remaining flags through.
fn run_all() -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut passed: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = passed.iter().position(|a| a == "--workload") {
        passed.drain(i..i + 2);
    }
    let mut ok = true;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w.name])
            .args(&passed)
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: exited with {s}", w.name);
                ok = false;
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name);
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `f` and returns its result with its wall-clock seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    // metis-lint: allow(DET-02): wall-clock benchmark harness; timings are the output
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// The end-to-end run: set-up and closed-loop solves with telemetry off.
///
/// One caller waits for each solve. Every instance is solved once, then
/// the set is cycled until the solves have taken `seconds`, with at least
/// one repeat so determinism is always checked. Before each solve the
/// instance is built `BUILDS_PER_SOLVE` times (input copies made
/// untimed), so set-up is sampled across the whole run.
fn run_e2e(w: &Workload, seed: u64, seconds: f64) -> Result<Report, String> {
    let inputs = (0..w.instances)
        .map(|j| w.inputs(seed, j))
        .collect::<Result<Vec<_>, _>>()?;
    let mut setup_s = Vec::new();
    let mut build = |j: usize| -> Result<SpmInstance, String> {
        let mut last = None;
        for _ in 0..BUILDS_PER_SOLVE {
            let parts = inputs[j].parts();
            let (instance, secs) = timed(|| inputs[j].build(parts));
            setup_s.push(secs);
            last = Some(instance?);
        }
        last.ok_or_else(|| "no instance built".to_string())
    };
    let mut checker = Checker::default();
    let mut solve_s: Vec<Vec<f64>> = vec![Vec::new(); w.instances];
    let mut solve = |j: usize, instance: &SpmInstance, checker: &mut Checker| {
        let label = format!("instance {j} (seed {})", inputs[j].seed);
        let (outcome, secs) = timed(|| w.solve(instance, inputs[j].theta));
        let outcome = outcome.map_err(|e| format!("{label}: {e}"))?;
        solve_s[j].push(secs);
        checker.result(&label, instance, &outcome);
        Ok::<_, String>((outcome, secs))
    };

    let mut instances = Vec::with_capacity(w.instances);
    let mut first = Vec::with_capacity(w.instances);
    let mut elapsed = 0.0;
    for j in 0..w.instances {
        let instance = build(j)?;
        let (outcome, secs) = solve(j, &instance, &mut checker)?;
        elapsed += secs;
        instances.push(instance);
        first.push(outcome);
    }
    let mut repeats = 0;
    while repeats == 0 || elapsed < seconds {
        let j = repeats % w.instances;
        build(j)?;
        let (again, secs) = solve(j, &instances[j], &mut checker)?;
        elapsed += secs;
        checker.same(&format!("instance {j} repeat"), &first[j], &again);
        repeats += 1;
    }

    let n = w.instances as f64;
    let profit = first.iter().map(|o| o.evaluation().profit).sum::<f64>() / n;
    let accept_ratio = first
        .iter()
        .zip(&instances)
        .map(|(o, i)| o.evaluation().accepted as f64 / i.num_requests() as f64)
        .sum::<f64>()
        / n;
    let solves = w.instances + repeats;
    let mut all: Vec<f64> = solve_s.iter().flatten().copied().collect();
    // Instances differ in size, so the run's figure is the median over
    // instances of each one's median: repeats cannot tilt it.
    let mut per_instance: Vec<f64> = solve_s.iter_mut().map(|t| median(t)).collect();
    let setup = median(&mut setup_s);
    let profits: Vec<String> = first
        .iter()
        .map(|o| format!("{:.2}", o.evaluation().profit))
        .collect();
    let notes = vec![
        format!("profit per instance: {}", profits.join(" ")),
        format!("solve: {}", describe(&mut all)),
        format!("setup: {}", describe(&mut setup_s)),
        format!(
            "failed_share {} ({} of {} operations)",
            checker.failed as f64 / checker.attempted.max(1) as f64,
            checker.failed,
            checker.attempted,
        ),
    ];
    Ok(Report {
        metrics: vec![
            Metric::new("setup_s", setup, "s"),
            Metric::new("solve_s", median(&mut per_instance), "s"),
            Metric::new("profit", profit, "dollars"),
            Metric::new("accept_ratio", accept_ratio, "ratio"),
            Metric::new("peak_rss_mib", peak_rss_mib()?, "MiB"),
        ],
        checker,
        notes,
        solves,
    })
}

/// Sample count, median, the highest percentile with at least ten
/// samples beyond it, and the extremes, in seconds.
fn describe(values: &mut [f64]) -> String {
    let n = values.len();
    let med = median(values);
    let tail = if n > 10 {
        format!(
            " p{:.0} {:.6}",
            100.0 * (n - 10) as f64 / n as f64,
            values[n - 11]
        )
    } else {
        String::new()
    };
    format!(
        "{n} samples, min {:.6} median {med:.6}{tail} max {:.6} s",
        values.first().copied().unwrap_or(f64::NAN),
        values.last().copied().unwrap_or(f64::NAN),
    )
}

/// Sorts `values` and returns their median (NaN when empty).
fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

impl Report {
    fn print(&self, w: &Workload, seed: u64, trace: bool) {
        println!(
            "# {} seed {seed} (default {}, held-out {}) trace {} ({} solves)",
            w.name,
            w.default_seed,
            w.held_out_seed,
            u8::from(trace),
            self.solves
        );
        for m in &self.metrics {
            println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
        }
        for note in &self.notes {
            println!("  {note}");
        }
        for problem in &self.checker.problems {
            println!("! {problem}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.checker.is_correct(),
            self.checker.attempted,
            self.checker.failed,
            metrics.join(", ")
        );
    }
}

/// A JSON number with every digit Rust's shortest round-trip form keeps;
/// `null` for a value JSON cannot hold.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".into()
    }
}
