//! The benchmark's workloads: how each one turns a seed into inputs, and
//! which Metis entry point it drives.

use metis_core::{
    metis, metis_instrumented, online_metis, online_metis_instrumented, Evaluation, FaultPlan,
    Incident, MetisConfig, MetisError, MetisResult, OnlineOptions, OnlineResult, Schedule,
    SpmInstance, DEFAULT_PATHS_PER_PAIR,
};
use metis_netsim::{topologies, Topology};
use metis_telemetry::Telemetry;
use metis_workload::{generate, Request, Scenario, WorkloadConfig, DEFAULT_SLOTS};

/// Alternation rounds for the paper workloads (the paper's θ = 8).
const THETA: usize = 8;

/// Distance between the workload seeds of consecutive instances of one
/// run, so runs with nearby `--seed` values share no instance.
const INSTANCE_SEED_STRIDE: u64 = 1_000_003;

/// Which Metis entry point a workload calls.
#[derive(Clone, Copy, Debug)]
pub enum Mode {
    /// One `metis()` call over the whole billing cycle.
    Offline,
    /// One `online_metis()` call that cuts the cycle into epochs.
    Online { epochs: usize },
}

/// Where a workload's requests come from.
enum Source {
    /// `metis_workload::generate` with the paper's §V-A settings on B4.
    Paper { requests: usize },
    /// A scenario template kept in `perfbench/workloads/`; the benchmark
    /// overwrites its seed.
    Scenario(&'static str),
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub mode: Mode,
    /// Distinct instances solved per run; profit and acceptance are
    /// averaged over them.
    pub instances: usize,
    /// Instances (a prefix of the run's set) solved by a traced run.
    pub traced_instances: usize,
    /// Seed used when `--seed` is not given.
    pub default_seed: u64,
    /// Seed kept for confirming a gain; never tune on it.
    pub held_out_seed: u64,
    source: Source,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "offline_b4_k700",
        mode: Mode::Offline,
        instances: 2,
        traced_instances: 2,
        default_seed: 1,
        held_out_seed: 7,
        source: Source::Paper { requests: 700 },
    },
    Workload {
        name: "online_b4_k3000_e12",
        mode: Mode::Online { epochs: 12 },
        instances: 16,
        traced_instances: 3,
        default_seed: 1,
        held_out_seed: 7,
        source: Source::Paper { requests: 3000 },
    },
    Workload {
        name: "diurnal_b4_2c_k400",
        mode: Mode::Offline,
        instances: 24,
        traced_instances: 6,
        default_seed: 1,
        held_out_seed: 7,
        source: Source::Scenario(include_str!("../workloads/diurnal_b4_2c_k400.json")),
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The generated inputs of one instance: everything the program receives.
pub struct Inputs {
    pub seed: u64,
    pub topo: Topology,
    pub requests: Vec<Request>,
    pub slots: usize,
    pub paths_per_pair: usize,
    pub theta: usize,
}

impl Inputs {
    /// Fresh copies of the topology and requests, made before a timed
    /// build so the copying stays out of the timing.
    pub fn parts(&self) -> (Topology, Vec<Request>) {
        (self.topo.clone(), self.requests.clone())
    }

    /// `SpmInstance::try_new` on copies from [`Inputs::parts`].
    pub fn build(&self, parts: (Topology, Vec<Request>)) -> Result<SpmInstance, String> {
        let (topo, requests) = parts;
        SpmInstance::try_new(topo, requests, self.slots, self.paths_per_pair)
            .map_err(|e| format!("instance (seed {}) rejected: {e}", self.seed))
    }
}

impl Workload {
    /// Generates instance `index` of the run seeded `run_seed`. Instance 0
    /// uses the run seed itself.
    pub fn inputs(&self, run_seed: u64, index: usize) -> Result<Inputs, String> {
        let seed = run_seed.wrapping_add(INSTANCE_SEED_STRIDE.wrapping_mul(index as u64));
        match self.source {
            Source::Paper { requests } => {
                let topo = topologies::b4();
                let requests = generate(&topo, &WorkloadConfig::paper(requests, seed));
                Ok(Inputs {
                    seed,
                    topo,
                    requests,
                    slots: DEFAULT_SLOTS,
                    paths_per_pair: DEFAULT_PATHS_PER_PAIR,
                    theta: THETA,
                })
            }
            Source::Scenario(template) => {
                let mut scenario = Scenario::from_json_text(template)
                    .map_err(|e| format!("{} template: {e}", self.name))?;
                scenario.seed = seed;
                let topo = scenario.build_topology();
                let requests = scenario.generate(&topo);
                Ok(Inputs {
                    seed,
                    topo,
                    requests,
                    slots: scenario.num_slots(),
                    paths_per_pair: scenario.paths,
                    theta: scenario.theta,
                })
            }
        }
    }

    /// Solves one instance with telemetry off, through the plain entry
    /// points.
    pub fn solve(&self, instance: &SpmInstance, theta: usize) -> Result<Outcome, MetisError> {
        let config = MetisConfig::with_theta(theta);
        match self.mode {
            Mode::Offline => metis(instance, &config).map(Outcome::Offline),
            Mode::Online { epochs } => online_metis(
                instance,
                &OnlineOptions {
                    epochs,
                    metis: config,
                },
            )
            .map(Outcome::Online),
        }
    }

    /// Solves one instance recording into `tele`.
    pub fn solve_traced(
        &self,
        instance: &SpmInstance,
        theta: usize,
        tele: &Telemetry,
    ) -> Result<Outcome, MetisError> {
        let config = MetisConfig::with_theta(theta);
        let none = FaultPlan::none();
        match self.mode {
            Mode::Offline => {
                metis_instrumented(instance, &config, &none, tele).map(Outcome::Offline)
            }
            Mode::Online { epochs } => online_metis_instrumented(
                instance,
                &OnlineOptions {
                    epochs,
                    metis: config,
                },
                &none,
                tele,
            )
            .map(Outcome::Online),
        }
    }
}

/// The result of one solve, offline or online.
pub enum Outcome {
    Offline(MetisResult),
    Online(OnlineResult),
}

impl Outcome {
    pub fn schedule(&self) -> &Schedule {
        match self {
            Outcome::Offline(r) => &r.schedule,
            Outcome::Online(r) => &r.schedule,
        }
    }

    pub fn evaluation(&self) -> &Evaluation {
        match self {
            Outcome::Offline(r) => &r.evaluation,
            Outcome::Online(r) => &r.evaluation,
        }
    }

    pub fn incidents(&self) -> &[Incident] {
        match self {
            Outcome::Offline(r) => &r.incidents,
            Outcome::Online(r) => &r.incidents,
        }
    }
}

/// Original request indices per online epoch, by the rule `online_metis`
/// documents: request `i` belongs to epoch `⌊start · epochs / T⌋`.
pub fn epoch_members(instance: &SpmInstance, epochs: usize) -> Vec<Vec<usize>> {
    let slots = instance.num_slots();
    let mut members = vec![Vec::new(); epochs];
    for (i, r) in instance.requests().iter().enumerate() {
        members[(r.start * epochs / slots).min(epochs - 1)].push(i);
    }
    members
}
