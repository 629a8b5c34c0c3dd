//! The benchmark's workloads and the seeds their traces come from.

use iotax_sim::{FaultPlan, SimConfig};

/// Simulation seed of every trace: the CI-pinned chaos trace's.
pub const SIM_SEED: u64 = 301;
/// Fault seed of the CI-pinned chaos trace. Workloads that draw their
/// faults from the run seed `n` use `FAULT_SEED_BASE + n`, so `--seed 0`
/// gives the pinned trace on every workload.
pub const FAULT_SEED_BASE: u64 = 20_220_914;
/// Share of logs the fault plan damages.
pub const FAULT_RATE: f64 = 0.20;

/// Jobs in every workload's trace in tiny mode (the harness's own tests).
pub const TINY_JOBS: usize = 1_500;

/// One workload: a trace recipe and the commands one pass runs on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Simulated system preset, as `iotax-gen --system` takes it.
    pub system: &'static str,
    /// Jobs in the trace.
    pub jobs: usize,
    /// A pass runs `iotax-analyze --stats-only --ledger DIR --store DIR`
    /// and reads the record back with `iotax-report show`; otherwise it
    /// runs all five taxonomy stages and records nothing. The run seed
    /// picks the fault plan only here: on the full taxonomy the fault plan
    /// moves the grid-search winner between 40 and 120 trees, and with it
    /// about a third of the pass, so a per-seed trace would measure the
    /// seed rather than the code.
    pub ingest_recorded: bool,
}

/// Every workload. Why each exists is in `BENCHMARK.json` and the README.
pub const WORKLOADS: [Workload; 2] = [
    Workload { name: "taxonomy-theta-2k", system: "theta", jobs: 2_000, ingest_recorded: false },
    Workload {
        name: "ingest-cori-20k-recorded",
        system: "cori",
        jobs: 20_000,
        ingest_recorded: true,
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The trace recipe of one run.
#[derive(Debug, Clone, Copy)]
pub struct TraceSpec {
    /// Preset name.
    pub system: &'static str,
    /// Jobs.
    pub jobs: usize,
    /// Fault seed.
    pub fault_seed: u64,
}

impl TraceSpec {
    /// The trace a workload runs on for run seed `seed`.
    pub fn new(w: &Workload, seed: u64, tiny: bool) -> Self {
        Self {
            system: w.system,
            jobs: if tiny { TINY_JOBS } else { w.jobs },
            fault_seed: if w.ingest_recorded {
                FAULT_SEED_BASE.wrapping_add(seed)
            } else {
                FAULT_SEED_BASE
            },
        }
    }

    /// The simulator configuration `iotax-gen` builds from these flags.
    pub fn sim_config(&self) -> SimConfig {
        let base = if self.system == "cori" { SimConfig::cori() } else { SimConfig::theta() };
        base.with_jobs(self.jobs).with_seed(SIM_SEED)
    }

    /// The fault plan `iotax-gen` applies.
    pub fn fault_plan(&self) -> FaultPlan {
        FaultPlan::new(self.fault_seed, FAULT_RATE)
    }

    /// `iotax-gen` arguments writing this trace to `out`.
    pub fn gen_args(&self, out: &str) -> Vec<String> {
        vec![
            "--system".into(),
            self.system.into(),
            "--jobs".into(),
            self.jobs.to_string(),
            "--seed".into(),
            SIM_SEED.to_string(),
            "--out".into(),
            out.into(),
            "--fault-rate".into(),
            FAULT_RATE.to_string(),
            "--fault-seed".into(),
            self.fault_seed.to_string(),
        ]
    }
}
