//! Output checks, computed apart from the program under test.
//!
//! The reference for every check is ground truth the program never sees
//! while it runs: the simulator's in-memory jobs regenerated from the same
//! seed, the fault plan's `faults.json`, and the preset's injected noise.
//! Each check is a plain function over data so the harness's tests can
//! feed it a deliberately damaged input and watch it fail.

use iotax_cli::{ingest_trace, trace_duplicate_sets, IngestOptions, TraceJob};
use iotax_core::{app_modeling_bound, concurrent_noise_floor, DuplicateSets};
use iotax_darshan::features::{extract_mpiio_features, extract_posix_features};
use iotax_darshan::format::parse_log;
use iotax_sim::{FaultManifest, SimDataset};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Noise-floor bracket, as a multiple of the preset's injected σ; the
/// same bracket `tests/ground_truth.rs` holds the library to.
pub const SIGMA_BRACKET: (f64, f64) = (0.7, 3.0);

/// What one trace should produce, from ground truth plus one in-process
/// ingest through the library.
#[derive(Debug, Clone)]
pub struct Reference {
    /// Log files the manifest lists.
    pub files: u64,
    /// Jobs `faults.json` lists as damaged.
    pub fault_ids: BTreeSet<u64>,
    /// Jobs the library ingest recovered (clean plus salvaged).
    pub jobs_ingested: u64,
    /// Jobs the library ingest quarantined.
    pub quarantined: BTreeSet<u64>,
    /// Duplicate census: jobs in duplicate sets, and sets.
    pub dup_jobs: usize,
    /// See `dup_jobs`.
    pub dup_sets: usize,
    /// Concurrent-duplicate noise floor: σ (log10) and the ±68 % band;
    /// `None` when the trace has fewer than 30 concurrent duplicates, which
    /// the CLI must then say instead of printing a floor.
    pub noise: Option<(f64, f64)>,
}

/// Builds the reference for `trace` and checks the trace against ground
/// truth on the way. Returns the reference and every problem found.
pub fn reference(
    trace: &Path,
    sim: &SimDataset,
    faults: &FaultManifest,
) -> (Reference, Vec<String>) {
    let mut problems = check_round_trip(trace, sim, faults);
    let fault_ids: BTreeSet<u64> = faults.faults.iter().map(|f| f.job_id).collect();
    let (jobs, report) = match ingest_trace(trace, &IngestOptions::default()) {
        Ok(r) => r,
        Err(e) => {
            problems.push(format!("reference ingest failed: {e}"));
            return (empty_reference(fault_ids), problems);
        }
    };
    let quarantined: BTreeSet<u64> = report.quarantined.iter().map(|q| q.job_id).collect();
    if let Err(e) =
        check_accounting(report.total_files, &fault_ids, jobs.len() as u64, &quarantined)
    {
        problems.push(format!("library ingest: {e}"));
    }
    let dup = trace_duplicate_sets(&jobs);
    if let Err(e) = check_duplicates(&clean_set_membership(&jobs, &dup, sim, &fault_ids)) {
        problems.push(e);
    }
    let y: Vec<f64> = jobs.iter().map(TraceJob::log10_throughput).collect();
    let starts: Vec<i64> = jobs.iter().map(|j| j.start_time).collect();
    let bound = app_modeling_bound(&y, &dup);
    let noise =
        concurrent_noise_floor(&y, &starts, &dup, &[], 1, 30).map(|f| (f.sigma_log10, f.pct_68));
    if let Some((sigma, _)) = noise {
        if let Err(e) = check_noise_sigma(sigma, sim.config.noise_sigma_log10) {
            problems.push(e);
        }
    }
    let reference = Reference {
        files: report.total_files,
        fault_ids,
        jobs_ingested: jobs.len() as u64,
        quarantined,
        dup_jobs: bound.n_duplicates,
        dup_sets: bound.n_sets,
        noise,
    };
    (reference, problems)
}

fn empty_reference(fault_ids: BTreeSet<u64>) -> Reference {
    Reference {
        files: 0,
        fault_ids,
        jobs_ingested: 0,
        quarantined: BTreeSet::new(),
        dup_jobs: 0,
        dup_sets: 0,
        noise: None,
    }
}

/// The manifest line `iotax-gen` must write for a simulated job.
pub fn manifest_line(job: &iotax_sim::SimJob) -> String {
    format!(
        "{},{},{},{},{},{},{},{:.6e}",
        job.job_id,
        job.arrival_time,
        job.start_time,
        job.end_time,
        job.nodes,
        job.cores,
        job.nprocs,
        job.throughput
    )
}

/// Logs that `faults.json` does not list must round-trip bit-exactly:
/// the manifest row carries the simulator's scheduler fields and
/// throughput, and the parsed log carries its POSIX (and MPI-IO)
/// counters, compared bit for bit.
pub fn check_round_trip(trace: &Path, sim: &SimDataset, faults: &FaultManifest) -> Vec<String> {
    let mut problems = Vec::new();
    let manifest = match std::fs::read_to_string(trace.join("manifest.csv")) {
        Ok(m) => m,
        Err(e) => return vec![format!("reading manifest.csv: {e}")],
    };
    let rows: BTreeMap<u64, &str> = manifest
        .lines()
        .skip(1)
        .filter_map(|l| l.split(',').next().and_then(|id| id.parse().ok()).map(|id| (id, l)))
        .collect();
    if rows.len() != sim.jobs.len() {
        problems.push(format!(
            "manifest has {} rows, simulator {} jobs",
            rows.len(),
            sim.jobs.len()
        ));
    }
    let faulty: BTreeSet<u64> = faults.faults.iter().map(|f| f.job_id).collect();
    let mut bad = 0usize;
    let mut first = None;
    for job in sim.jobs.iter().filter(|j| !faulty.contains(&j.job_id)) {
        let fail = |why: String| (job.job_id, why);
        let verdict = match rows.get(&job.job_id) {
            None => Err(fail("missing from manifest.csv".to_owned())),
            Some(row) if *row != manifest_line(job) => {
                Err(fail(format!("manifest row {row:?} != simulator {:?}", manifest_line(job))))
            }
            Some(_) => {
                let path = trace.join("logs").join(format!("{}.drn", job.job_id));
                match std::fs::read(&path)
                    .map_err(|e| e.to_string())
                    .and_then(|b| parse_log(&b).map_err(|e| format!("strict parse failed: {e}")))
                {
                    Err(e) => Err(fail(e)),
                    Ok(log) => {
                        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                        let posix = extract_posix_features(&log);
                        let mpiio = extract_mpiio_features(&log);
                        if bits(&posix) != bits(&job.posix) {
                            Err(fail("POSIX counters differ from the simulator's".to_owned()))
                        } else if log.mpiio.is_some() != job.uses_mpiio
                            || (job.uses_mpiio && bits(&mpiio) != bits(&job.mpiio))
                        {
                            Err(fail("MPI-IO counters differ from the simulator's".to_owned()))
                        } else {
                            Ok(())
                        }
                    }
                }
            }
        };
        if let Err(e) = verdict {
            bad += 1;
            first.get_or_insert(e);
        }
    }
    if let Some((id, why)) = first {
        problems.push(format!("{bad} unfaulted logs fail the round trip; first, job {id}: {why}"));
    }
    problems
}

/// Quarantined files must be a subset of `faults.json`, and every file
/// must be accounted for: ingested plus quarantined equals files.
pub fn check_accounting(
    files: u64,
    fault_ids: &BTreeSet<u64>,
    jobs_ingested: u64,
    quarantined: &BTreeSet<u64>,
) -> Result<(), String> {
    if let Some(id) = quarantined.iter().find(|id| !fault_ids.contains(id)) {
        return Err(format!("job {id} was quarantined but faults.json lists no fault for it"));
    }
    if jobs_ingested + quarantined.len() as u64 != files {
        return Err(format!(
            "{jobs_ingested} ingested + {} quarantined != {files} files",
            quarantined.len()
        ));
    }
    Ok(())
}

/// For every ingested job whose log has no fault: the simulator's
/// `config_id` and the duplicate set the program put it in.
pub fn clean_set_membership(
    jobs: &[TraceJob],
    dup: &DuplicateSets,
    sim: &SimDataset,
    fault_ids: &BTreeSet<u64>,
) -> Vec<(u64, Option<usize>)> {
    let config: BTreeMap<u64, u64> = sim.jobs.iter().map(|j| (j.job_id, j.config_id)).collect();
    jobs.iter()
        .zip(&dup.set_of)
        .filter(|(j, _)| !fault_ids.contains(&j.job_id))
        .map(|(j, set)| (config.get(&j.job_id).copied().unwrap_or(u64::MAX), *set))
        .collect()
}

/// Among logs with no fault, two jobs share a duplicate set exactly when
/// the simulator gave them the same `config_id`. Input: one
/// `(config_id, duplicate set)` pair per such job.
pub fn check_duplicates(members: &[(u64, Option<usize>)]) -> Result<(), String> {
    let mut by_config: BTreeMap<u64, Vec<Option<usize>>> = BTreeMap::new();
    let mut by_set: BTreeMap<usize, BTreeSet<u64>> = BTreeMap::new();
    for &(config, set) in members {
        by_config.entry(config).or_default().push(set);
        if let Some(s) = set {
            by_set.entry(s).or_default().insert(config);
        }
    }
    for (config, sets) in &by_config {
        if sets.len() >= 2 && (sets[0].is_none() || sets.iter().any(|s| *s != sets[0])) {
            return Err(format!(
                "jobs of simulator config {config:#x} were not put in one duplicate set: {sets:?}"
            ));
        }
    }
    if let Some((set, configs)) = by_set.iter().find(|(_, c)| c.len() > 1) {
        return Err(format!("duplicate set {set} mixes simulator configs {configs:x?}"));
    }
    Ok(())
}

/// The measured noise floor must lie within [`SIGMA_BRACKET`] of the
/// noise the simulator injected.
pub fn check_noise_sigma(sigma_log10: f64, preset_sigma_log10: f64) -> Result<(), String> {
    let (lo, hi) = SIGMA_BRACKET;
    if sigma_log10 > lo * preset_sigma_log10 && sigma_log10 < hi * preset_sigma_log10 {
        Ok(())
    } else {
        Err(format!(
            "noise floor σ {sigma_log10:.5} outside {lo}–{hi}× the injected {preset_sigma_log10:.5}"
        ))
    }
}

/// What one `iotax-analyze` invocation printed, parsed.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CliOutput {
    /// `trace: N jobs`.
    pub jobs: Option<u64>,
    /// `ingest: N files`.
    pub files: Option<u64>,
    /// Job ids from the `quarantined job N:` lines on stderr.
    pub quarantined: BTreeSet<u64>,
    /// `duplicates: N jobs (…) in K sets`.
    pub dup_jobs: Option<usize>,
    /// See `dup_jobs`.
    pub dup_sets: Option<usize>,
    /// `expect throughput within ±P %`.
    pub pct_68: Option<f64>,
    /// The CLI said the trace has too few concurrent duplicates for a floor.
    pub no_floor: bool,
    /// Taxonomy report step lines found (`step 1`, `step 2.1`, …).
    pub steps: Vec<String>,
    /// `step 2.1` application bound, percent.
    pub app_bound_pct: Option<f64>,
    /// `step 2.2` tuned-model error, percent.
    pub tuned_pct: Option<f64>,
}

/// The taxonomy report's five stages, by the step lines that show them.
pub const STEP_LINES: [&str; 6] =
    ["step 1 ", "step 2.1 ", "step 2.2 ", "step 3.1 ", "step 4 ", "step 5 "];

/// First number in `text` that the next token marks as a percentage.
fn percent_in(text: &str) -> Option<f64> {
    let toks: Vec<&str> = text.split_whitespace().collect();
    toks.windows(2).find(|w| w[1] == "%").and_then(|w| w[0].parse().ok())
}

fn number_after(text: &str, prefix: &str) -> Option<u64> {
    text.strip_prefix(prefix)?.split_whitespace().next()?.parse().ok()
}

impl CliOutput {
    /// Parses stdout and stderr of one `iotax-analyze` run.
    pub fn parse(stdout: &str, stderr: &str) -> Self {
        let mut out = CliOutput::default();
        for line in stdout.lines() {
            if let Some(n) = number_after(line, "trace: ") {
                out.jobs = Some(n);
            } else if let Some(n) = number_after(line, "ingest: ") {
                out.files = Some(n);
            } else if let Some(rest) = line.strip_prefix("duplicates: ") {
                let toks: Vec<&str> = rest.split_whitespace().collect();
                out.dup_jobs = toks.first().and_then(|t| t.parse().ok());
                out.dup_sets = toks.iter().rev().nth(1).and_then(|t| t.parse().ok());
            } else if let Some(rest) = line.trim_start().strip_prefix("expect throughput within ±")
            {
                out.pct_68 = rest.split_whitespace().next().and_then(|t| t.parse().ok());
            } else if line.starts_with("noise floor: fewer than 30 simultaneous duplicates") {
                out.no_floor = true;
            } else if let Some(step) = STEP_LINES.iter().find(|s| line.starts_with(**s)) {
                out.steps.push(step.trim_end().to_owned());
                if *step == "step 2.1 " {
                    out.app_bound_pct = percent_in(line);
                } else if *step == "step 2.2 " {
                    out.tuned_pct = percent_in(line);
                }
            }
        }
        for line in stderr.lines() {
            if let Some(id) = line
                .trim_start()
                .strip_prefix("quarantined job ")
                .and_then(|r| r.split(':').next())
                .and_then(|t| t.parse().ok())
            {
                out.quarantined.insert(id);
            }
        }
        out
    }
}

/// Checks one `iotax-analyze` pass against the reference.
pub fn check_cli_pass(out: &CliOutput, r: &Reference, full_taxonomy: bool) -> Vec<String> {
    let mut problems = Vec::new();
    match (out.jobs, out.files) {
        (Some(jobs), Some(files)) => {
            if files != r.files {
                problems.push(format!("CLI saw {files} files, the manifest lists {}", r.files));
            }
            if let Err(e) = check_accounting(files, &r.fault_ids, jobs, &out.quarantined) {
                problems.push(format!("CLI ingest: {e}"));
            }
        }
        _ => problems.push("CLI printed no `trace:`/`ingest:` summary".to_owned()),
    }
    if out.dup_jobs != Some(r.dup_jobs) || out.dup_sets != Some(r.dup_sets) {
        problems.push(format!(
            "CLI duplicate census {:?} jobs in {:?} sets, reference {} in {}",
            out.dup_jobs, out.dup_sets, r.dup_jobs, r.dup_sets
        ));
    }
    match (out.pct_68, r.noise) {
        (Some(p), Some((_, want))) if (p - want).abs() <= 0.005 + 1e-9 => {}
        (None, None) if out.no_floor => {}
        (got, want) => problems.push(format!(
            "CLI noise band ±{got:?} %, reference ±{:?} %",
            want.map(|(_, pct)| pct)
        )),
    }
    if full_taxonomy {
        if let Err(e) = check_taxonomy(out) {
            problems.push(e);
        }
    }
    problems
}

/// The full taxonomy report: all five stages report, and the duplicate
/// bound lies at or below the tuned model's error (no model beats the
/// application-modeling bound).
pub fn check_taxonomy(out: &CliOutput) -> Result<(), String> {
    let missing: Vec<&str> = STEP_LINES
        .iter()
        .map(|s| s.trim_end())
        .filter(|s| !out.steps.iter().any(|x| x == s))
        .collect();
    if !missing.is_empty() {
        return Err(format!("taxonomy report lacks {missing:?}"));
    }
    match (out.app_bound_pct, out.tuned_pct) {
        (Some(bound), Some(tuned)) if bound <= tuned => Ok(()),
        (bound, tuned) => Err(format!(
            "duplicate bound {bound:?} % is not at or below the tuned-model error {tuned:?} %"
        )),
    }
}
