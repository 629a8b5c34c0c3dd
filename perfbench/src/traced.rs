//! The traced run: one pass of the workload made in-process, with every
//! call into a crate's public functions timed from here, in the order
//! `iotax-analyze` makes them, followed by probes that time the layers the
//! pass does not reach on this workload.
//!
//! Spans are recorded around the calls, in this file; nothing inside the
//! program is instrumented for the benchmark. The pass is the figure the
//! untraced command-line pass is compared against (`trace.overhead_s`);
//! the probes are not part of the pass and not part of `trace.coverage`.

use crate::metrics::Metrics;
use crate::workload::{TraceSpec, Workload};
use iotax_cli::{
    export_trace, ingest_trace_with_reader, inject_faults, trace_duplicate_sets, trace_to_dataset,
    IngestOptions, ObsArgs, TraceJob,
};
use iotax_core::{
    app_modeling_bound, concurrent_noise_floor, empirical_coverage, interval_from_floor,
    StageMetric, Taxonomy, TaxonomyReport, TaxonomyRun,
};
use iotax_darshan::format::parse_log;
use iotax_darshan::salvage::parse_log_lenient;
use iotax_ml::{
    grid_search, median_abs_error_pct, Dataset, GbmParams, PreparedDataset, Regressor, Trainer,
};
use iotax_sim::{FeatureSet, Platform, SimDataset};
use iotax_uq::DeepEnsemble;
use std::collections::BTreeMap;
use std::ffi::OsString;
use std::hint::black_box;
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Jobs the off-pass taxonomy probes use on workloads whose pass runs no
/// taxonomy: the size of the taxonomy workload's trace.
pub const PROBE_JOBS: usize = 2_000;

/// Seconds `f` took, with its result kept opaque to the optimizer.
fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = black_box(f());
    (out, start.elapsed().as_secs_f64())
}

/// What the traced run hands back to the harness.
#[derive(Debug, Default)]
pub struct Traced {
    /// Every per-layer metric except the harness's own (`trace.*`, `host.*`).
    pub metrics: Metrics,
    /// Wall time of the in-process pass.
    pub pass_s: f64,
    /// Share of the pass covered by timed calls.
    pub coverage: f64,
    /// Where the pass's time went, one line per crate.
    pub self_time: Vec<(&'static str, f64)>,
    /// Jobs the pass ingested.
    pub jobs: u64,
    /// Stage metrics of the pass's taxonomy, when the workload runs one.
    pub stage_metrics: Option<Vec<StageMetric>>,
    /// Check failures.
    pub problems: Vec<String>,
}

/// Paths the traced run may use.
pub struct Input<'a> {
    /// The workload.
    pub workload: Workload,
    /// Its trace recipe.
    pub spec: TraceSpec,
    /// The trace `iotax-gen` wrote.
    pub trace: &'a Path,
    /// Scratch directory of this run.
    pub work: &'a Path,
}

/// Reads every log of a trace into memory, keyed by file name.
fn read_logs(trace: &Path) -> io::Result<BTreeMap<OsString, Vec<u8>>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(trace.join("logs"))? {
        let entry = entry?;
        files.insert(entry.file_name(), std::fs::read(entry.path())?);
    }
    Ok(files)
}

/// An `ingest_trace_with_reader` reader serving the logs from memory.
fn memory_reader(
    files: &BTreeMap<OsString, Vec<u8>>,
) -> impl Fn(&Path, u32) -> io::Result<Vec<u8>> + '_ {
    move |path, _attempt| {
        path.file_name()
            .and_then(|n| files.get(n))
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.display().to_string()))
    }
}

/// Total bytes of the regular files under `dir`.
fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(_) => e.metadata().map(|m| m.len()).unwrap_or(0),
            Err(_) => 0,
        })
        .sum()
}

/// Times the five `TaxonomyRun` stages and the report assembly.
fn run_stages(ds: &SimDataset, m: &mut Metrics) -> Result<(TaxonomyReport, f64), String> {
    let err = |e: iotax_obs::Error| format!("taxonomy stage failed: {e}");
    let (s, t_baseline) = time(|| TaxonomyRun::new(ds).baseline());
    let (s, t_app) = time(|| s.map_err(err)?.app_litmus().map_err(err));
    let (s, t_sys) = time(|| s?.system_litmus().map_err(err));
    let (s, t_ood) = time(|| s?.ood().map_err(err));
    let (s, t_noise) = time(|| s?.noise_floor().map_err(err));
    let (report, t_finish) = time(|| {
        let report = s?.finish();
        black_box(report.render_text());
        Ok::<_, String>(report)
    });
    m.set("core.baseline_s", t_baseline, "s");
    m.set("core.app_litmus_s", t_app, "s");
    m.set("core.system_litmus_s", t_sys, "s");
    m.set("core.ood_s", t_ood, "s");
    m.set("core.noise_floor_stage_s", t_noise, "s");
    Ok((report?, t_baseline + t_app + t_sys + t_ood + t_noise + t_finish))
}

/// Calls the baseline stage makes into `ml`, and the ones the app-litmus
/// and OoD stages make into `ml` and `uq`, replayed on the baseline
/// stage's split. Returns the replayed seconds per crate and the
/// baseline error the replay measured.
fn ml_uq_probes(ds: &SimDataset, m: &mut Metrics) -> (f64, f64, f64) {
    // The split and parameters `TaxonomyRun` uses (crates/core/src/taxonomy.rs);
    // the harness checks the replay's baseline error against the stage's.
    let cfg = Taxonomy::quick();
    let fm = ds.feature_matrix(FeatureSet::posix());
    let (data, _) = Dataset::sanitized(fm.data, fm.n_rows, fm.n_cols, fm.y, fm.names);
    let (train, val, test) = data.split_random(0.70, 0.15, cfg.seed ^ 0xA11);
    let params = cfg.effort.baseline_params();
    let (prepared, t_prepare) = time(|| PreparedDataset::fit(&train, params.max_bins));
    let (gbm, t_fit) = time(|| Trainer::new(&prepared).with_validation(&val).fit(params));
    let (pred, t_predict) = time(|| gbm.predict(&test));
    let baseline_pct = median_abs_error_pct(&test.y, &pred);
    let grid_base = GbmParams { seed: cfg.seed, ..Default::default() };
    let (grid, t_grid) = time(|| {
        grid_search(&prepared, &val, &cfg.grid_trees, &cfg.grid_depths, &[1.0], &[1.0], grid_base)
    });
    let trees = gbm.n_trees();
    let candidates = grid.map(|g| g.len()).unwrap_or(0);
    let ood = &cfg.ood;
    let (ensemble, t_ens) = time(|| {
        DeepEnsemble::fit_default(&train, ood.ensemble_size, ood.member_params.clone(), ood.seed)
    });
    let (_, t_uq_predict) = time(|| ensemble.predict_uq_batch(&data));
    let members = ensemble.len();
    m.set("ml.prepare_s", t_prepare, "s");
    m.set("ml.gbm_fit_s", t_fit, "s");
    m.set("ml.trees", trees as f64, "count");
    m.set("ml.us_per_tree", t_fit * 1e6 / trees.max(1) as f64, "us");
    m.set("ml.grid_search_s", t_grid, "s");
    m.set("ml.grid_candidates", candidates as f64, "count");
    m.set("ml.predict_s", t_predict, "s");
    m.set("uq.ensemble_fit_s", t_ens, "s");
    m.set("uq.members", members as f64, "count");
    m.set("uq.member_s", t_ens / members.max(1) as f64, "s");
    m.set("uq.predict_s", t_uq_predict, "s");
    (t_prepare + t_fit + t_predict + t_grid, t_ens + t_uq_predict, baseline_pct)
}

/// Strict parse of every log, and salvage of the ones the strict parser
/// rejects: the parsing `ingest_trace` does, timed per call.
fn darshan_probe(files: &BTreeMap<OsString, Vec<u8>>, m: &mut Metrics) -> f64 {
    let (mut parse_s, mut reject_s, mut salvage_s) = (0.0, 0.0, 0.0);
    let (mut attempts, mut recovered, mut bytes) = (0u64, 0u64, 0u64);
    for data in files.values() {
        bytes += data.len() as u64;
        let (strict, t) = time(|| parse_log(data));
        if strict.is_ok() {
            parse_s += t;
            continue;
        }
        reject_s += t;
        attempts += 1;
        let (salvaged, t) = time(|| parse_log_lenient(data));
        salvage_s += t;
        if salvaged.is_ok_and(|(s, _)| s.records_recovered > 0) {
            recovered += 1;
        }
    }
    let total = parse_s + reject_s + salvage_s;
    m.set("darshan.parse_s", parse_s, "s");
    m.set("darshan.salvage_s", salvage_s, "s");
    m.set("darshan.bytes", bytes as f64, "B");
    m.set("darshan.ns_per_byte", total * 1e9 / bytes.max(1) as f64, "ns/B");
    m.set("darshan.salvage_yield", recovered as f64 / attempts.max(1) as f64, "ratio");
    total
}

/// What `iotax-gen` does, in-process: simulate, write the logs, inject
/// faults. Checks the result is byte-identical to `iotax-gen`'s trace.
fn setup_probe(inp: &Input<'_>, m: &mut Metrics, problems: &mut Vec<String>) {
    let dir = inp.work.join("traced-trace");
    // A directory left by a killed run; absent is the usual case.
    let _ = std::fs::remove_dir_all(&dir);
    let (ds, t_gen) = time(|| Platform::new(inp.spec.sim_config()).generate());
    let (exported, t_export) = time(|| export_trace(&ds, &dir));
    let (injected, t_inject) = time(|| inject_faults(&dir, &inp.spec.fault_plan()));
    if let Err(e) = exported.and(injected) {
        problems.push(format!("in-process trace export failed: {e}"));
    } else if crate::digest_dir(&dir) != crate::digest_dir(inp.trace) {
        problems.push("in-process export differs from the trace iotax-gen wrote".to_owned());
    }
    m.set("sim.generate_s", t_gen, "s");
    m.set("cli.export_trace_s", t_export, "s");
    m.set("cli.inject_faults_s", t_inject, "s");
    m.set("trace.bytes", dir_bytes(inp.trace) as f64, "B");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Seconds of each step of an armed observability session around one
/// ingest: install, ingest, finish (fsyncs included), then load the record
/// and render it.
struct Recorded {
    install_s: f64,
    ingest_s: f64,
    finish_s: f64,
    show_s: f64,
}

fn record_metrics(
    rec: &Recorded,
    ledger: &Path,
    store: &Path,
    m: &mut Metrics,
) -> Result<(), String> {
    let run = iotax_obs::load_run(ledger).map_err(|e| format!("loading the run record: {e}"))?;
    let allocations =
        run.gauges.iter().flatten().find(|g| g.name == "heap.allocations").map_or(0, |g| g.value);
    m.set("obs.install_s", rec.install_s, "s");
    m.set("obs.armed_ingest_s", rec.ingest_s, "s");
    m.set("obs.finish_s", rec.finish_s, "s");
    m.set("obs.record_bytes", (dir_bytes(ledger) + dir_bytes(store)) as f64, "B");
    m.set("obs.heap_allocations", allocations as f64, "count");
    m.set("report.load_show_s", rec.show_s, "s");
    Ok(())
}

/// Loads a record the way `iotax-report show` does and renders it.
fn load_show(ledger: &Path) -> Result<String, String> {
    let spec = ledger.to_str().ok_or("ledger path is not UTF-8")?;
    let run = iotax_report::resolve_run(spec).map_err(|e| format!("loading {spec}: {e}"))?;
    Ok(iotax_report::render_show(&run))
}

/// Runs the traced pass and the probes.
pub fn run(inp: &Input<'_>) -> Result<Traced, String> {
    let mut out = Traced::default();
    let m = &mut out.metrics;
    setup_probe(inp, m, &mut out.problems);

    let ledger: PathBuf = inp.work.join("traced-ledger");
    let store: PathBuf = inp.work.join("traced-store");
    for d in [&ledger, &store] {
        let _ = std::fs::remove_dir_all(d);
    }
    let wl = inp.workload;
    let opts = IngestOptions::default();

    // Probe: the same ingest with no session armed, so the armed pass (or
    // the armed probe below) shows what observability adds to it.
    let unarmed_files = read_logs(inp.trace).map_err(|e| format!("reading logs: {e}"))?;
    let (_, t_unarmed) =
        time(|| ingest_trace_with_reader(inp.trace, &opts, &memory_reader(&unarmed_files)));
    m.set("obs.unarmed_ingest_s", t_unarmed, "s");
    drop(unarmed_files);

    // ---- the pass, in iotax-analyze's order ----
    let pass_start = Instant::now();
    let obs_args = if wl.ingest_recorded {
        ObsArgs { ledger: Some(ledger.clone()), store: Some(store.clone()), ..Default::default() }
    } else {
        ObsArgs::default()
    };
    let (session, t_install) = time(|| obs_args.install("iotax-analyze"));
    let session = session.map_err(|e| format!("installing observability: {e}"))?;
    let (files, t_read) = time(|| read_logs(inp.trace));
    let files = files.map_err(|e| format!("reading logs: {e}"))?;
    let reader = memory_reader(&files);
    let (ingested, t_ingest) = time(|| ingest_trace_with_reader(inp.trace, &opts, &reader));
    let (jobs, report) = ingested.map_err(|e| format!("ingest failed: {e}"))?;
    let (dup, t_dup) = time(|| trace_duplicate_sets(&jobs));
    let (y, t_bound) = time(|| {
        let y: Vec<f64> = jobs.iter().map(TraceJob::log10_throughput).collect();
        black_box(app_modeling_bound(&y, &dup));
        y
    });
    let (_, t_floor) = time(|| {
        let starts: Vec<i64> = jobs.iter().map(|j| j.start_time).collect();
        let floor = concurrent_noise_floor(&y, &starts, &dup, &[], 1, 30)?;
        let mut sorted = y.clone();
        sorted.sort_by(f64::total_cmp);
        let median = sorted.get(sorted.len() / 2).copied().unwrap_or(f64::NAN);
        black_box(interval_from_floor(median, &floor, 0.68));
        let pairs: Vec<(f64, f64)> = dup
            .sets
            .iter()
            .filter(|set| set.len() >= 2)
            .flat_map(|set| {
                let vals: Vec<f64> = set.iter().filter_map(|&j| y.get(j).copied()).collect();
                let mean = vals.iter().sum::<f64>() / vals.len().max(1) as f64;
                vals.into_iter().map(move |v| (mean, v))
            })
            .collect();
        Some(empirical_coverage(&pairs, &floor, 0.68) + empirical_coverage(&pairs, &floor, 0.95))
    });
    let mut t_pass_dataset = 0.0;
    let mut t_taxonomy = 0.0;
    let mut pass_dataset = None;
    if !wl.ingest_recorded {
        let (ds, t) = time(|| trace_to_dataset(&jobs));
        t_pass_dataset = t;
        let (report, t) = run_stages(&ds, m)?;
        t_taxonomy = t;
        out.stage_metrics = Some(report.stage_metrics.clone());
        check_stage_health(&report, &mut out.problems);
        pass_dataset = Some(ds);
    }
    let (status, t_finish) = time(|| session.finish(0));
    if status != 0 {
        out.problems.push(format!("observability teardown returned {status}"));
    }
    let mut t_show = 0.0;
    if wl.ingest_recorded {
        let (shown, t) = time(|| load_show(&ledger));
        t_show = t;
        if let Err(e) = shown {
            out.problems.push(e);
        }
    }
    out.pass_s = pass_start.elapsed().as_secs_f64();

    // ---- the pass's figures, then probes for what it does not time ----
    m.set("cli.read_s", t_read, "s");
    m.set("cli.ingest_s", t_ingest, "s");
    m.set("cli.files", report.total_files as f64, "count");
    m.set("cli.salvaged", report.salvaged as f64, "count");
    m.set("cli.quarantined", report.quarantined.len() as f64, "count");
    m.set("cli.duplicates_s", t_dup, "s");
    m.set("core.app_bound_s", t_bound, "s");
    m.set("core.noise_floor_s", t_floor, "s");
    m.set("core.duplicate_sets", dup.sets.len() as f64, "count");
    out.jobs = jobs.len() as u64;
    let darshan_s = darshan_probe(&files, m);

    let probe_ds = match pass_dataset {
        Some(ds) => {
            m.set("cli.trace_to_dataset_s", t_pass_dataset, "s");
            ds
        }
        None => {
            let n = jobs.len().min(PROBE_JOBS);
            let (ds, t) = time(|| trace_to_dataset(&jobs[..n]));
            m.set("cli.trace_to_dataset_s", t, "s");
            run_stages(&ds, m)?;
            ds
        }
    };
    let (ml_s, uq_s, baseline_pct) = ml_uq_probes(&probe_ds, m);
    if let Some(stages) = &out.stage_metrics {
        let stage = stages.iter().find(|s| s.metric == "baseline_median_error_pct");
        if stage.map(|s| s.value.to_bits()) != Some(baseline_pct.to_bits()) {
            out.problems.push(format!(
                "ml replay's baseline error {baseline_pct} differs from the stage's {:?}; \
                 the replay no longer matches crates/core/src/taxonomy.rs",
                stage.map(|s| s.value)
            ));
        }
    }

    if wl.ingest_recorded {
        let rec = Recorded {
            install_s: t_install,
            ingest_s: t_ingest,
            finish_s: t_finish,
            show_s: t_show,
        };
        record_metrics(&rec, &ledger, &store, m)?;
    } else {
        // The pass arms nothing; time an armed session on the same trace,
        // last, because heap accounting stays on once installed.
        let (l2, s2) = (inp.work.join("probe-ledger"), inp.work.join("probe-store"));
        for d in [&l2, &s2] {
            let _ = std::fs::remove_dir_all(d);
        }
        let armed =
            ObsArgs { ledger: Some(l2.clone()), store: Some(s2.clone()), ..Default::default() };
        let (session, install_s) = time(|| armed.install("iotax-analyze"));
        let session = session.map_err(|e| format!("installing observability: {e}"))?;
        let (ingested, ingest_s) = time(|| ingest_trace_with_reader(inp.trace, &opts, &reader));
        if ingested.map(|(j, _)| j.len()).ok() != Some(jobs.len()) {
            out.problems.push("armed ingest recovered a different number of jobs".to_owned());
        }
        let (status, finish_s) = time(|| session.finish(0));
        if status != 0 {
            out.problems.push(format!("observability teardown returned {status}"));
        }
        let (shown, show_s) = time(|| load_show(&l2));
        if let Err(e) = shown {
            out.problems.push(e);
        }
        record_metrics(&Recorded { install_s, ingest_s, finish_s, show_s }, &l2, &s2, m)?;
    }

    // ---- where the pass's time went ----
    let covered = t_install
        + t_read
        + t_ingest
        + t_dup
        + t_bound
        + t_floor
        + t_pass_dataset
        + t_taxonomy
        + t_finish
        + t_show;
    out.coverage = covered / out.pass_s;
    let (ml_in_pass, uq_in_pass) = if wl.ingest_recorded { (0.0, 0.0) } else { (ml_s, uq_s) };
    let mut self_time = vec![
        ("obs", t_install + t_finish),
        ("cli", t_read + t_ingest - darshan_s + t_dup + t_pass_dataset),
        ("darshan", darshan_s),
        ("core", t_bound + t_floor + t_taxonomy - ml_in_pass - uq_in_pass),
        ("ml", ml_in_pass),
        ("uq", uq_in_pass),
        ("report", t_show),
    ];
    self_time.retain(|(_, t)| *t != 0.0);
    out.self_time = self_time;
    Ok(out)
}

/// All five stages must report health, in pipeline order.
fn check_stage_health(report: &TaxonomyReport, problems: &mut Vec<String>) {
    let names: Vec<&str> = report.stages.iter().map(|s| s.stage.as_str()).collect();
    let want =
        ["core.baseline", "core.app_litmus", "core.system_litmus", "core.ood", "core.noise_floor"];
    if names != want {
        problems.push(format!("stage health {names:?}, expected {want:?}"));
    }
}
