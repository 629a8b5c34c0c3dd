//! Benchmark harness for the iotax command-line tools.
//!
//! One run measures one workload: it builds the workload's trace with
//! `iotax-gen` (set-up), then runs whole passes of the workload's commands
//! for the requested number of seconds, one at a time and with tracing
//! off, checking every pass's output against ground truth. With
//! `--trace 1` it then makes one traced pass in-process (`traced`) and
//! reports per-layer figures instead of the end-to-end ones.
//!
//! See `perfbench/README.md` for the workloads, the metrics and which
//! layer metric should move which end-to-end metric.

pub mod checks;
pub mod host;
pub mod metrics;
pub mod procs;
pub mod traced;
pub mod workload;

use checks::CliOutput;
use metrics::{median, Metrics};
use std::collections::hash_map::DefaultHasher;
use std::hash::Hasher;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{TraceSpec, Workload};

/// Times `iotax-gen` builds the trace in one run; `setup_s` is their median.
/// The first round writes the trace the passes read; the others are spread
/// evenly through the timed passes, so the median samples the same stretch
/// of host and filesystem state as `wall_s`.
pub const SETUP_ROUNDS: usize = 7;
/// Fewest timed passes a run makes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Run seed: selects the fault plan of the seeded workloads.
    pub seed: u64,
    /// Seconds of timed passes.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Directory holding `iotax-gen`, `iotax-analyze` and `iotax-report`.
    pub bin_dir: PathBuf,
    /// Scratch directory for traces and records; emptied after the run.
    pub work_dir: PathBuf,
    /// Tiny traces, for the harness's own tests.
    pub tiny: bool,
}

/// Usage line.
pub const USAGE: &str = "usage: iotax-perfbench --workload NAME --seed N --seconds S --trace 0|1 \
                         --bin-dir DIR --work-dir DIR [--tiny]";

/// Parses the arguments after the program name.
pub fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut it = argv.iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut bin_dir, mut work_dir, mut tiny) = (None, None, false);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value ({USAGE})"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::find(value).ok_or_else(|| bad(&"unknown workload"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--bin-dir" => bin_dir = Some(PathBuf::from(value)),
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag} ({USAGE})")),
        }
    }
    let need = |name: &str| format!("{name} is required ({USAGE})");
    let seconds = seconds.ok_or_else(|| need("--seconds"))?;
    if !(seconds.is_finite() && seconds >= 0.0) {
        return Err("--seconds must be a non-negative number".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or_else(|| need("--workload"))?,
        seed: seed.ok_or_else(|| need("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| need("--trace"))?,
        bin_dir: bin_dir.ok_or_else(|| need("--bin-dir"))?,
        work_dir: work_dir.ok_or_else(|| need("--work-dir"))?,
        tiny,
    })
}

/// A run's result: what the last stdout line reports, plus summary lines
/// printed before it.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every check passed on every operation that did not fail.
    pub correct: bool,
    /// Operations attempted: set-up rounds and command passes.
    pub attempted: u64,
    /// Operations that exited non-zero.
    pub failed: u64,
    /// Reported metrics.
    pub metrics: Metrics,
    /// Human-readable summary and every check failure.
    pub lines: Vec<String>,
}

/// Hash of every file under `dir` (relative names and contents), in name
/// order; equal digests mean byte-identical trees.
pub fn digest_dir(dir: &Path) -> u64 {
    fn walk(dir: &Path, rel: &Path, h: &mut DefaultHasher) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        let mut names: Vec<_> = entries.filter_map(Result::ok).map(|e| e.file_name()).collect();
        names.sort();
        for name in names {
            let path = dir.join(&name);
            let rel = rel.join(&name);
            h.write(rel.to_string_lossy().as_bytes());
            if path.is_dir() {
                walk(&path, &rel, h);
            } else {
                h.write(&std::fs::read(&path).unwrap_or_default());
            }
        }
    }
    let mut h = DefaultHasher::new();
    walk(dir, Path::new(""), &mut h);
    h.finish()
}

/// The workload's binaries.
struct Bins {
    gen: PathBuf,
    analyze: PathBuf,
    report: PathBuf,
}

/// One pass of the workload's commands.
struct Pass {
    wall_s: f64,
    cpu_s: f64,
    maxrss_kb: u64,
    ok: bool,
    stdout: String,
    parsed: CliOutput,
    problems: Vec<String>,
}

fn read_text(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// Runs `iotax-gen` once, writing the trace to `dir`; returns its wall time.
fn gen_round(bins: &Bins, spec: &TraceSpec, dir: &Path, work: &Path) -> Result<f64, String> {
    let gen_args = spec.gen_args(&dir.to_string_lossy());
    let argv: Vec<&str> = gen_args.iter().map(String::as_str).collect();
    let (out, err) = (work.join("gen.out"), work.join("gen.err"));
    let m = procs::run(&bins.gen, &argv, &out, &err).map_err(|e| e.to_string())?;
    if !m.ok() {
        return Err(format!("iotax-gen exited {:?}: {}", m.exit_code, read_text(&err)));
    }
    Ok(m.wall_s)
}

/// Runs `iotax-analyze` (and, on the recorded workload, `iotax-report
/// show` on the record it wrote) once. The output is checked against the
/// reference later: the harness stays small while passes run, because a
/// child inherits its parent's resident-set high-water mark.
fn cli_pass(bins: &Bins, wl: &Workload, trace: &Path, work: &Path) -> Result<Pass, String> {
    let ledger = work.join("ledger");
    let store = work.join("store");
    for d in [&ledger, &store] {
        let _ = std::fs::remove_dir_all(d);
    }
    let path = |p: &Path| p.to_string_lossy().into_owned();
    let mut args = vec![path(trace)];
    if wl.ingest_recorded {
        args.extend([
            "--stats-only".into(),
            "--ledger".into(),
            path(&ledger),
            "--store".into(),
            path(&store),
        ]);
    }
    let (out, err) = (work.join("analyze.out"), work.join("analyze.err"));
    let argv: Vec<&str> = args.iter().map(String::as_str).collect();
    let m = procs::run(&bins.analyze, &argv, &out, &err).map_err(|e| e.to_string())?;
    let stdout = read_text(&out);
    let mut pass = Pass {
        wall_s: m.wall_s,
        cpu_s: m.cpu_s,
        maxrss_kb: m.maxrss_kb,
        ok: m.ok(),
        stdout: String::new(),
        parsed: CliOutput::default(),
        problems: Vec::new(),
    };
    if !pass.ok {
        return Ok(pass);
    }
    pass.parsed = CliOutput::parse(&stdout, &read_text(&err));
    if wl.ingest_recorded {
        let (sout, serr) = (work.join("show.out"), work.join("show.err"));
        let show = procs::run(&bins.report, &["show", &path(&ledger)], &sout, &serr)
            .map_err(|e| e.to_string())?;
        pass.wall_s += show.wall_s;
        pass.cpu_s += show.cpu_s;
        pass.ok = show.ok();
        if pass.ok {
            pass.problems.extend(check_record(&ledger, &store, &read_text(&sout)));
        }
    }
    pass.stdout = stdout;
    Ok(pass)
}

/// The record a recorded pass wrote: `run.json` in the ledger, the same
/// run as the store's only record, and `iotax-report show` naming it.
fn check_record(ledger: &Path, store: &Path, shown: &str) -> Vec<String> {
    let run = match iotax_obs::load_run(ledger) {
        Ok(run) => run,
        Err(e) => return vec![format!("run record unreadable: {e}")],
    };
    let mut problems = Vec::new();
    if run.manifest.exit_status != 0 {
        problems.push(format!("run record exit status {}", run.manifest.exit_status));
    }
    match iotax_report::store_runs(store) {
        Ok(runs) if runs.len() == 1 && runs[0].manifest.run_id == run.manifest.run_id => {}
        Ok(runs) => problems.push(format!("store holds {} runs, expected this one", runs.len())),
        Err(e) => problems.push(format!("store unreadable: {e}")),
    }
    if !shown.contains(&run.manifest.run_id) {
        problems.push("iotax-report show did not name the recorded run".to_owned());
    }
    problems
}

/// Runs one benchmark run.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let run_start = Instant::now();
    let host_start = host::sample();
    let wl = args.workload;
    let spec = TraceSpec::new(&wl, args.seed, args.tiny);
    let bins = Bins {
        gen: args.bin_dir.join("iotax-gen"),
        analyze: args.bin_dir.join("iotax-analyze"),
        report: args.bin_dir.join("iotax-report"),
    };
    let work = args.work_dir.join(format!("{}-{}", wl.name, std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = measure(args, &wl, &spec, &bins, &work);
    let _ = std::fs::remove_dir_all(&work);
    // Leave the shared work directory behind only if other runs use it.
    let _ = std::fs::remove_dir(&args.work_dir);
    let mut outcome = result?;
    let noise =
        host::HostNoise::between(host_start, host::sample(), run_start.elapsed().as_secs_f64());
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    outcome.lines.push(noise.line(cpus));
    if args.trace {
        outcome.metrics.set("host.steal_s", noise.steal_s, "s");
        outcome.metrics.set("host.load_avg", noise.load_end, "load");
    }
    Ok(outcome)
}

fn measure(
    args: &Args,
    wl: &Workload,
    spec: &TraceSpec,
    bins: &Bins,
    work: &Path,
) -> Result<Outcome, String> {
    let mut o = Outcome { correct: true, ..Default::default() };
    let mut problems: Vec<String> = Vec::new();

    // Set-up: iotax-gen builds the trace the passes read, then builds it
    // again SETUP_ROUNDS - 1 times, spread evenly through the timed passes.
    let trace = work.join("trace");
    let extra = work.join("trace-extra");
    let mut setup = vec![gen_round(bins, spec, &trace, work)?];
    o.attempted += 1;
    let digest = digest_dir(&trace);

    // Timed passes, one at a time, after one untimed warm-up pass.
    let mut passes: Vec<Pass> = Vec::new();
    let mut timed_start = None;
    loop {
        let elapsed = timed_start.map_or(0.0, |t: Instant| t.elapsed().as_secs_f64());
        let due = setup.len() as f64 * args.seconds / SETUP_ROUNDS as f64;
        if timed_start.is_some() && setup.len() < SETUP_ROUNDS && elapsed >= due {
            setup.push(gen_round(bins, spec, &extra, work)?);
            o.attempted += 1;
            if digest_dir(&extra) != digest {
                problems.push(format!("iotax-gen round {} wrote a different trace", setup.len()));
            }
            let _ = std::fs::remove_dir_all(&extra);
            continue;
        }
        let pass = cli_pass(bins, wl, &trace, work)?;
        o.attempted += 1;
        o.failed += u64::from(!pass.ok);
        passes.push(pass);
        let start = *timed_start.get_or_insert_with(Instant::now);
        if passes.len() > MIN_PASSES
            && setup.len() == SETUP_ROUNDS
            && start.elapsed().as_secs_f64() >= args.seconds
        {
            break;
        }
    }

    // Ground truth, computed apart from the program's outputs, and the
    // checks of every pass (the warm-up's too) against it.
    let sim = iotax_sim::Platform::new(spec.sim_config()).generate();
    let faults = iotax_cli::ingest::load_fault_manifest(&trace).map_err(|e| e.to_string())?;
    if faults.seed != spec.fault_seed || faults.jobs_seen != spec.jobs as u64 {
        problems.push(format!(
            "faults.json: seed {} over {} logs, expected {} over {}",
            faults.seed, faults.jobs_seen, spec.fault_seed, spec.jobs
        ));
    }
    let (reference, ground) = checks::reference(&trace, &sim, &faults);
    problems.extend(ground);
    drop(sim);
    let ok: Vec<&Pass> = passes.iter().filter(|p| p.ok).collect();
    for pass in &ok {
        problems.extend(pass.problems.iter().cloned());
        problems.extend(checks::check_cli_pass(&pass.parsed, &reference, !wl.ingest_recorded));
        if pass.stdout != ok[0].stdout {
            problems.push("iotax-analyze printed different output on the same trace".to_owned());
        }
    }
    let timed: Vec<&Pass> = passes.iter().skip(1).filter(|p| p.ok).collect();
    let walls: Vec<f64> = timed.iter().map(|p| p.wall_s).collect();
    let untraced_median = median(&walls);
    let jobs = ok.first().and_then(|p| p.parsed.jobs).unwrap_or(reference.jobs_ingested);
    o.lines.push(format!(
        "{}: {} timed passes, wall median {:.4} s (min {:.4}, max {:.4}), cpu median {:.4} s; \
         set-up median {:.4} s of {:?}; {} jobs ingested",
        wl.name,
        timed.len(),
        untraced_median,
        walls.iter().copied().fold(f64::INFINITY, f64::min),
        walls.iter().copied().fold(0.0, f64::max),
        median(&timed.iter().map(|p| p.cpu_s).collect::<Vec<_>>()),
        median(&setup),
        setup.iter().map(|s| (s * 1e4).round() / 1e4).collect::<Vec<_>>(),
        jobs,
    ));

    if args.trace {
        let traced =
            traced::run(&traced::Input { workload: *wl, spec: *spec, trace: &trace, work })?;
        o.attempted += 1;
        problems.extend(traced.problems.iter().cloned());
        if traced.jobs != jobs {
            problems.push(format!("traced pass ingested {} jobs, the CLI {jobs}", traced.jobs));
        }
        if !wl.ingest_recorded {
            o.attempted += 1;
            problems.extend(compare_stage_metrics(
                bins,
                &trace,
                work,
                traced.stage_metrics.as_deref(),
            )?);
        }
        o.metrics.extend(&traced.metrics);
        o.metrics.set("trace.overhead_s", traced.pass_s - untraced_median, "s");
        o.metrics.set("trace.coverage", traced.coverage, "ratio");
        o.lines.push(format!(
            "traced pass {:.4} s vs untraced median {:.4} s: tracing overhead {:+.4} s; \
             timed calls cover {:.1} %",
            traced.pass_s,
            untraced_median,
            traced.pass_s - untraced_median,
            traced.coverage * 100.0
        ));
        o.lines.push("where the traced pass's time went (self time per crate):".to_owned());
        let covered: f64 = traced.self_time.iter().map(|(_, t)| t).sum();
        for (name, t) in &traced.self_time {
            o.lines.push(format!("  {name:<10} {t:>9.4} s  {:>5.1} %", t / traced.pass_s * 100.0));
        }
        let rest = traced.pass_s - covered;
        o.lines.push(format!(
            "  {:<10} {rest:>9.4} s  {:>5.1} %",
            "uncovered",
            rest / traced.pass_s * 100.0
        ));
        if !wl.ingest_recorded {
            o.lines.push(
                "  (core keeps the ml work the harness does not replay: the tuned refit and \
                 the golden-model fits)"
                    .to_owned(),
            );
        }
    } else {
        o.metrics.set("wall_s", untraced_median, "s");
        o.metrics.set("setup_s", median(&setup), "s");
        let rss: Vec<f64> = timed.iter().map(|p| p.maxrss_kb as f64 / 1024.0).collect();
        o.metrics.set("peak_rss_mb", median(&rss), "MB");
        o.metrics.set("jobs_ingested", jobs as f64, "count");
    }
    if timed.is_empty() {
        problems.push("no timed pass exited 0".to_owned());
    }
    o.correct = problems.is_empty();
    o.lines.extend(problems.iter().map(|p| format!("CHECK FAILED: {p}")));
    Ok(o)
}

/// The traced pass's stage metrics must be bit-identical to the ones the
/// CLI records for the same trace.
fn compare_stage_metrics(
    bins: &Bins,
    trace: &Path,
    work: &Path,
    traced: Option<&[iotax_core::StageMetric]>,
) -> Result<Vec<String>, String> {
    let ledger = work.join("stage-ledger");
    let _ = std::fs::remove_dir_all(&ledger);
    let (t, l) = (trace.to_string_lossy(), ledger.to_string_lossy());
    let m = procs::run(
        &bins.analyze,
        &[&t, "--ledger", &l],
        &work.join("sm.out"),
        &work.join("sm.err"),
    )
    .map_err(|e| e.to_string())?;
    if !m.ok() {
        return Ok(vec![format!("iotax-analyze --ledger exited {:?}", m.exit_code)]);
    }
    let run = iotax_obs::load_run(&ledger).map_err(|e| e.to_string())?;
    let recorded: Vec<(String, String, u64)> = run
        .section::<serde::Value>("stage_metrics")
        .and_then(|v| {
            v.as_array().map(|a| {
                a.iter()
                    .filter_map(|m| {
                        Some((
                            m.get("stage")?.as_str()?.to_owned(),
                            m.get("metric")?.as_str()?.to_owned(),
                            m.get("value")?.as_f64()?.to_bits(),
                        ))
                    })
                    .collect()
            })
        })
        .unwrap_or_default();
    let traced: Vec<(String, String, u64)> = traced
        .unwrap_or_default()
        .iter()
        .map(|m| (m.stage.clone(), m.metric.clone(), m.value.to_bits()))
        .collect();
    let stages = run.section::<serde::Value>("stages");
    let n_stages = stages.as_ref().and_then(|v| v.as_array().map(<[_]>::len)).unwrap_or(0);
    let mut problems = Vec::new();
    if recorded.is_empty() || recorded != traced {
        problems.push(format!(
            "stage metrics differ between the traced pass ({} values) and the CLI ({} values)",
            traced.len(),
            recorded.len()
        ));
    }
    if n_stages != 5 {
        problems.push(format!("the CLI recorded health for {n_stages} stages, expected 5"));
    }
    Ok(problems)
}
