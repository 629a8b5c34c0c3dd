//! Each output check passes on a clean trace and fails on a deliberately
//! damaged input.

use iotax_cli::{export_trace, inject_faults};
use iotax_darshan::format::{parse_log, write_log};
use iotax_perfbench::checks::{self, CliOutput};
use iotax_perfbench::workload::{self, TraceSpec};
use iotax_sim::{FaultManifest, Platform, SimDataset};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// A tiny chaos trace of the taxonomy workload, written under the test
/// target directory.
fn tiny_trace(tag: &str) -> (PathBuf, SimDataset, FaultManifest) {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("checks-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    let wl = workload::find("taxonomy-theta-2k").expect("workload");
    let spec = TraceSpec::new(&wl, 0, true);
    let sim = Platform::new(spec.sim_config()).generate();
    export_trace(&sim, &dir).expect("export");
    let faults = inject_faults(&dir, &spec.fault_plan()).expect("inject");
    (dir, sim, faults)
}

fn clean_job(sim: &SimDataset, faults: &FaultManifest) -> u64 {
    let faulty: BTreeSet<u64> = faults.faults.iter().map(|f| f.job_id).collect();
    sim.jobs.iter().map(|j| j.job_id).find(|id| !faulty.contains(id)).expect("a clean job")
}

#[test]
fn clean_trace_passes_every_check() {
    let (dir, sim, faults) = tiny_trace("clean");
    let (reference, problems) = checks::reference(&dir, &sim, &faults);
    assert!(problems.is_empty(), "{problems:?}");
    assert!(reference.noise.is_some(), "the tiny trace has a noise floor");
    assert_eq!(reference.jobs_ingested + reference.quarantined.len() as u64, reference.files);
}

#[test]
fn flipped_clean_log_fails_the_round_trip() {
    let (dir, sim, faults) = tiny_trace("flip");
    let id = clean_job(&sim, &faults);
    let path = dir.join("logs").join(format!("{id}.drn"));
    let mut bytes = std::fs::read(&path).expect("read");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x10;
    std::fs::write(&path, bytes).expect("write");
    let problems = checks::check_round_trip(&dir, &sim, &faults);
    assert!(problems.iter().any(|p| p.contains(&format!("job {id}"))), "{problems:?}");
}

#[test]
fn re_encoded_counter_change_fails_round_trip_and_duplicate_checks() {
    let (dir, sim, faults) = tiny_trace("reencode");
    // A clean job that the simulator put in a duplicate group: change one
    // counter and re-encode, so the log stays valid but no longer matches.
    let faulty: BTreeSet<u64> = faults.faults.iter().map(|f| f.job_id).collect();
    let dup = iotax_core::find_duplicate_sets(&sim.jobs);
    let victim = dup
        .sets
        .iter()
        .find(|s| s.iter().filter(|&&j| !faulty.contains(&sim.jobs[j].job_id)).count() >= 2)
        .and_then(|s| s.iter().map(|&j| sim.jobs[j].job_id).find(|id| !faulty.contains(id)))
        .expect("a clean duplicate");
    let path = dir.join("logs").join(format!("{victim}.drn"));
    let mut log = parse_log(&std::fs::read(&path).expect("read")).expect("parse");
    log.posix.records[0].counters[0] += 1.0;
    std::fs::write(&path, write_log(&log)).expect("write");

    let problems = checks::check_round_trip(&dir, &sim, &faults);
    assert!(problems.iter().any(|p| p.contains("POSIX counters")), "{problems:?}");
    let (_, problems) = checks::reference(&dir, &sim, &faults);
    assert!(problems.iter().any(|p| p.contains("duplicate set")), "{problems:?}");
}

#[test]
fn manifest_row_change_fails_the_round_trip() {
    let (dir, sim, faults) = tiny_trace("manifest");
    let id = clean_job(&sim, &faults);
    let path = dir.join("manifest.csv");
    let text = std::fs::read_to_string(&path).expect("read");
    let job = sim.jobs.iter().find(|j| j.job_id == id).expect("job");
    let line = checks::manifest_line(job);
    let changed =
        line.replace(&format!("{:.6e}", job.throughput), &format!("{:.6e}", job.throughput * 1.5));
    std::fs::write(&path, text.replace(&line, &changed)).expect("write");
    let problems = checks::check_round_trip(&dir, &sim, &faults);
    assert!(problems.iter().any(|p| p.contains("manifest row")), "{problems:?}");
}

#[test]
fn accounting_rejects_unlisted_quarantine_and_lost_files() {
    let faults: BTreeSet<u64> = [3, 5].into();
    assert!(checks::check_accounting(10, &faults, 9, &[5].into()).is_ok());
    assert!(checks::check_accounting(10, &faults, 9, &[4].into()).is_err(), "4 has no fault");
    assert!(checks::check_accounting(10, &faults, 8, &[5].into()).is_err(), "a file is lost");
}

#[test]
fn duplicate_check_rejects_split_and_merged_sets() {
    assert!(checks::check_duplicates(&[
        (1, Some(0)),
        (1, Some(0)),
        (2, None),
        (3, Some(1)),
        (3, Some(1))
    ])
    .is_ok());
    assert!(checks::check_duplicates(&[(1, Some(0)), (1, Some(1))]).is_err(), "split");
    assert!(checks::check_duplicates(&[(1, Some(0)), (1, None)]).is_err(), "one left out");
    assert!(checks::check_duplicates(&[(1, Some(0)), (2, Some(0))]).is_err(), "merged");
}

#[test]
fn noise_floor_outside_the_bracket_fails() {
    assert!(checks::check_noise_sigma(0.03, 0.024).is_ok());
    assert!(checks::check_noise_sigma(0.01, 0.024).is_err());
    assert!(checks::check_noise_sigma(0.08, 0.024).is_err());
    assert!(checks::check_noise_sigma(f64::NAN, 0.024).is_err());
}

const REPORT: &str = "trace: 1993 jobs from t
ingest: 2000 files: 1792 clean, 201 salvaged (222 records), 7 quarantined, 0 retries
duplicates: 356 jobs (17.9 % of trace) in 121 sets
  expect throughput within ±5.21 % of predictions 68 % of the time
step 1  baseline model error            19.17 % (median |log10 ratio|)
step 2.1 application bound (dups)       12.83 %  [356 dups / 121 sets, 17.9 % of jobs]
step 2.2 tuned model error              21.77 %  [best: 40 trees, depth 8]
step 3.1 golden (+start time) error     19.73 %  [+12.2 % vs baseline]
step 4  OoD: 1.00 % of jobs carry 1.00 % of error (1.0× amplification)
step 5  noise floor                      3.59 %  [±5.21 % @68 %]
";

fn reference_for(report: &str) -> checks::Reference {
    let out = CliOutput::parse(report, "  quarantined job 105: truncated log at byte 21\n");
    checks::Reference {
        files: out.files.unwrap_or(0),
        fault_ids: [105, 7].into(),
        jobs_ingested: 1993,
        quarantined: [105].into(),
        dup_jobs: 356,
        dup_sets: 121,
        noise: Some((0.022, 5.2149)),
    }
}

#[test]
fn cli_report_checks_pass_on_a_consistent_report() {
    let r = reference_for(REPORT);
    let stderr: String = (0..7).map(|i| format!("  quarantined job {}: x\n", 7 + i)).collect();
    let mut r7 = r.clone();
    r7.fault_ids = (7..14).collect();
    let out = CliOutput::parse(REPORT, &stderr);
    assert_eq!(out.quarantined.len(), 7);
    assert!(
        checks::check_cli_pass(&out, &r7, true).is_empty(),
        "{:?}",
        checks::check_cli_pass(&out, &r7, true)
    );
}

#[test]
fn cli_report_checks_fail_on_damaged_reports() {
    let stderr: String = (0..7).map(|i| format!("  quarantined job {}: x\n", 7 + i)).collect();
    let mut r = reference_for(REPORT);
    r.fault_ids = (7..14).collect();
    let check = |report: &str| checks::check_cli_pass(&CliOutput::parse(report, &stderr), &r, true);
    let missing_stage = REPORT.replace("step 3.1", "stage 3.1");
    assert!(!check(&missing_stage).is_empty(), "a stage did not report");
    let bound_above_tuned = REPORT.replace("21.77 %  [best", "11.77 %  [best");
    assert!(!check(&bound_above_tuned).is_empty(), "bound above the tuned error");
    let census = REPORT.replace("in 121 sets", "in 120 sets");
    assert!(!check(&census).is_empty(), "duplicate census differs");
    let band = REPORT.replace("within ±5.21 %", "within ±5.31 %");
    assert!(!check(&band).is_empty(), "noise band differs");
    let lost = REPORT.replace("trace: 1993 jobs", "trace: 1992 jobs");
    assert!(!check(&lost).is_empty(), "a job is unaccounted for");
}
