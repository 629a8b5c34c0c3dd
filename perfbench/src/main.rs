//! `iotax-perfbench`: one benchmark run of one workload. `perfbench/run.py`
//! builds the binaries and calls this; see the README for the workloads.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match iotax_perfbench::parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("iotax-perfbench: {e}");
            std::process::exit(64);
        }
    };
    match iotax_perfbench::run(&args) {
        Ok(outcome) => {
            for line in &outcome.lines {
                println!("{line}");
                eprintln!("{line}");
            }
            println!(
                "{}",
                iotax_perfbench::metrics::result_json(
                    outcome.correct,
                    outcome.attempted,
                    outcome.failed,
                    &outcome.metrics
                )
            );
        }
        Err(e) => {
            eprintln!("iotax-perfbench: {e}");
            std::process::exit(1);
        }
    }
}
