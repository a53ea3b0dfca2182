//! `perfbench-probe`: runs one benchmark workload against the built
//! `adya-check` / `adya-serve` binaries and prints the result line.
//!
//! ```text
//! perfbench-probe run --workload W --seed N --seconds S --trace 0|1
//!                     --bin-dir DIR --work DIR --cache DIR
//! perfbench-probe gen --workload W --seed N     # first input to stdout
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no tracing;
//! `--trace 1` is the separate traced run that times each layer's
//! public functions from outside. Exit status is non-zero when a
//! correctness gate fails.

mod e2e;
mod inputs;
mod layers;
mod server;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use inputs::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: perfbench-probe run --workload W --seed N --seconds S --trace 0|1 \
         --bin-dir DIR --work DIR --cache DIR\n       perfbench-probe gen --workload W --seed N"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        return usage();
    };
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(w) = flag("--workload").as_deref().and_then(Workload::parse) else {
        return usage();
    };
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    match cmd.as_str() {
        "gen" => {
            if w == Workload::ServeRepl {
                let mut out = String::new();
                for s in 0..e2e::SESSIONS as u64 {
                    let mut g = inputs::SessionGen::new(seed, s);
                    for _ in 0..1000 {
                        for t in g.next_txn() {
                            out.push_str(&t);
                            out.push('\n');
                        }
                    }
                }
                print!("{out}");
            } else {
                // The run's first history (each is its own stream).
                print!("{}", inputs::stream_tokens(w, w.history_seeds(seed)[0]));
            }
            ExitCode::SUCCESS
        }
        "run" => {
            let (Some(seconds), Some(trace), Some(bin_dir), Some(work), Some(cache)) = (
                flag("--seconds").and_then(|s| s.parse::<f64>().ok()),
                flag("--trace"),
                flag("--bin-dir"),
                flag("--work"),
                flag("--cache"),
            ) else {
                return usage();
            };
            let ctx = e2e::Ctx {
                bin_dir: PathBuf::from(bin_dir),
                work: PathBuf::from(work),
                cache: PathBuf::from(cache),
                seed,
                seconds,
            };
            let result = match (trace.as_str(), w) {
                ("0", Workload::ServeRepl) => e2e::serve(&ctx),
                ("0", _) => e2e::stream(&ctx, w),
                ("1", _) => layers::traced(&ctx, w),
                _ => return usage(),
            };
            match result {
                Ok(outcome) => {
                    let ok = outcome.correct;
                    outcome.print();
                    if ok {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => {
                    eprintln!("perfbench: {}: {e}", w.name());
                    ExitCode::from(2)
                }
            }
        }
        _ => usage(),
    }
}
