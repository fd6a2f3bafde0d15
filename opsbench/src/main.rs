//! `opsbench` — the repo's end-to-end + per-layer serving benchmark.
//!
//! `opsbench --workload <name> --seed <u64> --seconds <n> --trace <0|1>`
//! runs one workload in one process (so `peak_rss_mb` is per workload),
//! checks its outputs, and prints two JSON lines: a *detail* line
//! (stamp, quartiles, sample counts, violations) and, last, the result
//! line `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! prints every end-to-end metric; `--trace 1` is a separate traced run
//! that prints every per-layer metric and writes the in-memory spans
//! next to the executable. `opsbench compare <a> <b>` judges two files
//! of detail lines against the bounds. See `README.md` beside the
//! manifest for why each workload exists and how to compare commits.

mod compare;
mod e2e;
mod host;
mod inputs;
mod layers;
mod metrics;
mod staged;
mod summary;
mod trace;
mod traced;
mod workloads;

use e2e::RunResult;
use serde_json::{json, Map, Value};
use std::process::ExitCode;
use workloads::Workload;

/// A parsed command line.
#[derive(Debug, PartialEq)]
enum Command {
    Run {
        workload: Workload,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    Compare {
        parent: String,
        change: String,
    },
}

const USAGE: &str = "usage: opsbench --workload <replay_sim|replay_live|infer_serving|managed_surge|closed_overload> \
--seed <u64> [--seconds <1..60>] [--trace <0|1>]\n       opsbench compare <parent.json> <change.json>";

/// Parse the arguments after the program name. Unknown workloads, flags
/// and values are errors, never defaults.
fn parse_args(args: &[String]) -> Result<Command, String> {
    if args.first().map(String::as_str) == Some("compare") {
        return match args {
            [_, parent, change] => Ok(Command::Compare {
                parent: parent.clone(),
                change: change.clone(),
            }),
            _ => Err("compare takes exactly two files".to_string()),
        };
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed `{value}`: {e}"))?,
                );
            }
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| (1.0..=60.0).contains(s))
                    .ok_or_else(|| format!("--seconds `{value}`: expected 1..60"))?;
            }
            "--trace" => {
                trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace `{value}`: expected 0 or 1")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

/// `{"name": {"value": v, "unit": u}}` for every metric of a run, units
/// looked up in the tables.
fn metrics_json(result: &RunResult) -> Value {
    let mut map = Map::new();
    for (name, value) in &result.metrics {
        map.insert(
            (*name).to_string(),
            json!({ "value": *value, "unit": metrics::unit_of(name) }),
        );
    }
    Value::Object(map)
}

/// Print one JSON line, ignoring a closed pipe: `| head -1` is a fair way
/// to read the detail line, and the exit code still carries the verdict.
fn print_line(value: &Value) {
    use std::io::Write;
    let text = serde_json::to_string(value).expect("values serialize");
    let _ = writeln!(std::io::stdout(), "{text}");
}

fn run(workload: Workload, seed: u64, seconds: f64, trace: bool) -> ExitCode {
    let result = if trace {
        traced::run(workload, seed, 1.0)
    } else {
        e2e::run(workload, seed, seconds, 1.0)
    };
    let metrics = metrics_json(&result);
    print_line(&json!({
        "opsbench": 1,
        "workload": workload.name(),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "stamp": host::stamp(),
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics.clone(),
        "detail": result.detail,
    }));
    print_line(&json!({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }));
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run {
            workload,
            seed,
            seconds,
            trace,
        }) => run(workload, seed, seconds, trace),
        Ok(Command::Compare { parent, change }) => compare::run(&parent, &change),
        Err(message) => {
            eprintln!("opsbench: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Logical-duration scale of the smoke tests: a few thousand requests
    /// per workload. A test-only constant — the binary always runs at 1.0.
    const TEST_SCALE: f64 = 0.01;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let parsed = parse_args(&args(
            "--workload managed_surge --seed 7 --seconds 10 --trace 1",
        ));
        assert_eq!(
            parsed,
            Ok(Command::Run {
                workload: Workload::ManagedSurge,
                seed: 7,
                seconds: 10.0,
                trace: true,
            })
        );
        assert_eq!(
            parse_args(&args("compare a.json b.json")),
            Ok(Command::Compare {
                parent: "a.json".into(),
                change: "b.json".into(),
            })
        );
    }

    #[test]
    fn unknown_workloads_flags_and_values_are_errors() {
        for bad in [
            "--workload replay --seed 1",
            "--workload replay_sim --seed 1 --scale 0.1",
            "--workload replay_sim --seed minus-one",
            "--workload replay_sim --seed 1 --trace 2",
            "--workload replay_sim --seed 1 --seconds 0",
            "--workload replay_sim --seed",
            "--workload replay_sim",
            "--seed 1",
            "compare only-one.json",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "`{bad}` must be refused");
        }
    }

    fn names(result: &RunResult) -> Vec<&'static str> {
        result.metrics.iter().map(|(name, _)| *name).collect()
    }

    #[test]
    fn every_workload_smokes_clean_and_emits_every_end_to_end_metric() {
        let expected: Vec<&str> = metrics::END_TO_END.iter().map(|m| m.name).collect();
        for workload in Workload::ALL {
            let result = e2e::run(workload, 11, 0.0, TEST_SCALE);
            assert!(
                result.correct,
                "{}: {}",
                workload.name(),
                serde_json::to_string(&result.detail).unwrap()
            );
            assert_eq!(result.failed, 0, "{}", workload.name());
            assert!(result.attempted > 0, "{}", workload.name());
            assert_eq!(names(&result), expected, "{}", workload.name());
            for (name, value) in &result.metrics {
                // CPU time ticks in 10 ms steps: a tiny debug run may read 0.
                let floor_ok = *value > 0.0 || *name == "cpu_us_per_req";
                assert!(
                    value.is_finite() && floor_ok,
                    "{}: {name} = {value}",
                    workload.name()
                );
            }
        }
    }

    #[test]
    fn every_workload_traces_validly_and_emits_every_per_layer_metric() {
        let expected: Vec<&str> = metrics::PER_LAYER.iter().map(|m| m.name).collect();
        for workload in Workload::ALL {
            let result = traced::run(workload, 11, TEST_SCALE);
            assert!(
                result.correct,
                "{}: {}",
                workload.name(),
                serde_json::to_string(&result.detail).unwrap()
            );
            assert_eq!(result.failed, 0, "{}", workload.name());
            assert_eq!(names(&result), expected, "{}", workload.name());
            let value = |name: &str| {
                result
                    .metrics
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, v)| *v)
                    .expect("name is in the table")
            };
            assert!(value("engine.e2e_ns") > 0.0);
            assert!(value("gateway.admit_calls") > 0.0);
            // A layer off the workload's path reads 0; one on it does not.
            assert_eq!(
                value("exec.handoff_ns") > 0.0,
                workload == Workload::ReplayLive
            );
            assert_eq!(
                value("serve.predict_share") > 0.0,
                workload == Workload::InferServing
            );
            assert_eq!(
                value("closedloop.retry_amp") > 0.0,
                workload == Workload::ClosedOverload
            );
        }
    }
}
