//! `spine` — the repository's benchmark: one harness through the front
//! doors of `minoaner` (cold CLI processes, a daemon over loopback
//! HTTP), with per-layer attribution from a separate traced run. See
//! README.md for the workloads, the metrics and the measured surface.
//!
//! ```text
//! spine run (--workload <name> | --all) [--seed N] [--seconds S]
//!           [--trace 0|1] [--smoke] [--out file.json]
//! spine compare A.json B.json
//! ```
//!
//! Run from the repository root. `BENCHMARK.json` records the command
//! the driver uses: `cargo run --release --manifest-path spine/Cargo.toml
//! -- run`, to which it appends `--workload … --seed … --seconds …
//! --trace …`.

mod httpc;
mod inputs;
mod layers;
mod proc;
mod profile;
mod registry;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use layers::Json;

/// The default workload seed (the paper's conference date).
const DEFAULT_SEED: u64 = 20180416;
/// Default measured window; `BENCHMARK.json` passes its `run_seconds`.
const DEFAULT_SECONDS: f64 = 12.0;
const SMOKE_SECONDS: f64 = 2.0;
/// Hard stop per workload; the contract allows a run 180 s.
const WORKLOAD_TIMEOUT: Duration = Duration::from_secs(170);

const USAGE: &str = "usage:\n  spine run (--workload <name> | --all) [--seed N] [--seconds S] \
                     [--trace 0|1] [--smoke] [--out file.json]\n  spine compare A.json B.json";

struct RunArgs {
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut workloads = Vec::new();
    let (mut seed, mut seconds, mut traced, mut smoke, mut out) =
        (DEFAULT_SEED, None, false, false, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let w = registry::workload(name).ok_or_else(|| {
                    let known: Vec<&str> = registry::WORKLOADS.iter().map(|w| w.name).collect();
                    format!("unknown workload {name:?}; the workloads are {known:?}")
                })?;
                workloads.push(w.name);
            }
            "--all" => workloads.extend(registry::WORKLOADS.iter().map(|w| w.name)),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--smoke" => smoke = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if workloads.is_empty() {
        return Err("name a workload with --workload, or pass --all".into());
    }
    Ok(RunArgs {
        workloads,
        seed,
        seconds: seconds.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        traced,
        smoke,
        out,
    })
}

/// Runs the asked workloads in sequence; `Ok(true)` when every one was
/// correct with nothing failed.
fn run(args: &RunArgs) -> Result<bool, String> {
    let exe = proc::build_program()?;
    let scratch = proc::Scratch::create()?;
    let sizing = if args.smoke {
        inputs::SMOKE
    } else {
        inputs::FULL
    };
    let env = report::environment(&scratch.fs_type());
    eprintln!(
        "spine: seed {} seconds {} trace {} smoke {} env {}",
        args.seed,
        args.seconds,
        u8::from(args.traced),
        args.smoke,
        env.compact()
    );
    let mut records = Vec::new();
    let mut all_ok = true;
    for &name in &args.workloads {
        let started = Instant::now();
        let ctx = workloads::Ctx {
            exe: &exe,
            scratch: &scratch,
            seed: args.seed,
            seconds: args.seconds,
            sizing,
            deadline: started + WORKLOAD_TIMEOUT,
        };
        let outcome = if args.traced {
            profile::run(name, &ctx)
        } else {
            workloads::run(name, &ctx)
        }
        .map_err(|e| format!("{name}: {e}"))?;
        let wall_s = started.elapsed().as_secs_f64();
        report::print_table(name, &outcome, wall_s);
        report::validate(&outcome, args.traced).map_err(|e| format!("{name}: {e}"))?;
        println!("{}", report::result_line(&outcome));
        all_ok &= outcome.correct && outcome.failed == 0;
        records.push((name.to_string(), report::workload_record(&outcome, wall_s)));
    }
    if let Some(out) = &args.out {
        let doc = Json::obj([
            ("smoke", Json::Bool(args.smoke)),
            ("traced", Json::Bool(args.traced)),
            ("seed", Json::num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds)),
            ("env", env),
            ("workloads", Json::Obj(records)),
        ]);
        std::fs::write(out, doc.pretty() + "\n")
            .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    }
    Ok(all_ok)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.split_first().map(|(cmd, rest)| (cmd.as_str(), rest)) {
        Some(("run", rest)) => run(&parse_run(rest)?),
        Some(("compare", [a, b])) => report::compare(Path::new(a), Path::new(b)),
        _ => Err(USAGE.into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("spine: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_flags_parse() {
        let a = parse_run(&args(
            "--workload serve_match --seed 7 --seconds 10 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workloads, ["serve_match"]);
        assert_eq!(
            (a.seed, a.seconds, a.traced, a.smoke),
            (7, 10.0, true, false)
        );
        let all = parse_run(&args("--all --smoke")).unwrap();
        assert_eq!(all.workloads.len(), registry::WORKLOADS.len());
        assert_eq!(
            (all.seed, all.seconds, all.traced),
            (DEFAULT_SEED, SMOKE_SECONDS, false)
        );
    }

    #[test]
    fn bad_flags_are_errors() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--all --seconds 0",
            "--all --seconds 90",
            "--all --trace 2",
            "--all --seed x",
            "--all --bogus",
        ] {
            assert!(parse_run(&args(bad)).is_err(), "{bad:?}");
        }
    }
}
