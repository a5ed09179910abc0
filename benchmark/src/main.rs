//! Command line of the benchmark; see `README.md`.

use parcoll_benchmark::child::{self, ChildArgs};
use parcoll_benchmark::spec::{find, specs, Scale, DEFAULT_SEED};
use parcoll_benchmark::{compare, driver, metrics};
use simtrace::json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: parcoll-benchmark [--seed S] [--seconds T] [--out FILE]   run every workload, print every metric, write the result set
       parcoll-benchmark --workload W --seed S --seconds T --trace 0|1   one workload; last line is the result as JSON
       parcoll-benchmark --compare A.json B.json                    A/B two complete result sets; non-zero exit on a breach
       parcoll-benchmark --manifest                                 print BENCHMARK.json
smoke runs only (result set stamped partial): --iters N, --mini";

#[derive(Default)]
struct Cli {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    iters: Option<usize>,
    trace: bool,
    mini: bool,
    child: bool,
    manifest: bool,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => cli.workload = Some(value("a workload name")?),
            "--seed" => {
                cli.seed = Some(
                    parse_seed(&value("a number")?)
                        .ok_or("--seed needs a whole number (decimal or 0x hex)")?,
                )
            }
            "--seconds" => {
                cli.seconds = Some(
                    value("a number")?
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                        .ok_or("--seconds needs a number ≥ 0")?,
                );
            }
            "--iters" => {
                cli.iters = Some(
                    value("a count")?
                        .parse()
                        .map_err(|_| "--iters needs a whole number")?,
                )
            }
            "--trace" => {
                cli.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".to_string()),
                }
            }
            "--out" => cli.out = Some(value("a file")?.into()),
            "--compare" => {
                cli.compare = Some((
                    value("two result sets")?.into(),
                    value("two result sets")?.into(),
                ))
            }
            "--mini" => cli.mini = true,
            "--child" => cli.child = true,
            "--manifest" => cli.manifest = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(cli)
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))
}

fn run(started: Instant) -> Result<ExitCode, String> {
    let cli = parse_cli()?;
    let scale = if cli.mini { Scale::Mini } else { Scale::Full };
    let all = specs(scale);

    if cli.manifest {
        let workloads: Vec<(&str, &str)> = all.iter().map(|s| (s.name, s.why)).collect();
        print!("{}", metrics::manifest(&workloads));
        return Ok(ExitCode::SUCCESS);
    }
    if let Some((a, b)) = &cli.compare {
        let rows = compare::compare(&read_json(a)?, &read_json(b)?)?;
        return Ok(if compare::report(&rows) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    driver::check_environment(scale)?;
    let args = driver::RunArgs {
        seed: cli.seed.unwrap_or(DEFAULT_SEED),
        seconds: cli.seconds.unwrap_or(metrics::RUN_SECONDS as f64),
        iters: cli.iters,
        scale,
    };
    let named = |name: &str| find(name, scale).ok_or_else(|| format!("unknown workload {name}"));

    if cli.child {
        let spec = named(cli.workload.as_deref().ok_or("--child needs --workload")?)?;
        let child_args = ChildArgs {
            seed: args.seed,
            seconds: args.seconds,
            iters: args.iters,
            trace: cli.trace,
            scale,
            out_dir: driver::out_dir(),
            spec,
        };
        println!("{}", child::run(&child_args, started).compact());
        return Ok(ExitCode::SUCCESS);
    }

    if let Some(name) = &cli.workload {
        // One workload, one kind of run: the benchmark contract's entry.
        let spec = named(name)?;
        driver::print_header(&driver::provenance(&args, true));
        let result = if cli.trace {
            driver::measure_layers(&spec, &args)
        } else {
            driver::measure_end_to_end(&spec, &args)
        };
        driver::print_workload(&spec, &result);
        println!("{}", driver::contract_line(&result, cli.trace)?);
        return Ok(ExitCode::SUCCESS);
    }

    // Every workload, both kinds of run; a complete result set unless a
    // smoke option shortened it.
    let partial = cli.iters.is_some() || cli.mini;
    let header = driver::provenance(&args, partial);
    driver::print_header(&header);
    let mut results = Vec::new();
    for spec in &all {
        let result = driver::merge(
            driver::measure_end_to_end(spec, &args),
            driver::measure_layers(spec, &args),
        );
        driver::print_workload(spec, &result);
        results.push((spec, result));
    }
    let path = cli
        .out
        .unwrap_or_else(|| driver::out_dir().join("results.json"));
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, driver::result_set(header, &results).pretty() + "\n")
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("\nresult set written to {}", path.display());
    let correct = results.iter().all(|(_, r)| r.correct());
    println!(
        "outputs {}",
        if correct {
            "correct: every leg execution passed its checks"
        } else {
            "NOT correct"
        }
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let started = Instant::now();
    run(started).unwrap_or_else(|why| {
        eprintln!("parcoll-benchmark: {why}\n{USAGE}");
        ExitCode::FAILURE
    })
}
