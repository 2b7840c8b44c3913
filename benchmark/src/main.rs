//! One benchmark for the whole system.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! benchmark [--quick] [--seed <n>] [--seconds <s>] [--out <file>]
//! benchmark compare <a.json> <b.json>
//! ```
//!
//! The first form runs one workload in this process and prints its
//! metrics, the result line last. The second runs every workload, each
//! in a process of its own, untraced and then traced, and writes the
//! result lines to a file the third form compares. See `README.md`.

mod gen;
mod harness;
mod metrics;
mod report;
mod serve_bench;
mod sim_bench;
mod stats;
mod trace;

use std::process::{Command, ExitCode};

use gen::Size;
use metrics::WORKLOADS;

/// Seconds a run measures for, as `BENCHMARK.json`'s `run_seconds`.
const RUN_SECONDS: f64 = 15.0;
const QUICK_SECONDS: f64 = 0.6;
const DEFAULT_SEED: u64 = 1989;

const USAGE: &str = "usage:
  benchmark --workload <sim_grid|sim_scale|serve_cold|serve_warm> [--seed N] [--seconds S] [--trace 0|1] [--quick]
  benchmark [--workload all] [--seed N] [--seconds S] [--quick] [--out FILE]
  benchmark compare A.json B.json";

struct Args {
    workload: String,
    seed: u64,
    seconds: Option<f64>,
    traced: bool,
    quick: bool,
    out: Option<String>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: "all".into(),
        seed: DEFAULT_SEED,
        seconds: None,
        traced: false,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} requires a value"));
        match flag.as_str() {
            "--workload" => parsed.workload = value()?.clone(),
            "--seed" => parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                parsed.seconds = Some(s);
            }
            "--trace" => {
                parsed.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--quick" => parsed.quick = true,
            "--out" => parsed.out = Some(value()?.clone()),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if parsed.workload != "all" && !WORKLOADS.contains(&parsed.workload.as_str()) {
        return Err(format!("unknown workload `{}`", parsed.workload));
    }
    Ok(parsed)
}

fn nproc() -> usize {
    datasync_core::par::available_threads()
}

/// Runs one workload in this process; prints the metrics, the result
/// line last. True when every check passed.
fn run_one(args: &Args) -> bool {
    let size = if args.quick { Size::QUICK } else { Size::FULL };
    let seconds = args.seconds.unwrap_or(if args.quick { QUICK_SECONDS } else { RUN_SECONDS });
    let (mut report, spans) = match args.workload.as_str() {
        "sim_grid" => sim_bench::run_grid(args.seed, seconds, args.traced, &size),
        "sim_scale" => sim_bench::run_scale(seconds, args.traced, &size),
        "serve_cold" => serve_bench::run_cold(args.seed, seconds, args.traced, &size),
        _ => serve_bench::run_warm(args.seed, seconds, args.traced, &size),
    };
    if args.traced {
        report
            .values
            .set("core.threads", datasync_core::par::default_threads() as f64, 1);
        let path = serve_bench::out_dir().join(format!("trace-{}.json", args.workload));
        let written = std::fs::create_dir_all(serve_bench::out_dir())
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&spans)));
        match written {
            Ok(()) => report.notes.push(format!("trace written to {}", path.display())),
            Err(e) => report.check(Err(format!("cannot write {}: {e}", path.display()))),
        }
    }
    print!("{}", report.human(&args.workload, args.traced));
    println!("{}", report.json_line(args.traced));
    report.correct()
}

/// Runs every workload, untraced then traced, each in its own process
/// (so `peak_rss_mb` is the workload's own), and writes the result
/// file.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find myself: {e}"))?;
    let seconds = args.seconds.unwrap_or(if args.quick { QUICK_SECONDS } else { RUN_SECONDS });
    let mut lines = vec![format!(
        "{{\"benchmark\": 1, \"quick\": {}, \"seed\": {}, \"seconds\": {seconds}, \"nproc\": {}, \
         \"threads\": {}, \"runs\": [",
        args.quick,
        args.seed,
        nproc(),
        datasync_core::par::default_threads()
    )];
    let mut all_correct = true;
    for workload in WORKLOADS {
        for traced in [false, true] {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload, "--seed", &args.seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.quick {
                cmd.arg("--quick");
            }
            let output = cmd.output().map_err(|e| format!("cannot run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            eprint!("{}", String::from_utf8_lossy(&output.stderr));
            let (table, result) = stdout.trim_end().rsplit_once('\n').unwrap_or(("", ""));
            println!("{table}");
            if !result.starts_with("{\"correct\"") {
                return Err(format!("{workload} printed no result line (exit {})", output.status));
            }
            all_correct &= output.status.success();
            lines.push(format!("{},", report::file_line(workload, traced, result)));
        }
    }
    if let Some(last) = lines.last_mut() {
        last.pop();
    }
    lines.push("]}".into());
    let out = args.out.clone().map_or_else(
        || serve_bench::out_dir().join(if args.quick { "quick.json" } else { "results.json" }),
        std::path::PathBuf::from,
    );
    if let Some(dir) = out.parent() {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    std::fs::write(&out, lines.join("\n") + "\n")
        .map_err(|e| format!("cannot write {}: {e}", out.display()))?;
    println!(
        "{} run on {} hardware thread(s), seed {}; results in {}",
        if args.quick { "quick (smoke, not a measurement)" } else { "full" },
        nproc(),
        args.seed,
        out.display()
    );
    Ok(all_correct)
}

fn compare(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        let runs = report::parse_file(&text);
        if runs.is_empty() {
            return Err(format!("{path} holds no runs"));
        }
        Ok(runs)
    };
    let (table, ok) = report::compare(&read(a)?, &read(b)?);
    print!("{table}");
    Ok(ok)
}

fn main() -> ExitCode {
    // The sweeps fan out through `core::par`; pin its width to the host
    // so a stray environment does not change what is measured.
    std::env::set_var("DATASYNC_THREADS", nproc().to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => compare(&args[1], &args[2]),
        Some("compare") => Err("compare takes two result files".into()),
        _ => parse_args(&args).and_then(|parsed| {
            if parsed.workload == "all" {
                run_all(&parsed)
            } else {
                Ok(run_one(&parsed))
            }
        }),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("error: {why}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metrics::{END_TO_END, PER_LAYER};

    fn strings(words: &[&str]) -> Vec<String> {
        words.iter().map(|w| (*w).to_string()).collect()
    }

    #[test]
    fn the_driver_s_arguments_parse() {
        let a = parse_args(&strings(&[
            "--workload",
            "serve_warm",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("parses");
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("serve_warm", 7, Some(10.0), true)
        );
        assert!(parse_args(&strings(&["--workload", "nope"])).is_err());
        assert!(parse_args(&strings(&["--seed"])).is_err());
        assert!(parse_args(&strings(&["--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--seconds", "0"])).is_err());
        assert_eq!(parse_args(&[]).expect("defaults").workload, "all");
    }

    /// `BENCHMARK.json` is written by hand; this keeps it saying what
    /// the code does.
    #[test]
    fn benchmark_json_lists_what_the_code_reports() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let section = |key: &str| {
            let start = text.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
            let rest = &text[start..];
            &rest[..rest.find(']').expect("section ends")]
        };
        for w in WORKLOADS {
            assert!(section("workloads").contains(&format!("\"name\": \"{w}\"")), "{w}");
        }
        assert_eq!(section("workloads").matches("\"name\"").count(), WORKLOADS.len());
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let listed = section(key);
            assert_eq!(listed.matches("\"name\"").count(), table.len(), "{key} count");
            for m in table {
                let better = if m.higher_is_better { "higher" } else { "lower" };
                let mut entry = format!(
                    "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"",
                    m.name, m.unit
                );
                if key == "end_to_end" {
                    entry.push_str(&format!(", \"bound\": {}", m.bound));
                }
                entry.push('}');
                assert!(listed.contains(&entry), "BENCHMARK.json lacks {entry}");
            }
        }
        assert!(text.contains(&format!("\"run_seconds\": {RUN_SECONDS}")));
    }
}
