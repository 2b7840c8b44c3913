//! The `datasync` command-line tool: analyze loops, simulate them under
//! every synchronization scheme, compare schemes, stress them with fault
//! injection, and regenerate the paper's experiment tables.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod args;
mod commands;

use args::Parsed;
use datasync_sim::SimError;

/// Usage text printed on argument errors.
pub const USAGE: &str = "\
datasync — Su & Yew (ISCA 1989) data-synchronization toolkit

USAGE:
  datasync analyze    [--loop L] [--n N] [--m M] [--dot]
      Dependence analysis, covering, the Doacross transformation listing,
      and the profitability decision for a loop.
  datasync simulate   [--loop L] [--n N] [--m M] [--scheme S] [--procs P]
                      [--x X] [--banks B] [--fabric F] [--timeline]
                      [CACHE KNOBS]
      Run the loop on the simulated multiprocessor under one scheme.
  datasync compare    [--loop L] [--n N] [--m M] [--procs P] [--x X]
                      [--fabric F] [CACHE KNOBS]
      Run the loop under every scheme and print the comparison table
      (with hit%/invals/coh-tx columns when caches are on).
  datasync robustness [--n N] [--procs P] [--seed S] [--max-cycles C]
                      [--recovery on|off|repair-only] [--fabric F|all]
                      [--json PATH] [CACHE KNOBS]
      Sweep every scheme across every fault class and intensity; print
      the degradation matrix (ok / recovered / reconfigured / DEGRADED /
      DEADLOCK / TIMEOUT / VIOLATED). Recovery (the self-healing
      sync-bus ladder: gap NACKs, retransmission, watchdog repair,
      fail-stop reconfiguration, fallback degradation) defaults to on;
      --fabric all repeats the grid on every fabric; --json also writes
      the matrix as JSON.
  datasync chaos      [--cases N] [--seed S] [--out-dir DIR]
                      [--replay FILE]
      Fuzz the machine with N seeded random fault plans across random
      schemes, fabrics and sizes; check mode bit-identity, the
      dependence oracle, trace monotonicity and stat conservation on
      every cell. A violated cell is shrunk to a minimal reproducer and
      written to DIR as replayable JSON; --replay re-runs one such file
      byte-exact, or every *.json in a directory (batch triage of a
      quarantine folder) with the worst outcome as the exit code.
  datasync serve      [--addr HOST:PORT] [--state-dir DIR]
                      [--queue-cap N] [--max-cells N]
      Run the sweep service: POST /sweep takes a JSON grid
      (schemes x fabrics x iterations x processors x caches x
      fault-pcts) and streams one JSON line per cell plus a summary
      with an aggregate hash. Results are memoized by canonical content
      hash and journaled to DIR (checksummed, append-only), so a
      killed server resumes with zero recomputation; a full admission
      queue sheds with 429 + Retry-After instead of queueing; cells
      that time out twice are quarantined with a chaos reproducer
      (replay with datasync chaos --replay DIR/quarantine). GET
      /healthz and GET /stats report liveness and counters;
      SIGTERM/SIGINT or POST /shutdown drains gracefully.
  datasync wavefront  [--loop L] [--n N] [--m M]
      Derive the wavefront (skewing) schedule of a depth-2 loop.
  datasync unroll     [--loop L] [--n N] [--factor U]
      Unroll a loop and show the re-synchronized Doacross listing.
  datasync reproduce  [--quick] [--markdown]
      Regenerate every experiment table of the paper reproduction.
  datasync perf       [--quick] [--scale [--out PATH]]
      The CI perf gate (deterministic simulated counts, no host time):
      exits 9 when processor visits per sim op at P = 1024 exceed 2x the
      P = 64 figure or 8 (hot-spot, two schemes), or when a flat hot-spot
      broadcast writes more image words at P = 1024 than at P = 64.
      --scale instead sweeps every scheme across P = 8 → 1024 processors
      plus a barrier hot-spot ablation of the flat vs clustered fabrics
      out to P = 65536, and writes the curves (makespan, processor visits
      per sim op and image words per broadcast at every point) to
      BENCH_scale.json.
  datasync trace      [--loop L] [--n N] [--m M] [--scheme S] [--procs P]
                      [--x X] [--banks B] [--fabric F] [--events E]
                      [--out PATH] [CACHE KNOBS]
      Run one scheme with the event ring enabled and export a Chrome
      trace_event JSON (open in chrome://tracing or ui.perfetto.dev).
  datasync metrics    [--loop L] [--n N] [--m M] [--scheme S] [--procs P]
                      [--x X] [--banks B] [--fabric F] [CACHE KNOBS]
      Run one scheme and print the derived metrics table: bus occupancy,
      bank conflicts, per-variable sync traffic, wait-time histograms.

LOOPS (--loop): fig21 (default) | relaxation | nested | branches,
  or --file <path> with the loop language (see datasync_loopir::parse)
SCHEMES (--scheme): process (default) | process-basic | statement |
                    reference | instance | barrier-phased
FABRICS (--fabric): dedicated (default, the paper's §6 sync bus) |
                    shared (sync arbitrates against data traffic on one
                    bus) | ideal (zero-latency oracle upper bound) |
                    clustered (two-level: per-cluster sync buses joined
                    by a coalescing bridge; --clusters N buses, N must
                    divide --procs (default 4), --bridge-latency L
                    cycles per forward (2), --coalesce-window W cycles
                    to batch same-variable forwards (4))
CACHE KNOBS: --cache none|mesi|dragon (default none — the paper's
  cacheless machine) gives every processor a private cache under the
  data bus with the chosen coherence protocol; --cache-sets S (64),
  --cache-assoc W (2) and --cache-line WORDS (4) set the geometry;
  --sync-uncached keeps synchronization variables out of the caches
  (the §6 cached-vs-uncached sync ablation axis)

EXIT CODES: 0 success | 2 bad arguments or config | 3 deadlock detected |
            4 simulation timed out | 5 completed but only via recovery |
            6 completed only on the degraded fallback scheme |
            7 dependence order violated |
            8 completed but only by reconfiguring around a dead processor |
            9 perf check found a P-dependent event cost |
            10 serve runtime failure (bind, journal or accept loop)
";

/// The `datasync` process exit codes — the tool's scripting contract,
/// documented in the README and [`USAGE`]. This enum is the single
/// source of truth: every `CliError`/`CliOutput` code is produced from
/// it, and [`ExitCode::worst`] is how multi-run commands (the
/// robustness sweep) fold many outcomes into one process code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExitCode {
    /// `0` — clean success.
    Success,
    /// `2` — bad arguments or machine config.
    Usage,
    /// `3` — deadlock/livelock detected.
    Deadlock,
    /// `4` — simulation hit its cycle cap.
    Timeout,
    /// `5` — completed, but only via self-healing recovery.
    Recovered,
    /// `6` — completed, but only on the degraded fallback scheme.
    Degraded,
    /// `7` — dependence order violated.
    Violated,
    /// `8` — completed, but only by reconfiguring work off a
    /// fail-stopped processor onto the survivor quorum.
    Reconfigured,
    /// `9` — the gating perf check found a regression: the kernel's
    /// processor visits per sim op, or the image words a broadcast
    /// writes, grow with the machine.
    PerfRegression,
    /// `10` — the sweep service failed at runtime (bind, journal I/O,
    /// or the accept loop), as opposed to `2` for bad serve arguments.
    ServeFailure,
}

impl ExitCode {
    /// Every documented exit code.
    pub const ALL: [ExitCode; 10] = [
        ExitCode::Success,
        ExitCode::Usage,
        ExitCode::Deadlock,
        ExitCode::Timeout,
        ExitCode::Recovered,
        ExitCode::Degraded,
        ExitCode::Violated,
        ExitCode::Reconfigured,
        ExitCode::PerfRegression,
        ExitCode::ServeFailure,
    ];

    /// The numeric process exit code.
    pub fn code(self) -> i32 {
        match self {
            ExitCode::Success => 0,
            ExitCode::Usage => 2,
            ExitCode::Deadlock => 3,
            ExitCode::Timeout => 4,
            ExitCode::Recovered => 5,
            ExitCode::Degraded => 6,
            ExitCode::Violated => 7,
            ExitCode::Reconfigured => 8,
            ExitCode::PerfRegression => 9,
            ExitCode::ServeFailure => 10,
        }
    }

    /// Inverse of [`ExitCode::code`] (`None` for undocumented numbers).
    pub fn from_code(code: i32) -> Option<ExitCode> {
        ExitCode::ALL.into_iter().find(|e| e.code() == code)
    }

    /// Severity rank for [`ExitCode::worst`]: correctness failures
    /// dominate liveness failures dominate usage errors dominate
    /// qualified successes dominate clean success.
    fn severity(self) -> u8 {
        match self {
            ExitCode::Success => 0,
            ExitCode::Recovered => 1,
            ExitCode::Reconfigured => 2,
            ExitCode::Degraded => 3,
            ExitCode::Usage => 4,
            ExitCode::PerfRegression => 5,
            ExitCode::ServeFailure => 6,
            ExitCode::Timeout => 7,
            ExitCode::Deadlock => 8,
            ExitCode::Violated => 9,
        }
    }

    /// The more severe of two outcomes — the combinator multi-run
    /// commands fold with, so scripts branching on the process code see
    /// the worst thing that happened.
    pub fn worst(self, other: ExitCode) -> ExitCode {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

/// A successful CLI invocation: the text to print plus the process exit
/// code. Code `0` is a clean success; the robustness sweep reports
/// qualified successes (`5` recovered, `6` degraded) and detected
/// failures (`3`/`4`/`7`) through the same channel so scripts can branch
/// on the worst outcome in the matrix while still receiving the table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliOutput {
    /// Text for stdout.
    pub text: String,
    /// Process exit code (`0` unless a subcommand reports a qualified
    /// outcome).
    pub code: i32,
}

/// A CLI failure: a user-facing message plus the process exit code.
///
/// Exit codes are part of the tool's contract (scripts branch on them):
/// `2` for argument/config errors, `3` for a detected deadlock or
/// livelock, `4` for a simulation that hit its cycle cap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable description (multi-line for deadlocks: one line per
    /// stuck processor).
    pub message: String,
    /// Process exit code.
    pub code: i32,
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { message, code: ExitCode::Usage.code() }
    }
}

impl From<&str> for CliError {
    fn from(message: &str) -> Self {
        CliError { message: message.to_string(), code: ExitCode::Usage.code() }
    }
}

impl From<SimError> for CliError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::Deadlock { cycle, spinning, detail } => {
                let mut message = format!("deadlock detected at cycle {cycle}; stuck processors:");
                for (p, d) in spinning.iter().zip(&detail) {
                    message.push_str(&format!("\n  P{p}: {d}"));
                }
                if detail.is_empty() {
                    for p in &spinning {
                        message.push_str(&format!("\n  P{p}"));
                    }
                }
                CliError { message, code: ExitCode::Deadlock.code() }
            }
            SimError::Timeout { max_cycles } => CliError {
                message: format!("simulation exceeded {max_cycles} cycles"),
                code: ExitCode::Timeout.code(),
            },
            SimError::BadConfig(msg) => CliError {
                message: format!("invalid machine config: {msg}"),
                code: ExitCode::Usage.code(),
            },
        }
    }
}

/// Runs the CLI; returns the text to print plus the exit code.
///
/// # Errors
///
/// Returns a [`CliError`] carrying the message and the exit code the
/// process should use.
pub fn run(argv: &[String]) -> Result<CliOutput, CliError> {
    let parsed = Parsed::parse(argv)?;
    let ok = |text: String| CliOutput { text, code: 0 };
    match parsed.command.as_str() {
        "analyze" => commands::analyze(&parsed).map(ok),
        "simulate" => commands::simulate(&parsed).map(ok),
        "compare" => commands::compare(&parsed).map(ok),
        "robustness" => commands::robustness(&parsed),
        "chaos" => commands::chaos(&parsed),
        "serve" => commands::serve(&parsed),
        "wavefront" => commands::wavefront(&parsed).map(ok),
        "unroll" => commands::unroll(&parsed).map(ok),
        "reproduce" => commands::reproduce(&parsed).map(ok),
        "perf" => commands::perf(&parsed).map(ok),
        "trace" => commands::trace(&parsed).map(ok),
        "metrics" => commands::metrics(&parsed).map(ok),
        "help" | "--help" => Ok(ok(USAGE.to_string())),
        other => Err(format!("unknown subcommand '{other}'").into()),
    }
}

#[cfg(test)]
mod tests {
    use super::{CliError, CliOutput, ExitCode};

    fn run_full(words: &[&str]) -> Result<CliOutput, CliError> {
        super::run(&words.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    fn run(words: &[&str]) -> Result<String, CliError> {
        run_full(words).map(|o| o.text)
    }

    #[test]
    fn analyze_fig21() {
        let out = run(&["analyze", "--n", "50"]).unwrap();
        assert!(out.contains("DO I = 1, 50"));
        assert!(out.contains("S1 -> S2 (flow, d=2)"));
        assert!(out.contains("doacross"));
        assert!(out.contains("mark_PC(1);"));
        assert!(out.contains("delay"));
    }

    #[test]
    fn analyze_all_loops() {
        for l in ["fig21", "relaxation", "nested", "branches"] {
            let out = run(&["analyze", "--loop", l, "--n", "8", "--m", "5"]).unwrap();
            assert!(out.contains("dependences"), "{l}: {out}");
        }
    }

    #[test]
    fn simulate_every_scheme() {
        for s in
            ["process", "process-basic", "statement", "reference", "instance", "barrier-phased"]
        {
            let out =
                run(&["simulate", "--n", "16", "--scheme", s, "--procs", "4", "--x", "8"]).unwrap();
            assert!(out.contains("makespan"), "{s}: {out}");
            assert!(out.contains("violations: 0"), "{s}: {out}");
        }
    }

    #[test]
    fn simulate_with_banked_memory() {
        let out = run(&["simulate", "--n", "12", "--banks", "8"]).unwrap();
        assert!(out.contains("violations: 0"));
    }

    #[test]
    fn simulate_with_timeline() {
        let out = run(&["simulate", "--n", "12", "--timeline"]).unwrap();
        assert!(out.contains("P0"));
        assert!(out.contains("cycles/column"));
    }

    #[test]
    fn compare_prints_table() {
        let out = run(&["compare", "--n", "16", "--procs", "4"]).unwrap();
        assert!(out.contains("process-oriented"));
        assert!(out.contains("reference-based"));
        assert!(out.contains("barrier-phased"));
    }

    #[test]
    fn robustness_prints_matrix() {
        let out = run(&["robustness", "--n", "8", "--procs", "4", "--seed", "7"]).unwrap();
        assert!(out.contains("scheme"), "{out}");
        assert!(out.contains("chaos"), "{out}");
        assert!(out.contains("bcast-loss"), "{out}");
        assert!(out.contains("proc-failstop"), "{out}");
        assert!(out.contains("process-oriented"), "{out}");
        assert!(out.contains("classified"), "{out}");
        assert!(out.contains("recovery on"), "{out}");
    }

    #[test]
    fn robustness_is_deterministic() {
        let a = run_full(&["robustness", "--n", "8", "--seed", "42"]).unwrap();
        let b = run_full(&["robustness", "--n", "8", "--seed", "42"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn robustness_recovery_on_leaves_no_wedge_and_exits_by_worst_cell() {
        // Recovery defaults to on: the matrix must contain no
        // DEADLOCK/TIMEOUT cells, and the exit code reports the worst
        // surviving outcome (0 all-ok, 5 recovered, 6 degraded).
        let on = run_full(&["robustness", "--n", "8", "--procs", "4", "--seed", "7"]).unwrap();
        assert!(
            on.text.contains("0 deadlocked, 0 timed out, 0 violated"),
            "recovery-on matrix must have no wedged or violated cells: {}",
            on.text
        );
        assert!(matches!(on.code, 0 | 5 | 6 | 8), "unexpected exit code {}", on.code);
        assert!(on.text.contains("recovered("), "loss cells should heal: {}", on.text);

        // Recovery off: broadcast loss wedges dedicated-bus schemes, and
        // the deadlock exit code wins over the qualified-success codes.
        let off = run_full(&[
            "robustness",
            "--n",
            "8",
            "--procs",
            "4",
            "--seed",
            "7",
            "--recovery",
            "off",
        ])
        .unwrap();
        assert!(
            !off.text.contains("0 deadlocked"),
            "loss must wedge without recovery: {}",
            off.text
        );
        assert!(off.text.contains("recovery off"), "{}", off.text);
        assert_eq!(off.code, 3, "{}", off.text);
    }

    #[test]
    fn robustness_writes_json_matrix() {
        let dir = std::env::temp_dir().join("datasync_cli_robustness_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("matrix.json");
        let out = run(&["robustness", "--n", "6", "--seed", "3", "--json", path.to_str().unwrap()])
            .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"tally\""), "{json}");
        assert!(json.contains("\"intensities\": [0, 25, 50, 75]"), "{json}");
        assert!(run(&["robustness", "--n", "6", "--json", "/nonexistent/dir/m.json"]).is_err());
    }

    #[test]
    fn robustness_rejects_unknown_recovery_policy() {
        let e = run(&["robustness", "--recovery", "maybe"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("repair-only"), "{}", e.message);
    }

    #[test]
    fn non_robustness_commands_exit_zero() {
        for words in [&["analyze", "--n", "8"][..], &["simulate", "--n", "8"], &["help"]] {
            assert_eq!(run_full(words).unwrap().code, 0, "{words:?}");
        }
    }

    #[test]
    fn errors_are_helpful() {
        assert!(run(&["bogus"]).is_err());
        assert!(run(&["simulate", "--scheme", "nope"]).is_err());
        assert!(run(&["analyze", "--loop", "nope"]).is_err());
        assert!(run(&["analyze", "--typo", "1"]).is_err());
    }

    #[test]
    fn argument_errors_exit_2() {
        assert_eq!(run(&["bogus"]).unwrap_err().code, 2);
        assert_eq!(run(&["simulate", "--scheme", "nope"]).unwrap_err().code, 2);
        assert_eq!(run(&["simulate", "--procs", "0"]).unwrap_err().code, 2);
        assert_eq!(run(&["compare", "--procs", "0"]).unwrap_err().code, 2);
        assert_eq!(run(&["robustness", "--procs", "0"]).unwrap_err().code, 2);
        assert_eq!(run(&["robustness", "--max-cycles", "0"]).unwrap_err().code, 2);
        let e = run(&["robustness", "--seed"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("--seed requires a value"), "{}", e.message);
    }

    #[test]
    fn sim_errors_map_to_distinct_exit_codes() {
        use datasync_sim::SimError;
        let d = CliError::from(SimError::Deadlock {
            cycle: 99,
            spinning: vec![1, 3],
            detail: vec!["waiting V0 >= 5".into(), "retrying poll".into()],
        });
        assert_eq!(d.code, 3);
        assert!(d.message.contains("P1: waiting V0 >= 5"), "{}", d.message);
        assert!(d.message.contains("P3: retrying poll"));
        let t = CliError::from(SimError::Timeout { max_cycles: 1000 });
        assert_eq!(t.code, 4);
        assert!(t.message.contains("1000"));
        let b = CliError::from(SimError::BadConfig("no processors".into()));
        assert_eq!(b.code, 2);
    }

    #[test]
    fn exit_codes_round_trip_and_match_the_readme() {
        // The enum is total over its own codes…
        for e in ExitCode::ALL {
            assert_eq!(ExitCode::from_code(e.code()), Some(e), "{e:?}");
        }
        assert_eq!(ExitCode::from_code(1), None, "1 is deliberately unused");
        assert_eq!(ExitCode::from_code(10), Some(ExitCode::ServeFailure));
        assert_eq!(ExitCode::from_code(11), None);
        // …and exactly matches the codes documented in the README table
        // (`| \`N\` | meaning |` rows) and the USAGE text.
        let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme_path).expect("README.md readable");
        let documented: Vec<i32> = readme
            .lines()
            .filter_map(|l| {
                let cell = l.strip_prefix("| `")?;
                cell.split('`').next()?.parse().ok()
            })
            .collect();
        let mut ours: Vec<i32> = ExitCode::ALL.iter().map(|e| e.code()).collect();
        ours.sort_unstable();
        let mut docs = documented;
        docs.sort_unstable();
        assert_eq!(docs, ours, "README exit-code table out of sync with ExitCode");
        for e in ExitCode::ALL {
            assert!(
                super::USAGE.contains(&e.code().to_string()),
                "USAGE does not mention exit code {}",
                e.code()
            );
        }
    }

    #[test]
    fn worst_combinator_orders_outcomes() {
        use ExitCode::*;
        // Documented precedence: 7 > 3 > 4 > 6 > 8 > 5 > 0.
        for (a, b, expect) in [
            (Success, Recovered, Recovered),
            (Recovered, Reconfigured, Reconfigured),
            (Reconfigured, Degraded, Degraded),
            (Degraded, Timeout, Timeout),
            (Timeout, Deadlock, Deadlock),
            (Deadlock, Violated, Violated),
            (Violated, Success, Violated),
        ] {
            assert_eq!(a.worst(b), expect, "{a:?} vs {b:?}");
            assert_eq!(b.worst(a), expect, "worst must be symmetric");
        }
        assert_eq!(Success.worst(Success), Success);
        // Folding a mixed tally lands on the worst member.
        let folded = [Recovered, Deadlock, Degraded].into_iter().fold(Success, ExitCode::worst);
        assert_eq!(folded, Deadlock);
    }

    #[test]
    fn fabric_flag_threads_through_simulate_and_compare() {
        let ded = run(&["simulate", "--n", "16", "--procs", "4"]).unwrap();
        assert!(ded.contains("fabric: dedicated"), "{ded}");
        for fabric in ["dedicated", "shared", "ideal"] {
            let out = run(&["simulate", "--n", "16", "--procs", "4", "--fabric", fabric]).unwrap();
            assert!(out.contains(&format!("fabric: {fabric}")), "{out}");
            assert!(out.contains("violations: 0"), "{fabric}: {out}");
        }
        // The §6 delta end-to-end: shared must not beat dedicated, and
        // the comparison table carries the fabric column.
        let grab = |text: &str| -> u64 {
            text.lines()
                .find(|l| l.starts_with("makespan:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|w| w.parse().ok())
                .expect("makespan line")
        };
        let shared = run(&["simulate", "--n", "16", "--procs", "4", "--fabric", "shared"]).unwrap();
        assert!(grab(&shared) >= grab(&ded), "shared {shared} vs dedicated {ded}");
        let table = run(&["compare", "--n", "16", "--procs", "4", "--fabric", "shared"]).unwrap();
        assert!(table.contains("fabric"), "{table}");
        assert!(table.contains("shared"), "{table}");
        let e = run(&["simulate", "--fabric", "warp"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("ideal"), "{}", e.message);
    }

    #[test]
    fn cache_flags_thread_through_simulate_and_compare() {
        for protocol in ["mesi", "dragon"] {
            let out = run(&["simulate", "--n", "16", "--procs", "4", "--cache", protocol]).unwrap();
            assert!(out.contains("cache:"), "{protocol}: {out}");
            assert!(out.contains("violations: 0"), "{protocol}: {out}");
        }
        // Cacheless output carries no cache line at all.
        let plain = run(&["simulate", "--n", "16", "--procs", "4"]).unwrap();
        assert!(!plain.contains("cache:"), "{plain}");
        // The comparison table grows the cache columns only when asked.
        let table = run(&["compare", "--n", "16", "--procs", "4", "--cache", "mesi"]).unwrap();
        assert!(table.contains("hit%"), "{table}");
        assert!(table.contains("coh tx"), "{table}");
        let plain_table = run(&["compare", "--n", "16", "--procs", "4"]).unwrap();
        assert!(!plain_table.contains("hit%"), "{plain_table}");
        // Geometry overrides and the sync-uncached switch parse.
        let small = run(&[
            "simulate",
            "--n",
            "16",
            "--cache",
            "dragon",
            "--cache-sets",
            "4",
            "--cache-assoc",
            "1",
            "--cache-line",
            "2",
            "--sync-uncached",
        ])
        .unwrap();
        assert!(small.contains("violations: 0"), "{small}");
        // Bad protocol and bad geometry are usage errors.
        let e = run(&["simulate", "--cache", "moesi"]).unwrap_err();
        assert_eq!(e.code, 2);
        assert!(e.message.contains("dragon"), "{}", e.message);
        let e = run(&["simulate", "--cache", "mesi", "--cache-sets", "0"]).unwrap_err();
        assert_eq!(e.code, 2);
    }

    #[test]
    fn robustness_fabric_axis() {
        let out =
            run(&["robustness", "--n", "6", "--procs", "4", "--seed", "3", "--fabric", "all"])
                .unwrap();
        assert!(out.contains("fabric dedicated+shared+ideal"), "{out}");
        assert!(out.contains("ideal"), "{out}");
        // 3x the single-fabric matrix: 5 schemes x 9 fault rows x 4
        // intensities x 3 fabrics.
        assert!(out.contains("540 runs classified"), "{out}");
    }

    #[test]
    fn help_shows_usage() {
        let out = run(&["help"]).unwrap();
        assert!(out.contains("USAGE"));
        assert!(out.contains("robustness"));
        assert!(out.contains("perf"));
        assert!(out.contains("chaos"));
        assert!(out.contains("--replay"));
        assert!(out.contains("EXIT CODES"));
        assert!(out.contains("--recovery"));
        assert!(out.contains("5 completed but only via recovery"));
        assert!(out.contains("8 completed but only by reconfiguring"));
        assert!(out.contains("datasync serve"));
        assert!(out.contains("--state-dir"));
        assert!(out.contains("Retry-After"));
    }

    #[test]
    fn chaos_soak_exits_clean() {
        let out = run_full(&["chaos", "--cases", "10", "--seed", "1989"]).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("10 cells"), "{}", out.text);
        assert!(out.text.contains("0 invariant violations"), "{}", out.text);
        assert!(out.text.contains("every cell holds"), "{}", out.text);
    }

    #[test]
    fn chaos_is_deterministic() {
        let a = run_full(&["chaos", "--cases", "8", "--seed", "3"]).unwrap();
        let b = run_full(&["chaos", "--cases", "8", "--seed", "3"]).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn chaos_replays_a_reproducer_file() {
        use datasync_bench::chaos::generate;
        let dir = std::env::temp_dir().join("datasync_cli_chaos_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("case.json");
        std::fs::write(&path, generate(7, 4).to_json()).unwrap();
        let out = run_full(&["chaos", "--replay", path.to_str().unwrap()]).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("all machine invariants hold"), "{}", out.text);
        assert!(run(&["chaos", "--replay", "/nonexistent/x.json"]).is_err());
        std::fs::write(&path, "{}").unwrap();
        assert_eq!(run(&["chaos", "--replay", path.to_str().unwrap()]).unwrap_err().code, 2);
    }

    #[test]
    fn chaos_replays_a_directory_of_reproducers() {
        use datasync_bench::chaos::generate;
        let dir = std::env::temp_dir().join("datasync_cli_chaos_dir_test");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("a.json"), generate(7, 4).to_json()).unwrap();
        std::fs::write(dir.join("b.json"), generate(9, 4).to_json()).unwrap();
        std::fs::write(dir.join("notes.txt"), "not a reproducer").unwrap();
        let out = run_full(&["chaos", "--replay", dir.to_str().unwrap()]).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("2 of 2 reproducers hold"), "{}", out.text);
        // An unparsable member aborts the batch as a usage error.
        std::fs::write(dir.join("c.json"), "{}").unwrap();
        assert_eq!(run(&["chaos", "--replay", dir.to_str().unwrap()]).unwrap_err().code, 2);
        // An empty directory replays nothing, successfully.
        let empty = dir.join("empty");
        std::fs::create_dir_all(&empty).unwrap();
        let out = run_full(&["chaos", "--replay", empty.to_str().unwrap()]).unwrap();
        assert_eq!(out.code, 0);
        assert!(out.text.contains("nothing to replay"), "{}", out.text);
    }

    #[test]
    fn serve_rejects_bad_arguments() {
        assert_eq!(run(&["serve", "--queue-cap", "0"]).unwrap_err().code, 2);
        assert_eq!(run(&["serve", "--max-cells", "0"]).unwrap_err().code, 2);
        assert!(run(&["serve", "--typo", "1"]).is_err());
    }

    #[test]
    fn serve_bind_failure_exits_10() {
        let dir = std::env::temp_dir().join("datasync_cli_serve_bind_test");
        std::fs::create_dir_all(&dir).unwrap();
        let e = run(&["serve", "--addr", "not-an-addr", "--state-dir", dir.to_str().unwrap()])
            .unwrap_err();
        assert_eq!(e.code, ExitCode::ServeFailure.code());
        assert!(e.message.contains("cannot bind"), "{}", e.message);
    }

    #[test]
    fn chaos_rejects_bad_arguments() {
        assert_eq!(run(&["chaos", "--cases", "0"]).unwrap_err().code, 2);
        assert!(run(&["chaos", "--typo", "1"]).is_err());
    }

    #[test]
    fn perf_is_the_gate() {
        let out = run_full(&["perf", "--quick"]).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("perf check"), "{}", out.text);
        assert!(out.text.contains("=> ok"), "{}", out.text);
        // The wall-clock baseline is gone, and with it its flags; --out
        // only names the --scale artifact.
        assert_eq!(run(&["perf", "--quick", "--check"]).unwrap_err().code, 2);
        assert_eq!(run(&["perf", "--quick", "--baseline", "x"]).unwrap_err().code, 2);
        assert_eq!(run(&["perf", "--quick", "--out", "x.json"]).unwrap_err().code, 2);
    }

    #[test]
    fn perf_scale_writes_the_curve() {
        let dir = std::env::temp_dir().join("datasync_cli_perf_scale_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_scale.json");
        let out = run(&["perf", "--quick", "--scale", "--out", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("processor visits per sim op"), "{out}");
        assert!(!out.contains("cycles/sec"), "{out}");
        assert!(out.contains("barrier-phased"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.contains("\"procs\": [8, 16, 32]"), "{json}");
        assert!(json.contains("\"visits_per_op\""), "{json}");
        assert!(run(&["perf", "--scale", "--quick", "--out", "/nonexistent/dir/s.json"]).is_err());
    }

    #[test]
    fn trace_writes_valid_chrome_json() {
        let dir = std::env::temp_dir().join("datasync_cli_trace_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json");
        let out =
            run(&["trace", "--n", "12", "--procs", "4", "--out", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("captured"), "{out}");
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        assert!(json.starts_with("{\"traceEvents\":["), "{}", &json[..60.min(json.len())]);
        assert!(json.contains("\"ph\":\"X\""), "no complete events");
        assert!(json.contains("\"name\":\"process_name\""), "no metadata");
        assert!(run(&["trace", "--out", "/nonexistent/dir/t.json"]).is_err());
        assert!(run(&["trace", "--events", "0"]).is_err());
    }

    #[test]
    fn metrics_prints_table() {
        let out = run(&["metrics", "--n", "16", "--procs", "4"]).unwrap();
        assert!(out.contains("makespan"), "{out}");
        assert!(out.contains("occupancy"), "{out}");
        assert!(out.contains("waits"), "{out}");
    }

    #[test]
    fn metrics_every_scheme() {
        for s in
            ["process", "process-basic", "statement", "reference", "instance", "barrier-phased"]
        {
            let out = run(&["metrics", "--n", "12", "--scheme", s, "--procs", "4"]).unwrap();
            assert!(out.contains("occupancy"), "{s}: {out}");
        }
    }

    #[test]
    fn compare_table_has_metrics_columns() {
        let out = run(&["compare", "--n", "16", "--procs", "4"]).unwrap();
        assert!(out.contains("dbus%"), "{out}");
        assert!(out.contains("sync ops"), "{out}");
        assert!(out.contains("PC"), "{out}");
        assert!(out.contains("key"), "{out}");
    }

    #[test]
    fn analyze_from_file() {
        let dir = std::env::temp_dir().join("datasync_cli_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("loop.txt");
        std::fs::write(&path, "DO I = 1, 30\n  S1: A[I] = A[I-1] @6\nEND DO\n").unwrap();
        let out = run(&["analyze", "--file", path.to_str().unwrap()]).unwrap();
        assert!(out.contains("S1 -> S1 (flow, d=1)"), "{out}");
        assert!(out.contains("delay"));
        assert!(run(&["analyze", "--file", "/nonexistent/x.txt"]).is_err());
    }

    #[test]
    fn wavefront_on_relaxation() {
        let out = run(&["wavefront", "--loop", "relaxation", "--n", "10"]).unwrap();
        assert!(out.contains("lambda = (1, 1)"), "{out}");
        assert!(run(&["wavefront", "--loop", "fig21"]).is_err());
    }

    #[test]
    fn unroll_fig21() {
        let out = run(&["unroll", "--n", "32", "--factor", "4"]).unwrap();
        assert!(out.contains("S1@0"));
        assert!(out.contains("doacross"));
        assert!(run(&["unroll", "--n", "10", "--factor", "3"]).is_err());
    }
}
