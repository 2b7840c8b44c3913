//! Self-benchmark behind `datasync perf`: measures what this repo's two
//! performance mechanisms actually buy on this machine.
//!
//! * **Fast-forward kernel** — a spin-heavy Doacross (the Fig 2.1 loop
//!   under the process-oriented scheme with inflated statement costs, so
//!   consumers spin for thousands of cycles between events) is run in
//!   both stepping modes. The modes are bit-identical by contract, so
//!   the ratio of wall-clock times is a pure kernel speedup.
//! * **Parallel sweep runner** — a batch of independent faulted runs is
//!   classified serially and through [`crate::sweep::runs`]; on a
//!   single-core host the two are expected to tie.
//!
//! The report serializes to JSON (a fixed-key `format!`, parsed back by
//! `datasync_sim::json` in the tests) for `BENCH_sim.json` and the CI
//! smoke step.

use crate::scale::VisitGate;
use crate::sweep;
use datasync_loopir::analysis::analyze;
use datasync_loopir::space::IterSpace;
use datasync_loopir::workpatterns::fig21_loop;
use datasync_schemes::scheme::Scheme;
use datasync_schemes::{classify_run, ProcessOriented};
use datasync_sim::json::{self, Json};
use datasync_sim::{FaultPlan, MachineConfig, StepMode};
use std::time::Instant;

/// Results of one self-benchmark run.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// What was simulated.
    pub workload: String,
    /// Threads the parallel sweep actually used (requested, capped at
    /// the hardware parallelism).
    pub threads: usize,
    /// Threads requested via `DATASYNC_THREADS` (or auto-detected when
    /// unset). A historical report claimed `threads: 4` on a one-core
    /// host because the requested count was published as the used one.
    pub threads_requested: usize,
    /// Hardware threads the host actually exposes.
    pub threads_available: usize,
    /// Makespan of one benchmark run (simulated cycles).
    pub simulated_cycles: u64,
    /// Wall-clock seconds per fast-forward run.
    pub fast_seconds: f64,
    /// Wall-clock seconds per reference (per-cycle) run.
    pub reference_seconds: f64,
    /// Simulated cycles per wall-clock second, fast-forward kernel.
    pub fast_cycles_per_sec: f64,
    /// Simulated cycles per wall-clock second, reference stepper.
    pub reference_cycles_per_sec: f64,
    /// Fast-forward kernel speedup over per-cycle stepping.
    pub fast_forward_speedup: f64,
    /// Runs in the sweep batch.
    pub sweep_runs: usize,
    /// Sweep runs per second, one worker.
    pub serial_runs_per_sec: f64,
    /// Sweep runs per second, parallel sweep runner.
    pub parallel_runs_per_sec: f64,
    /// Parallel-over-serial sweep speedup (about 1.0 on one core).
    pub sweep_speedup: f64,
    /// Fast-forward x parallel-sweep: total speedup over the seed
    /// behavior (per-cycle stepping, serial sweeps).
    pub combined_speedup: f64,
    /// True when the host exposes a single worker thread: the parallel
    /// sweep cannot win there, so `sweep_speedup` and `combined_speedup`
    /// are reported as `null` instead of being passed off as results.
    pub degraded: bool,
}

impl PerfReport {
    /// Hand-rolled JSON rendering for `BENCH_sim.json`.
    pub fn to_json(&self) -> String {
        let f = |v: f64| {
            if v.is_finite() {
                format!("{v:.3}")
            } else {
                "null".into()
            }
        };
        // Per-run wall times can be well under a millisecond.
        let secs = |v: f64| {
            if v.is_finite() {
                format!("{v:.6}")
            } else {
                "null".into()
            }
        };
        format!(
            concat!(
                "{{\n",
                "  \"workload\": \"{workload}\",\n",
                "  \"threads\": {threads},\n",
                "  \"threads_requested\": {threads_requested},\n",
                "  \"threads_available\": {threads_available},\n",
                "  \"simulated_cycles\": {cycles},\n",
                "  \"fast_seconds\": {fast_s},\n",
                "  \"reference_seconds\": {ref_s},\n",
                "  \"fast_cycles_per_sec\": {fast_cps},\n",
                "  \"reference_cycles_per_sec\": {ref_cps},\n",
                "  \"fast_forward_speedup\": {ff},\n",
                "  \"sweep_runs\": {runs},\n",
                "  \"serial_runs_per_sec\": {srps},\n",
                "  \"parallel_runs_per_sec\": {prps},\n",
                "  \"sweep_speedup\": {ss},\n",
                "  \"combined_speedup\": {combined},\n",
                "  \"degraded\": {degraded}\n",
                "}}\n",
            ),
            workload = self.workload,
            threads = self.threads,
            threads_requested = self.threads_requested,
            threads_available = self.threads_available,
            cycles = self.simulated_cycles,
            fast_s = secs(self.fast_seconds),
            ref_s = secs(self.reference_seconds),
            fast_cps = f(self.fast_cycles_per_sec),
            ref_cps = f(self.reference_cycles_per_sec),
            ff = f(self.fast_forward_speedup),
            runs = self.sweep_runs,
            srps = f(self.serial_runs_per_sec),
            prps = f(self.parallel_runs_per_sec),
            ss = f(self.sweep_speedup),
            combined = f(self.combined_speedup),
            degraded = self.degraded,
        )
    }

    /// One-paragraph human summary. On a single-threaded host the sweep
    /// and combined lines become warnings instead of fake wins.
    pub fn summary(&self) -> String {
        let head = format!(
            "perf: {workload}\n\
             fast-forward kernel: {fast_cps:.0} cycles/s vs reference {ref_cps:.0} cycles/s \
             => {ff:.1}x speedup",
            workload = self.workload,
            fast_cps = self.fast_cycles_per_sec,
            ref_cps = self.reference_cycles_per_sec,
            ff = self.fast_forward_speedup,
        );
        if self.degraded {
            let requested = if self.threads_requested > self.threads {
                format!(
                    " ({req} requested, {avail} available — oversubscribed workers \
                     would only have slowed the sweep down)",
                    req = self.threads_requested,
                    avail = self.threads_available,
                )
            } else {
                String::new()
            };
            format!(
                "{head}\n\
                 warning: only 1 worker thread usable{requested} — the parallel sweep \
                 cannot demonstrate a speedup on this host (serial {srps:.1} runs/s)\n\
                 sweep and combined speedups not reported (degraded run); \
                 fast-forward kernel speedup alone: {ff:.1}x",
                srps = self.serial_runs_per_sec,
                ff = self.fast_forward_speedup,
            )
        } else {
            format!(
                "{head}\n\
                 sweep runner ({threads} threads): {prps:.1} runs/s vs serial {srps:.1} runs/s \
                 => {ss:.2}x speedup\n\
                 combined speedup over per-cycle serial baseline: {combined:.1}x",
                threads = self.threads,
                prps = self.parallel_runs_per_sec,
                srps = self.serial_runs_per_sec,
                ss = self.sweep_speedup,
                combined = self.combined_speedup,
            )
        }
    }
}

/// Median-of-three wall-clock timing of `f` (seconds).
pub(crate) fn time_runs<F: FnMut()>(f: F) -> f64 {
    median_of(3, f)
}

/// Runs `f` untimed (at least once) until `min_seconds` of wall clock
/// has accumulated. A single priming run is not enough on an otherwise
/// idle host: the CPU sits in a low-power state and the first few
/// hundred microseconds of work measure the frequency ramp, not the
/// kernel. Sustained warm-up lets the timed medians see steady-state
/// clocks, caches, and branch predictors.
fn warm_up<F: FnMut()>(mut f: F, min_seconds: f64) {
    let t = Instant::now();
    loop {
        f();
        if t.elapsed().as_secs_f64() >= min_seconds {
            return;
        }
    }
}

/// Minimum-of-`n` wall-clock timing of `f` (seconds).
///
/// The minimum is the standard estimator for the cost of a fixed,
/// deterministic kernel on a shared host: every disturbance (preemption
/// by another tenant, a frequency dip, an interrupt) only ever *adds*
/// time, so the least-disturbed sample is the closest to the code's
/// true cost. `--check`'s wall-clock line deliberately does NOT use
/// this: it keeps the median, where a lone lucky sample cannot mask a
/// real slowdown.
fn min_of<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t = Instant::now();
        f();
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Median-of-`n` wall-clock timing of `f` (seconds).
fn median_of<F: FnMut()>(n: usize, mut f: F) -> f64 {
    let mut samples = vec![0.0f64; n]; // alloc-ok: harness setup
    for s in &mut samples {
        let t = Instant::now();
        f();
        *s = t.elapsed().as_secs_f64();
    }
    samples.sort_by(f64::total_cmp);
    samples[n / 2]
}

/// Runs the fixed self-benchmark. `quick` shrinks the workload for smoke
/// runs (CI, tests); the reported *ratios* are meaningful either way.
///
/// # Panics
///
/// Panics if the benchmark workload fails to simulate or the two
/// stepping modes disagree (they are bit-identical by contract).
pub fn run(quick: bool) -> PerfReport {
    let (iters, cost) = if quick { (48i64, 2_000u32) } else { (160, 10_000) };
    let nest = fig21_loop(iters);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let scheme = ProcessOriented::new(8);
    let inflate = move |_id, _pid| cost;
    let compiled = scheme.compile_with(&nest, &graph, &space, Some(&inflate));
    let config = MachineConfig {
        sync_transport: scheme.natural_transport(),
        ..MachineConfig::with_processors(8)
    };

    let fast = compiled.run(&config).expect("perf workload must complete");
    let reference = compiled
        .run_with(&config, StepMode::Reference)
        .expect("perf workload must complete");
    assert_eq!(fast.stats, reference.stats, "stepping modes must be bit-identical");
    let simulated_cycles = fast.stats.makespan;

    warm_up(|| drop(compiled.run(&config).expect("perf workload must complete")), 1.0);
    let fast_seconds = min_of(15, || {
        let _ = compiled.run(&config).expect("perf workload must complete");
    });
    let reference_seconds = min_of(3, || {
        let _ = compiled
            .run_with(&config, StepMode::Reference)
            .expect("perf workload must complete");
    });

    // Sweep batch: the same loop classified under chaos faults at many
    // seeds. Bound max_cycles so wedged faulted runs time out quickly.
    let sweep_runs = if quick { 8 } else { 32 };
    let sweep_config =
        MachineConfig { max_cycles: simulated_cycles.saturating_mul(4), ..config.clone() };
    let jobs = |n: usize| -> Vec<MachineConfig> {
        (0..n as u64)
            .map(|seed| sweep_config.clone().with_faults(FaultPlan::chaos(seed, 40)))
            .collect()
    };
    // Shared hosts drift between speed phases that last whole seconds;
    // timing all serial samples and then all parallel samples can land
    // the two sides in different phases and manufacture (or hide) a
    // speedup. Interleave the samples A/B and keep each side's minimum,
    // so both estimates come from the host's best observed phase.
    warm_up(
        || {
            let _ = sweep::runs_serial(jobs(sweep_runs), |c| classify_run(&compiled, &c));
        },
        0.5,
    );
    let mut serial_seconds = f64::INFINITY;
    let mut parallel_seconds = f64::INFINITY;
    for _ in 0..3 {
        serial_seconds = serial_seconds.min(min_of(1, || {
            let _ = sweep::runs_serial(jobs(sweep_runs), |c| classify_run(&compiled, &c));
        }));
        parallel_seconds = parallel_seconds.min(min_of(1, || {
            let _ = sweep::runs(jobs(sweep_runs), |c| classify_run(&compiled, &c));
        }));
    }

    let fast_cycles_per_sec = simulated_cycles as f64 / fast_seconds;
    let reference_cycles_per_sec = simulated_cycles as f64 / reference_seconds;
    let serial_runs_per_sec = sweep_runs as f64 / serial_seconds;
    let parallel_runs_per_sec = sweep_runs as f64 / parallel_seconds;
    let fast_forward_speedup = reference_seconds / fast_seconds;
    let threads_available = datasync_core::par::available_threads();
    let threads = datasync_core::par::default_threads();
    // What the environment *asked for*, before the hardware cap — so a
    // clamped run is visible in the report instead of silently looking
    // like a deliberate `threads: 1` configuration.
    let threads_requested = std::env::var("DATASYNC_THREADS")
        .ok()
        .and_then(|v| datasync_core::par::threads_from_env(&v).ok())
        .unwrap_or(threads_available);
    let degraded = threads <= 1;
    // A single worker cannot demonstrate a sweep speedup: the measured
    // ratio is timer noise around 1.0. Report null rather than a win.
    let sweep_speedup = if degraded { f64::NAN } else { serial_seconds / parallel_seconds };
    PerfReport {
        workload: format!(
            "fig 2.1 Doacross, process-oriented (X=8), {iters} iterations, \
             {cost}cy statements, 8 processors"
        ),
        threads,
        threads_requested,
        threads_available,
        simulated_cycles,
        fast_seconds,
        reference_seconds,
        fast_cycles_per_sec,
        reference_cycles_per_sec,
        fast_forward_speedup,
        sweep_runs,
        serial_runs_per_sec,
        parallel_runs_per_sec,
        sweep_speedup,
        combined_speedup: fast_forward_speedup * sweep_speedup,
        degraded,
    }
}

/// Outcome of `datasync perf --check`: the host-independent gate plus
/// a wall-clock comparison against a committed baseline report, which
/// is reported but never gates (the baseline was recorded on other
/// hardware).
#[derive(Debug, Clone)]
pub struct PerfCheck {
    /// The gate: processor visits per simulator operation and image
    /// words per broadcast must not grow with the machine.
    /// Deterministic, so it gates exactly.
    pub gate: VisitGate,
    /// `fast_cycles_per_sec` from the baseline JSON.
    pub baseline_cycles_per_sec: f64,
    /// Freshly measured fast-forward throughput (warm-up + median of 5).
    pub measured_cycles_per_sec: f64,
    /// `measured / baseline` (1.0 = exactly the baseline).
    pub ratio: f64,
    /// A warning when the baseline claims multiple sweep threads yet its
    /// parallel sweep did not beat serial: that baseline was measured on
    /// an oversubscribed or contended host and its sweep numbers
    /// advertise a parallel win that never happened.
    pub sweep_warning: Option<String>,
}

impl PerfCheck {
    /// Whether the kernel's event cost is still P-independent.
    pub fn pass(&self) -> bool {
        self.gate.pass()
    }

    /// The gate's table and verdict, then the wall-clock line (plus the
    /// sweep warning, if any).
    pub fn summary(&self) -> String {
        let mut text = format!(
            "{gate}\nwall clock (reported, not gating): fast-forward {measured:.0} cycles/s \
             vs baseline {base:.0} cycles/s ({pct:+.1}%)",
            gate = self.gate.summary(),
            measured = self.measured_cycles_per_sec,
            base = self.baseline_cycles_per_sec,
            pct = (self.ratio - 1.0) * 100.0,
        );
        if let Some(w) = &self.sweep_warning {
            text.push('\n');
            text.push_str(w);
        }
        text
    }
}

/// Reads `fast_cycles_per_sec` from a parsed baseline report.
///
/// # Errors
///
/// Errors when the key is missing or its value is not a positive number
/// (a `null` baseline cannot gate anything).
fn baseline_cycles_per_sec(baseline: &Json) -> Result<f64, String> {
    const KEY: &str = "fast_cycles_per_sec";
    let field = baseline
        .get(KEY)
        .ok_or_else(|| format!("baseline JSON has no \"{KEY}\" field"))?;
    match field.as_f64() {
        Some(value) if value > 0.0 => Ok(value),
        Some(value) => Err(format!("baseline \"{KEY}\" = {value} cannot gate a check")),
        None => Err(format!("baseline \"{KEY}\" is not a number")),
    }
}

/// Builds the sweep-consistency warning for a baseline report: a claim
/// of `threads > 1` together with `sweep_speedup <= 1` means the
/// "parallel" sweep lost to the serial one — an oversubscribed or
/// contended measurement host, not a real configuration. No warning
/// when either key is absent or `null` (degraded reports write `null`
/// for speedups they cannot honestly claim).
fn sweep_warning_for(baseline: &Json) -> Option<String> {
    let threads = baseline.get("threads")?.as_f64()?;
    let speedup = baseline.get("sweep_speedup")?.as_f64()?;
    if threads > 1.0 && speedup <= 1.0 {
        Some(format!(
            "warning: baseline claims {threads:.0} sweep threads but sweep_speedup is \
             {speedup:.3} — its parallel sweep did not beat serial, so it was measured \
             on an oversubscribed or contended host; regenerate the baseline"
        ))
    } else {
        None
    }
}

/// Runs the P-independence gate ([`crate::scale::visit_gate`]) and
/// measures the fast-forward kernel against `baseline_json` (the
/// contents of a committed `BENCH_sim.json`). Only the gate decides the
/// verdict; the wall-clock ratio (sustained warm-up, then the median of
/// five timed runs) is reported beside it.
///
/// # Errors
///
/// Errors when the baseline JSON is unusable; a *failing gate* is a
/// `PerfCheck` with `pass() == false`, not an `Err`.
///
/// # Panics
///
/// Panics if a benchmark workload fails to simulate.
pub fn check(baseline_json: &str, quick: bool) -> Result<PerfCheck, String> {
    let baseline_doc = json::parse(baseline_json).map_err(|e| format!("baseline JSON: {e}"))?;
    let baseline = baseline_cycles_per_sec(&baseline_doc)?;
    let (iters, cost) = if quick { (48i64, 2_000u32) } else { (160, 10_000) };
    let nest = fig21_loop(iters);
    let graph = analyze(&nest);
    let space = IterSpace::of(&nest);
    let scheme = ProcessOriented::new(8);
    let inflate = move |_id, _pid| cost;
    let compiled = scheme.compile_with(&nest, &graph, &space, Some(&inflate));
    let config = MachineConfig {
        sync_transport: scheme.natural_transport(),
        ..MachineConfig::with_processors(8)
    };
    // Warm-up (untimed, sustained), then the reported median.
    let warm = compiled.run(&config).expect("perf workload must complete");
    let simulated_cycles = warm.stats.makespan;
    warm_up(|| drop(compiled.run(&config).expect("perf workload must complete")), 1.0);
    let seconds = median_of(5, || {
        let _ = compiled.run(&config).expect("perf workload must complete");
    });
    let measured = simulated_cycles as f64 / seconds;
    Ok(PerfCheck {
        gate: crate::scale::visit_gate(quick),
        baseline_cycles_per_sec: baseline,
        measured_cycles_per_sec: measured,
        ratio: measured / baseline,
        sweep_warning: sweep_warning_for(&baseline_doc),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_is_sane_and_serializes() {
        let r = run(true);
        assert!(r.simulated_cycles > 0);
        assert!(r.fast_seconds > 0.0 && r.reference_seconds > 0.0);
        // The acceptance bar is >= 5x on the full workload; the quick
        // smoke workload still clears a lenient 2x even on loaded CI.
        assert!(
            r.fast_forward_speedup >= 2.0,
            "fast-forward speedup {} must be >= 2x",
            r.fast_forward_speedup
        );
        let json = r.to_json();
        for key in [
            "fast_forward_speedup",
            "sweep_speedup",
            "combined_speedup",
            "simulated_cycles",
            "threads_requested",
            "threads_available",
            "degraded",
        ] {
            assert!(json.contains(&format!("\"{key}\"")), "missing {key} in {json}");
        }
        // The used count can never exceed the hardware: oversubscribing
        // CPU-bound workers is what produced a published sweep_speedup
        // of 0.969 at a claimed 4 threads.
        assert!(r.threads <= r.threads_available, "{} > {}", r.threads, r.threads_available);
        assert!(r.summary().contains("speedup"));
        if r.degraded {
            // Single-threaded host: sweep/combined must not be sold as wins.
            assert_eq!(r.threads, 1);
            assert!(json.contains("\"sweep_speedup\": null"), "{json}");
            assert!(json.contains("\"combined_speedup\": null"), "{json}");
            assert!(json.contains("\"degraded\": true"), "{json}");
            assert!(r.summary().contains("warning"), "{}", r.summary());
        } else {
            assert!(r.sweep_speedup.is_finite());
            assert!(json.contains("\"degraded\": false"), "{json}");
        }
    }

    #[test]
    fn baseline_parsing_accepts_reports_and_rejects_junk() {
        let r = run(true);
        let read = |doc: &str| baseline_cycles_per_sec(&json::parse(doc).unwrap());
        let parsed = read(&r.to_json()).unwrap();
        assert!(
            (parsed - r.fast_cycles_per_sec).abs() / r.fast_cycles_per_sec < 0.01,
            "parsed {parsed} vs reported {}",
            r.fast_cycles_per_sec
        );
        assert!(read("{}").is_err());
        assert!(read("{\"fast_cycles_per_sec\": null}").is_err());
        assert!(read("{\"fast_cycles_per_sec\": 0.000}").is_err());
        assert!(read("{\"fast_cycles_per_sec\": -3.0}").is_err());
        assert_eq!(read("{\"fast_cycles_per_sec\": 2.5e9}").unwrap(), 2.5e9);
        // Key order and nesting no longer matter: a nested report that
        // repeats the key cannot shadow the top-level one.
        let nested = "{\"old\": {\"fast_cycles_per_sec\": 1.0}, \"fast_cycles_per_sec\": 7}";
        assert_eq!(read(nested).unwrap(), 7.0);
    }

    #[test]
    fn check_gates_on_visits_per_op_not_on_wall_clock() {
        // The gate is deterministic and passes on every host; the
        // wall-clock ratio is reported beside it and never fails the
        // check, however absurd the baseline.
        let ok = check("{\"fast_cycles_per_sec\": 1000.0}", true).unwrap();
        assert!(ok.pass(), "{}", ok.summary());
        assert!(ok.summary().contains("=> ok"), "{}", ok.summary());
        assert!(ok.summary().contains("not gating"), "{}", ok.summary());
        let slow = check("{\"fast_cycles_per_sec\": 1e15}", true).unwrap();
        assert!(slow.pass(), "wall clock must not gate: {}", slow.summary());
        assert_eq!(slow.gate.rows.len(), ok.gate.rows.len());
        for (a, b) in slow.gate.rows.iter().zip(&ok.gate.rows) {
            assert_eq!((a.small, a.large), (b.small, b.large), "the gate is deterministic");
        }
        assert!(check("not json at all", true).is_err());

        // A kernel whose event cost grows with P fails it.
        let mut bad = ok.clone();
        bad.gate.rows[0].large = bad.gate.rows[0].small * 16.0;
        assert!(!bad.pass(), "{}", bad.summary());
        assert!(bad.summary().contains("REGRESSION"), "{}", bad.summary());
        assert!(bad.summary().contains("P-DEPENDENT"), "{}", bad.summary());

        // So does one whose broadcasts write more image words on the
        // bigger machine; virtual images write exactly one.
        assert_eq!(ok.gate.hotspot_words, (1.0, 1.0), "{}", ok.summary());
        let mut dense = ok;
        dense.gate.hotspot_words.1 = 128.0;
        assert!(!dense.pass(), "{}", dense.summary());
        assert!(dense.summary().contains("P-DEPENDENT"), "{}", dense.summary());
    }

    #[test]
    fn check_warns_when_a_multithread_baseline_lost_its_sweep() {
        // The shipped-bug shape: 4 claimed threads, parallel slower than
        // serial. The gate still passes, but the verdict must carry the
        // inconsistency warning.
        let bad = "{\"fast_cycles_per_sec\": 1000.0, \"threads\": 4, \"sweep_speedup\": 0.969}";
        let c = check(bad, true).unwrap();
        assert!(c.pass(), "{}", c.summary());
        assert!(c.sweep_warning.is_some(), "{}", c.summary());
        assert!(c.summary().contains("0.969"), "{}", c.summary());
        assert!(c.summary().contains("warning"), "{}", c.summary());

        // A healthy multi-thread baseline: no warning.
        let warning = |doc: &str| sweep_warning_for(&json::parse(doc).unwrap());
        assert!(warning("{\"threads\": 4, \"sweep_speedup\": 1.8}").is_none());
        // An honest degraded baseline (1 thread, null sweep): no warning.
        assert!(warning("{\"threads\": 1, \"sweep_speedup\": null}").is_none());
        assert!(warning("{\"threads\": 1, \"sweep_speedup\": 0.97}").is_none());
        // Pre-fix reports without the keys at all: no warning.
        assert!(warning("{\"fast_cycles_per_sec\": 1000.0}").is_none());
    }

    #[test]
    fn degraded_report_nullifies_sweep_claims() {
        let mut r = run(true);
        // Force the degraded rendering path regardless of host core count.
        r.degraded = true;
        r.sweep_speedup = f64::NAN;
        r.combined_speedup = f64::NAN;
        let json = r.to_json();
        assert!(json.contains("\"sweep_speedup\": null"), "{json}");
        assert!(json.contains("\"combined_speedup\": null"), "{json}");
        assert!(json.contains("\"degraded\": true"), "{json}");
        let s = r.summary();
        assert!(s.contains("warning"), "{s}");
        assert!(!s.contains("combined speedup over per-cycle"), "{s}");
    }
}
