//! `perfbench`: the end-to-end PacketLab benchmark.
//!
//! ```text
//! perfbench --workload <fleet_ping|fleet_bwest|endpoint_monitor> --seed <n>
//!           --seconds <s> --trace <0|1> [--tiny]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` runs the workload once untraced and once with `plab-obs`
//! recording, and prints the per-layer ledger. Every run checks its
//! outputs and ends with one JSON line; a wrong output exits with code 1.
//! `--tiny` shrinks every workload for the smoke test. See README.md.

mod endpoint;
mod fleet;
mod ledger;
mod monitors;
mod probes;
mod report;
mod sys;

use report::Metrics;

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed: roster link delays and jitter, packet mix.
    pub seed: u64,
    /// Measurement budget, seconds.
    pub seconds: f64,
    /// Per-layer ledger instead of end-to-end metrics.
    pub trace: bool,
    /// Smoke-test sizes.
    pub tiny: bool,
}

/// What a workload run reports back to `main`.
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Operations attempted (fleet tasks, or endpoint commands).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
    /// Why `correct` is false, one line each.
    pub notes: Vec<String>,
    /// Median share of wall time the measuring thread sat runnable but
    /// off-CPU: load from elsewhere on the machine.
    pub runqueue_wait_share: f64,
    /// Roster threads the fleet simulator used.
    pub roster_threads: usize,
}

/// Repeat `rep` for about `seconds`: at least `min` times, then while
/// one more repetition, taking as long as the last, would end no more
/// than half a repetition past the budget.
pub fn repeat<R>(seconds: f64, min: usize, mut rep: impl FnMut() -> R) -> Vec<R> {
    let start = std::time::Instant::now();
    let mut out = Vec::new();
    let mut last_s = 0.0;
    while out.len() < min || start.elapsed().as_secs_f64() + last_s / 2.0 < seconds {
        let t = std::time::Instant::now();
        out.push(rep());
        last_s = t.elapsed().as_secs_f64();
    }
    out
}

const USAGE: &str = "usage: perfbench --workload <fleet_ping|fleet_bwest|endpoint_monitor> \
                     --seed <n> --seconds <s> --trace <0|1> [--tiny]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--tiny" {
            args.tiny = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("expected a number"))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad("expected 0 < seconds <= 120"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Before a fleet pins itself to one CPU.
    let nproc = sys::nproc();
    let out = match args.workload.as_str() {
        "fleet_ping" => fleet::run(fleet::Kind::Ping, &args),
        "fleet_bwest" => fleet::run(fleet::Kind::Bwest, &args),
        "endpoint_monitor" => endpoint::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // Contamination context: a loaded machine shows up here, not as a
    // regression.
    println!(
        "env: nproc {} roster_threads {} rustc {:?} runner.runqueue_wait_share {:.4} seed {} trace {}",
        nproc,
        out.roster_threads,
        env!("PERFBENCH_RUSTC"),
        out.runqueue_wait_share,
        args.seed,
        u8::from(args.trace),
    );
    for note in &out.notes {
        eprintln!("perfbench: WRONG OUTPUT: {note}");
    }
    println!(
        "{}",
        report::result_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    if !out.correct {
        std::process::exit(1);
    }
}
