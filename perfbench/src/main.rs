//! `perfbench` — the repository benchmark's measuring program.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--daemon PATH]
//! perfbench --record-sim-reference > perfbench/sim_reference.tsv
//! ```
//!
//! Prints, as the last line of standard output, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. Diagnostics
//! go to standard error. `perfbench/run.py` builds this program and
//! `eccparityd` and runs it; see `perfbench/README.md`.

mod daemon;
mod functional;
mod heap;
mod report;
mod sim;
mod stats;

use report::{Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Rounds of the functional workload in its own traced run.
const TRACED_FUNCTIONAL_ROUNDS: u64 = 20;

/// Events of the daemon pipeline's pass in every traced run.
const DAEMON_EVENTS: u64 = 200_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    daemon: Option<PathBuf>,
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "perfbench: {msg}\nusage: perfbench --workload {} --seed N --seconds S --trace 0|1 \
         [--daemon PATH]\n       perfbench --record-sim-reference",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0,
        trace: false,
        daemon: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        let number = |v: String| -> u64 {
            v.parse()
                .unwrap_or_else(|_| usage(&format!("{flag} wants an unsigned integer, got {v}")))
        };
        match flag.as_str() {
            "--workload" => a.workload = value(),
            "--seed" => a.seed = number(value()),
            "--seconds" => a.seconds = number(value()),
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace wants 0 or 1, got {other}")),
                }
            }
            "--daemon" => a.daemon = Some(PathBuf::from(value())),
            "--record-sim-reference" => {
                sim::record_reference();
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        usage(&format!("unknown workload {:?}", a.workload));
    }
    if a.seconds == 0 {
        usage("--seconds must be at least 1");
    }
    a
}

fn untraced(a: &Args, out: &mut Outcome) {
    match a.workload.as_str() {
        "sim_bin2" => sim::run(sim::Bin::Two, a.seed, a.seconds, out),
        "sim_bin1" => sim::run(sim::Bin::One, a.seed, a.seconds, out),
        _ => {
            functional::run(a.seed, stats::Window::seconds(a.seconds), false, out);
        }
    }
    out.set("peak_heap_mb", heap::peak_mb());
}

/// The traced run: the workload's own pipeline untraced then traced on
/// the same inputs (their difference is the tracing overhead), plus a
/// smaller traced companion pass of each other pipeline, the daemon's
/// included, so that every per-layer metric is measured in every traced
/// run.
fn traced(a: &Args, out: &mut Outcome) {
    let bin = a
        .daemon
        .clone()
        .unwrap_or_else(|| usage("traced runs need --daemon PATH"));
    let sim_bin = match a.workload.as_str() {
        "sim_bin2" => Some(sim::Bin::Two),
        "sim_bin1" => Some(sim::Bin::One),
        _ => None,
    };

    // Untraced baselines of the own pipeline, with `obs` recording off.
    let sim_cells = match sim_bin {
        Some(b) => sim::pass_cells(b, a.seed),
        None => sim::companion_cells(a.seed),
    };
    let (sim_expected, sim_untraced_s) = sim::untraced(&sim_cells);
    let func_rounds = if a.workload == "functional" {
        TRACED_FUNCTIONAL_ROUNDS
    } else {
        1
    };
    let mut baseline = Outcome::default();
    let (_, func_untraced_s) = functional::run(
        a.seed,
        stats::Window::times(func_rounds),
        false,
        &mut baseline,
    );
    out.absorb(&baseline);

    obs::metrics::set_enabled(true);
    let (sim_wall, sim_sum) = sim::traced(&sim_cells, &sim_expected, out);
    let (func_layers, func_wall) =
        functional::run(a.seed, stats::Window::times(func_rounds), true, out);
    daemon::traced(&bin, a.seed, DAEMON_EVENTS, out);

    let (wall, sum, untraced_wall) = match sim_bin {
        Some(_) => (sim_wall, sim_sum, sim_untraced_s),
        None => (func_wall, func_layers.busy_s(), func_untraced_s),
    };
    out.set("trace.wall_s", wall);
    out.set("trace.layer_sum_s", sum);
    out.set("trace.overhead_s", wall - untraced_wall);
    eprintln!(
        "perfbench: traced {:.3} s vs untraced {:.3} s; layers cover {:.1}% of the traced wall",
        wall,
        untraced_wall,
        100.0 * sum / wall
    );
}

fn main() {
    let a = parse_args();
    obs::metrics::set_enabled(false);
    let mut out = Outcome::default();
    let catalogue: &[(&str, &str)] = if a.trace {
        traced(&a, &mut out);
        &PER_LAYER
    } else {
        untraced(&a, &mut out);
        &END_TO_END
    };
    match out.render(catalogue) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: no result: {e}");
            std::process::exit(1);
        }
    }
}
