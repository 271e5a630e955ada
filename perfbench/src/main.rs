//! One benchmark command for the HULK-V simulator: runs a workload for a
//! fixed wall-clock window, checks every output, and prints the metrics
//! with their units; the last line of standard output is one JSON object.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6-offload|replay --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` reports the end-to-end metrics. `--trace 1` alternates
//! untraced and traced reps and reports the per-layer metrics, taken from
//! spans around every call the benchmark makes, plus the tracing overhead.
//! See `perfbench/README.md`.

mod cpus;

use hulkv_perfbench::checks::{Checker, Obs};
use hulkv_perfbench::report::{self, SETUP_REP};
use hulkv_perfbench::spans::Spans;
use hulkv_perfbench::stats::{beyond, iqr_share, median, tail};
use hulkv_perfbench::workloads::{self, call, layer, Workload};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Default workload seed.
const DEFAULT_SEED: u64 = 1;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: u32 = 4;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// Peak resident set of this process, in MB (0 where unavailable).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs one rep inside a root span and returns its wall time in seconds
/// and the guest instructions it retired. Checks run after the clock stops.
fn run_rep(wl: &mut dyn Workload, spans: &mut Spans, checker: &mut Checker) -> (f64, u64) {
    let mut obs: Vec<Obs> = Vec::new();
    let t = Instant::now();
    spans.enter(call::REP, layer::BENCH);
    wl.rep(spans, &mut obs);
    spans.exit();
    let wall = t.elapsed().as_secs_f64();
    let instructions = wl.settle(&mut obs);
    checker.record(&obs);
    (wall, instructions)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut checker = Checker::new();
    let mut spans = Spans::new(args.trace);

    // Set-up: draw the inputs, run the set-up probe and one warm-up rep (which
    // also fixes every operation's reference outcome). Repeated, so
    // setup_s is a median.
    let spreader = cpus::Spreader::new();
    let mut setup_s = Vec::new();
    let mut wl = None;
    for i in 0..SETUPS {
        drop(wl.take());
        if let Some(s) = &spreader {
            s.move_for(i);
        }
        let t = Instant::now();
        spans.set_rep(SETUP_REP);
        let mut obs = Vec::new();
        let mut w = workloads::build(&args.workload, args.seed, &mut spans, &mut obs)
            .expect("workload name checked by parse_args");
        checker.record(&obs);
        run_rep(w.as_mut(), &mut spans, &mut checker);
        setup_s.push(t.elapsed().as_secs_f64());
        wl = Some(w);
    }
    let mut wl = wl.expect("at least one set-up");
    println!(
        "workload {} seed {}: {}",
        args.workload,
        args.seed,
        wl.describe()
    );

    // Timed reps. A traced run alternates blocks of untraced and traced
    // reps, one rep per CPU in each block, so the two are measured under the
    // same conditions and on the same CPUs.
    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut mips = Vec::new();
    let mut instructions_per_rep = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let block = spreader.as_ref().map_or(1, cpus::Spreader::len) as u32;
    let mut rep = 0u32;
    while rep < 2 * block || Instant::now() < deadline {
        let trace_this = args.trace && (rep / block) % 2 == 1;
        spans.set_enabled(trace_this);
        spans.set_rep(rep);
        if let Some(s) = &spreader {
            s.move_for(rep);
        }
        let (wall, instructions) = run_rep(wl.as_mut(), &mut spans, &mut checker);
        if trace_this {
            traced.push(wall);
        } else {
            plain.push(wall);
            mips.push(instructions as f64 / wall / 1e6);
            instructions_per_rep.push(instructions as f64);
        }
        rep += 1;
    }

    let p50 = median(&plain);
    println!(
        "ops_failed/ops_total = {}/{}; outcome fingerprint {:#018x}",
        checker.failed(),
        checker.attempted(),
        checker.fingerprint()
    );
    for f in checker.first_failures() {
        println!("  failed: {f}");
    }
    let metrics: Vec<(&str, f64, &str)> = if args.trace {
        let overhead = median(&traced) - p50;
        println!(
            "untraced wall_s_p50 {p50:.6} s (n={}), traced {:.6} s (n={}), tracing overhead {overhead:.6} s",
            plain.len(),
            median(&traced),
            traced.len()
        );
        let mut values = report::layer_timings(spans.spans());
        values.insert("trace.overhead_s", overhead);
        values.insert("guest.instructions_per_rep", median(&instructions_per_rep));
        for (name, v) in wl.counts() {
            values.insert(name, v);
        }
        let path = PathBuf::from(format!(
            "perfbench/out/spans-{}-seed{}.jsonl",
            args.workload, args.seed
        ));
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        match std::fs::write(&path, spans.to_jsonl()) {
            Ok(()) => println!(
                "{} spans written to {}",
                spans.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
        }
        println!("per-layer metrics (self_ms.* are medians per traced rep):");
        report::per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                println!("  {name:34} {v:>16.6} {unit}");
                (name, v, unit)
            })
            .collect()
    } else {
        let (tail_p, tail_v) = tail(&plain).unwrap_or((50.0, p50));
        println!(
            "wall_s_p50 {p50:.6} s over n={} reps (IQR {:.1} % of it); wall_s_tail = p{tail_p} {tail_v:.6} s ({} beyond)",
            plain.len(),
            100.0 * iqr_share(&plain).unwrap_or(0.0),
            beyond(plain.len(), tail_p)
        );
        let values = [p50, tail_v, median(&mips), median(&setup_s), peak_rss_mb()];
        report::END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), v)| {
                println!("  {name:14} {v:>14.6} {unit}");
                (name, v, unit)
            })
            .collect()
    };
    println!(
        "{}",
        report::result_line(checker.attempted(), checker.failed(), &metrics)
    );
    ExitCode::SUCCESS
}
