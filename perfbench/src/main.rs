//! End-to-end and per-layer benchmark of the GRuB feed engine.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//! runs one workload in this process from one thread and prints, as the
//! last line of standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`. `--trace 0` gives the end-to-end
//! metrics, `--trace 1` the per-layer ones. Diagnostics go to standard
//! error. See `README.md` for the workloads and metrics.

mod check;
mod e2e;
mod traced;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use workloads::Workload;

/// A metric as printed: name, value and unit.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, value: f64) -> Self {
        Metric { name, unit, value }
    }
}

/// The result of a run that passed its output checks.
pub struct RunOutput {
    pub attempted: usize,
    pub metrics: Vec<Metric>,
}

/// Nearest-rank percentile `q` of an ascending, non-empty sample.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn vm_hwm_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kib: u64 = status
        .lines()
        .find_map(|l| {
            l.strip_prefix("VmHWM:")?
                .trim()
                .strip_suffix(" kB")?
                .parse()
                .ok()
        })
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib as f64 / 1024.0)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    work: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <hot-keys|ycsb-shift|write-burst> \
                     --seed <n> --seconds <s> --trace <0|1> [--work <dir>]";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut work = PathBuf::from(".perfbench");
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(format!("bad seconds {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            "--work" => work = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        work,
    })
}

/// The engine reads `GRUB_*` variables (block-cache size, parallel staging,
/// chain realism, fault injection, ...); any of them set would change the
/// program under measurement.
fn refuse_grub_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("GRUB_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: these variables change the measured program",
            set.join(", ")
        ))
    }
}

fn print_result(out: &RunOutput) {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{{}}}}}",
        out.attempted,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let result = refuse_grub_env()
        .and_then(|()| parse_args())
        .and_then(|args| {
            if args.trace {
                traced::run(args.workload, args.seed, args.seconds, &args.work)
            } else {
                e2e::run(args.workload, args.seed, args.seconds, &args.work)
            }
        });
    match result {
        Ok(out) => {
            print_result(&out);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
