//! The untraced end-to-end run: whole engine passes over the workload's
//! inputs, one after another from one thread, until the run time is spent.

use std::path::Path;
use std::time::{Duration, Instant};

use grub_chain::Address;
use grub_core::provider::StorageProvider;
use grub_engine::{EngineConfig, EngineReport, FeedEngine, FeedSpec};
use grub_store::Options;

use crate::check::{ensure, records_match};
use crate::workloads::{generate, FeedInput, Workload, SHARDS};
use crate::{percentile, vm_hwm_mib, Metric, RunOutput};

/// Engine builds per run at the least, so `setup_s` is a median of several.
const MIN_PASSES: usize = 5;
/// Scheduler rounds per run at the least, so ten or more lie beyond p99.
const MIN_ROUNDS: usize = 1_000;

/// One engine pass: a fresh engine over fresh stores, run to the end.
pub struct Pass {
    pub report: EngineReport,
    pub setup: Duration,
    pub run: Duration,
    /// Blocks and transactions the run (not the set-up) mined.
    pub blocks: u64,
    pub txs: usize,
}

/// Empties `dir`, the home of every SP store of a pass.
pub fn reset_dir(dir: &Path) -> Result<(), String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clearing {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))
}

/// Builds the engine (timed as set-up) and runs it to the end (timed as
/// the run). Cloning the inputs and clearing the stores is not timed.
pub fn engine_pass(fleet: &[FeedInput], dir: &Path) -> Result<Pass, String> {
    reset_dir(dir)?;
    let specs: Vec<FeedSpec> = fleet
        .iter()
        .map(|f| FeedSpec::from_source(f.tenant.clone(), f.config(dir), f.source.clone_box()))
        .collect();
    let started = Instant::now();
    let engine = FeedEngine::new(&EngineConfig::new(SHARDS), specs)
        .map_err(|e| format!("engine set-up failed: {e}"))?;
    let setup = started.elapsed();
    let height = engine.chain().height();
    let started = Instant::now();
    let (report, chain) = engine
        .run_with_chain()
        .map_err(|e| format!("engine run failed: {e}"))?;
    let run = started.elapsed();
    let txs = chain
        .blocks()
        .iter()
        .filter(|b| b.number > height)
        .map(|b| b.receipts.len())
        .sum();
    Ok(Pass {
        report,
        setup,
        run,
        blocks: chain.height() - height,
        txs,
    })
}

/// Checks on one engine report: every generated op completed, no delivery
/// rejected, and the tenants' batch shares partition each shard's totals.
pub fn check_report(report: &EngineReport, fleet: &[FeedInput]) -> Result<(), String> {
    let generated: usize = fleet.iter().map(|f| f.ops).sum();
    ensure(report.total_ops() == generated, || {
        format!(
            "{} ops completed, {generated} generated",
            report.total_ops()
        )
    })?;
    ensure(report.failed_delivers() == 0, || {
        format!("{} deliveries rejected", report.failed_delivers())
    })?;
    for shard in 0..report.shard_update_gas.len() {
        let tenants = report.tenants.iter().filter(|t| t.shard == shard);
        let update: u64 = tenants.clone().map(|t| t.batched_update_gas).sum();
        let deliver: u64 = tenants.map(|t| t.batched_deliver_gas).sum();
        ensure(update == report.shard_update_gas[shard], || {
            format!(
                "shard {shard}: update shares sum to {update}, not {}",
                report.shard_update_gas[shard]
            )
        })?;
        ensure(deliver == report.shard_deliver_gas[shard], || {
            format!(
                "shard {shard}: deliver shares sum to {deliver}, not {}",
                report.shard_deliver_gas[shard]
            )
        })?;
    }
    Ok(())
}

/// Reopens every feed's SP store under `dir` and compares its records with
/// the reference.
pub fn reopen_and_check(fleet: &[FeedInput], dir: &Path) -> Result<(), String> {
    for feed in fleet {
        let sp = StorageProvider::open_at(
            Address::derive("perfbench/reopen"),
            dir.join(&feed.tenant),
            Options::default(),
        )
        .map_err(|e| format!("{}: reopening the SP store failed: {e}", feed.tenant))?;
        let records = sp
            .live_records()
            .map_err(|e| format!("{}: scanning the SP store failed: {e}", feed.tenant))?;
        records_match(
            &format!("{} SP store", feed.tenant),
            records.into_iter().map(|(_, key, value)| (key, value)),
            &feed.reference(),
        )?;
    }
    Ok(())
}

pub fn run(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<RunOutput, String> {
    let dir = work.join("stores");
    let fleet = generate(workload, seed);
    let per_pass: usize = fleet.iter().map(|f| f.ops).sum();
    let mut setups = Vec::new();
    let mut rounds = Vec::new();
    let mut run_time = Duration::ZERO;
    let mut pass_rates = Vec::new();
    let mut gas_per_op = None;
    let started = Instant::now();
    while setups.len() < MIN_PASSES
        || rounds.len() < MIN_ROUNDS
        || started.elapsed().as_secs_f64() < seconds
    {
        let pass = engine_pass(&fleet, &dir)?;
        check_report(&pass.report, &fleet)?;
        let gas = pass.report.feed_gas_per_op();
        ensure(gas_per_op.is_none_or(|g| g == gas), || {
            "feed Gas per op differs between passes over the same inputs".into()
        })?;
        gas_per_op = Some(gas);
        setups.push(pass.setup.as_secs_f64());
        run_time += pass.run;
        pass_rates.push(per_pass as f64 / pass.run.as_secs_f64());
        eprintln!(
            "pass {}: set-up {:.3} s, run {:.3} s",
            setups.len(),
            pass.setup.as_secs_f64(),
            pass.run.as_secs_f64()
        );
        rounds.extend(
            pass.report
                .metrics
                .iter()
                .map(|m| m.wall_clock_micros as f64 / 1e3),
        );
    }
    let peak_rss = vm_hwm_mib()?;
    let passes = setups.len();
    drop(fleet);
    // The reference is rebuilt from freshly generated inputs, after the
    // measured part of the run.
    reopen_and_check(&generate(workload, seed), &dir)?;
    setups.sort_by(f64::total_cmp);
    pass_rates.sort_by(f64::total_cmp);
    rounds.sort_by(f64::total_cmp);
    let ops = per_pass * passes;
    eprintln!(
        "{}: {passes} passes, {ops} ops, {} rounds, {:.2} s running",
        workload.name(),
        rounds.len(),
        run_time.as_secs_f64()
    );
    Ok(RunOutput {
        attempted: ops,
        metrics: vec![
            Metric::new("setup_s", "s", percentile(&setups, 0.5)),
            Metric::new("ops_per_s", "1/s", percentile(&pass_rates, 0.5)),
            Metric::new("round_ms_p50", "ms", percentile(&rounds, 0.5)),
            Metric::new("round_ms_p99", "ms", percentile(&rounds, 0.99)),
            Metric::new("feed_gas_per_op", "gas", gas_per_op.unwrap_or(0.0)),
            Metric::new("peak_rss_mb", "MiB", peak_rss),
        ],
    })
}
