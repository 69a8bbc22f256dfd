//! The traced run: per-layer metrics.
//!
//! The workload's inputs are driven through the single-feed staged API with
//! a span around each call into a layer; after the pass, each epoch's
//! writes, reads and update chunks are replayed into a standalone Merkle
//! tree, store and section encoder, also under spans. Engine-level counts
//! come from one untraced engine pass. The tracing overhead is measured
//! against the same staged loop run without spans.

use std::io::{Read as _, Seek as _, SeekFrom, Write as _};
use std::path::Path;
use std::time::Instant;

use grub_chain::codec::encode_sections;
use grub_chain::{Address, Blockchain, ChainConfig};
use grub_core::system::{DriverIdentity, EpochDriver};
use grub_core::ReplState;
use grub_merkle::{record_value_hash, MerkleKv, ProofKey, TreeOp};
use grub_store::{Db, Options};
use grub_workload::{Op, OpSource};

use crate::check::{ensure, records_match};
use crate::e2e::{check_report, engine_pass, reopen_and_check, reset_dir};
use crate::workloads::{generate, FeedInput, Workload};
use crate::{Metric, RunOutput};

/// Key and value bytes a replay store takes between two explicit flushes:
/// half the default memtable, which leaves room for the memtable's
/// per-entry overhead, so the memtable never fills inside a timed `put`.
const FLUSH_BYTES: usize = 512 << 10;

struct Span {
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory spans, written out once the run ends.
struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn begin(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span.
    fn span<T>(&mut self, name: &'static str, parent: Option<usize>, f: impl FnOnce() -> T) -> T {
        let id = self.begin(name, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Per name: (spans, total ns, self ns), self time being span time
    /// minus the time of its child spans.
    fn summary(&self) -> Vec<(&'static str, usize, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: Vec<(&'static str, usize, u64, u64)> = Vec::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let total = s.end_ns - s.start_ns;
            match out.iter_mut().find(|e| e.0 == s.name) {
                Some(e) => {
                    e.1 += 1;
                    e.2 += total;
                    e.3 += total - child;
                }
                None => out.push((s.name, 1, total, total - child)),
            }
        }
        out
    }

    fn write(&self, path: &Path) -> Result<(), String> {
        let err = |e: std::io::Error| format!("writing {}: {e}", path.display());
        let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(err)?);
        writeln!(out, "id\tparent\tname\tstart_ns\tend_ns").map_err(err)?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            writeln!(
                out,
                "{i}\t{parent}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns
            )
            .map_err(err)?;
        }
        out.flush().map_err(err)
    }
}

/// Counters of one traced staged pass.
#[derive(Default)]
struct Counts {
    ops: usize,
    payload_bytes: usize,
    write_syscalls: u64,
    bytes_written: u64,
    nodes_rehashed: usize,
    gets: usize,
    puts: usize,
    cache_hits: u64,
    cache_misses: u64,
    block_reads: u64,
    bloom_skips: u64,
}

/// A feed's standalone replay targets.
struct Replay {
    tree: MerkleKv,
    db: Db,
    /// Key and value bytes put since the last flush.
    unflushed: usize,
    /// The store's flush count after the explicit flushes so far.
    flushes: u64,
}

impl Replay {
    /// A store and tree holding the feed's preload, as its SP does.
    fn preloaded(feed: &FeedInput, dir: &Path) -> Result<Self, String> {
        let mut db = Db::open(dir.join(&feed.tenant), Options::default())
            .map_err(err("opening the replay store"))?;
        let mut tree = MerkleKv::new();
        let mut records = Vec::with_capacity(feed.preload.len());
        for (key, value) in &feed.preload {
            records.push((
                ProofKey::new(ReplState::NotReplicated, key.as_bytes().to_vec()),
                record_value_hash(value),
            ));
            db.put(key.as_bytes().to_vec(), value.clone())
                .map_err(err("preloading the replay store"))?;
        }
        tree.insert_batch(records);
        // Start the replay with an empty memtable.
        db.flush().map_err(err("flushing the replay store"))?;
        let flushes = db.stats().2;
        Ok(Replay {
            tree,
            db,
            unflushed: 0,
            flushes,
        })
    }
}

/// The write-syscall and written-byte counters of `/proc/self/io`, read
/// through one open handle so a reading costs a single `read`.
struct IoCounters {
    file: std::fs::File,
    buf: String,
}

impl IoCounters {
    fn open() -> Result<Self, String> {
        let file = std::fs::File::open("/proc/self/io").map_err(err("opening /proc/self/io"))?;
        Ok(IoCounters {
            file,
            buf: String::with_capacity(256),
        })
    }

    fn read(&mut self) -> Result<(u64, u64), String> {
        self.buf.clear();
        self.file
            .seek(SeekFrom::Start(0))
            .map_err(err("reading /proc/self/io"))?;
        self.file
            .read_to_string(&mut self.buf)
            .map_err(err("reading /proc/self/io"))?;
        let field = |key: &str| {
            self.buf
                .lines()
                .find_map(|l| l.strip_prefix(key)?.strip_prefix(": ")?.parse().ok())
                .ok_or_else(|| format!("no {key} in /proc/self/io"))
        };
        Ok((field("syscw")?, field("wchar")?))
    }
}

fn err<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// One traced epoch, kept for the replays that follow the pass.
struct EpochRecord {
    feed: usize,
    ops: Vec<Op>,
    sections: Vec<(Address, Vec<u8>)>,
}

/// One pass of the staged single-feed loop over fresh stores: every feed
/// runs one epoch per round until its input is spent. With a tracer, each
/// call is timed, its epoch kept for [`replay`], and the drivers checked at
/// the end. Returns the wall time of the epochs.
fn staged_pass(
    fleet: &[FeedInput],
    dir: &Path,
    mut tracer: Option<&mut Tracer>,
    counts: &mut Counts,
    record: &mut Vec<EpochRecord>,
) -> Result<f64, String> {
    reset_dir(dir)?;
    let mut io = IoCounters::open()?;
    let mut chain = Blockchain::with_config(ChainConfig::default());
    let mut drivers = Vec::with_capacity(fleet.len());
    for feed in fleet {
        let config = feed.config(dir);
        let identity = DriverIdentity::tenant(format!("tenant/{}", feed.tenant));
        let mut deploy = || EpochDriver::deploy(&mut chain, &config, &identity);
        let driver = match tracer.as_deref_mut() {
            Some(t) => t.span("setup.deploy", None, deploy),
            None => deploy(),
        }
        .map_err(err("deploying a feed"))?;
        drivers.push(driver);
    }
    chain.meter_reset();
    let mut sources: Vec<Box<dyn OpSource>> = fleet.iter().map(|f| f.source.clone_box()).collect();
    let mut left: Vec<usize> = fleet.iter().map(|f| f.ops).collect();
    let mut busy_ns = 0u64;
    while left.iter().any(|&n| n > 0) {
        for (i, feed) in fleet.iter().enumerate() {
            if left[i] == 0 {
                continue;
            }
            let want = feed.epoch_ops.min(left[i]);
            left[i] -= want;
            let driver = &mut drivers[i];
            let source = &mut sources[i];
            let mut ops = Vec::with_capacity(want);
            let mut pull = |ops: &mut Vec<Op>| -> Result<(), String> {
                for _ in 0..want {
                    ops.push(source.next_op().ok_or("an input ended early")?);
                }
                Ok(())
            };
            let Some(t) = tracer.as_deref_mut() else {
                let started = Instant::now();
                pull(&mut ops)?;
                for op in &ops {
                    driver.push_op(op);
                }
                let staged = driver.stage_update().map_err(err("stage_update"))?;
                driver.submit_update(&mut chain, &staged);
                driver
                    .run_read_phase(&mut chain, &staged)
                    .map_err(err("run_read_phase"))?;
                busy_ns += started.elapsed().as_nanos() as u64;
                continue;
            };
            let epoch = t.begin("epoch", None);
            t.span("workload.next_op", Some(epoch), || pull(&mut ops))?;
            t.span("policy.push_op", Some(epoch), || {
                for op in &ops {
                    driver.push_op(op);
                }
            });
            let (calls0, bytes0) = io.read()?;
            let staged = t.span("stage.update", Some(epoch), || driver.stage_update());
            let (calls1, bytes1) = io.read()?;
            let staged = staged.map_err(err("stage_update"))?;
            t.span("chain.submit", Some(epoch), || {
                driver.submit_update(&mut chain, &staged)
            });
            t.span("chain.read_phase", Some(epoch), || {
                driver.run_read_phase(&mut chain, &staged)
            })
            .map_err(err("run_read_phase"))?;
            t.end(epoch);
            busy_ns += t.spans[epoch].end_ns - t.spans[epoch].start_ns;
            counts.ops += want;
            counts.payload_bytes += staged.payload_bytes();
            counts.write_syscalls += calls1 - calls0;
            counts.bytes_written += bytes1 - bytes0;
            let manager = driver.manager();
            record.push(EpochRecord {
                feed: i,
                ops,
                sections: staged.chunks.into_iter().map(|c| (manager, c)).collect(),
            });
        }
    }
    if tracer.is_some() {
        check_drivers(fleet, &chain, &drivers)?;
    }
    Ok(busy_ns as f64 / 1e9)
}

/// Replays a traced pass's epochs, in order, into a standalone section
/// encoder, Merkle tree and store per feed, each loaded with the feed's
/// preload first.
fn replay(
    fleet: &[FeedInput],
    dir: &Path,
    epochs: Vec<EpochRecord>,
    t: &mut Tracer,
    counts: &mut Counts,
) -> Result<(), String> {
    reset_dir(dir)?;
    let mut replays = fleet
        .iter()
        .map(|feed| Replay::preloaded(feed, dir))
        .collect::<Result<Vec<_>, _>>()?;
    for epoch in epochs {
        let replay = &mut replays[epoch.feed];
        let root = t.begin("replay", None);
        if !epoch.sections.is_empty() {
            t.span("codec.encode_sections", Some(root), || {
                encode_sections(&epoch.sections)
            });
        }
        let writes: Vec<(String, Vec<u8>)> = epoch
            .ops
            .iter()
            .filter_map(|op| match op {
                Op::Write { key, value } => Some((key.clone(), value.materialize())),
                _ => None,
            })
            .collect();
        let tree_ops: Vec<TreeOp> = writes
            .iter()
            .map(|(k, v)| {
                TreeOp::Insert(
                    ProofKey::new(ReplState::NotReplicated, k.as_bytes().to_vec()),
                    record_value_hash(v),
                )
            })
            .collect();
        if !tree_ops.is_empty() {
            counts.nodes_rehashed += t.span("merkle.apply_batch", Some(root), || {
                replay.tree.apply_batch(tree_ops)
            });
        }
        if !writes.is_empty() {
            let bytes: usize = writes.iter().map(|(k, v)| k.len() + v.len()).sum();
            if replay.unflushed + bytes > FLUSH_BYTES {
                t.span("store.flush", Some(root), || replay.db.flush())
                    .map_err(err("replay flush"))?;
                replay.unflushed = 0;
                replay.flushes += 1;
            }
            replay.unflushed += bytes;
            counts.puts += writes.len();
            t.span("store.put", Some(root), || {
                writes
                    .into_iter()
                    .try_for_each(|(k, v)| replay.db.put(k.into_bytes(), v))
            })
            .map_err(err("replay put"))?;
        }
        let reads: Vec<&str> = epoch
            .ops
            .iter()
            .filter(|op| matches!(op, Op::Read { .. }))
            .map(Op::key)
            .collect();
        if !reads.is_empty() {
            counts.gets += reads.len();
            t.span("store.get", Some(root), || {
                reads
                    .iter()
                    .try_for_each(|k| replay.db.get(k.as_bytes()).map(drop))
            })
            .map_err(err("replay get"))?;
        }
        t.end(root);
    }
    for (feed, r) in fleet.iter().zip(&replays) {
        ensure(r.db.stats().2 == r.flushes, || {
            format!("{}: the replay store flushed inside a put", feed.tenant)
        })?;
        let s = r.db.read_stats();
        counts.cache_hits += s.cache_hits;
        counts.cache_misses += s.cache_misses;
        counts.block_reads += s.block_reads;
        counts.bloom_skips += s.bloom_skips;
    }
    Ok(())
}

/// With the drivers in hand: each feed's on-chain root equals its SP's and
/// its DO's, and the DO's live records equal the reference.
fn check_drivers(
    fleet: &[FeedInput],
    chain: &Blockchain,
    drivers: &[EpochDriver],
) -> Result<(), String> {
    for (feed, driver) in fleet.iter().zip(drivers) {
        let on_chain = chain
            .static_call(driver.data_owner(), driver.manager(), "root", &[])
            .map_err(err("reading the on-chain root"))?;
        let sp = driver.provider().root();
        let owner = driver.owner().root();
        ensure(on_chain.as_slice() == sp.as_bytes(), || {
            format!("{}: on-chain root differs from the SP root", feed.tenant)
        })?;
        ensure(sp == owner, || {
            format!("{}: SP root differs from the DO root", feed.tenant)
        })?;
        records_match(
            &format!("{} DO records", feed.tenant),
            driver
                .owner()
                .live_records()
                .into_iter()
                .map(|(k, _, v)| (k, v)),
            &feed.reference(),
        )?;
    }
    Ok(())
}

pub fn run(workload: Workload, seed: u64, seconds: f64, work: &Path) -> Result<RunOutput, String> {
    let fleet = generate(workload, seed);
    let started = Instant::now();

    // Engine-level counts from one untraced engine pass.
    let stores = work.join("stores");
    let pass = engine_pass(&fleet, &stores)?;
    check_report(&pass.report, &fleet)?;
    reopen_and_check(&fleet, &stores)?;
    let report = &pass.report;
    let rounds = report.metrics.len() as f64;
    let update_sections: usize = report.metrics.iter().map(|m| m.update_sections).sum();
    let deliver_sections: usize = report.metrics.iter().map(|m| m.deliver_sections).sum();
    let update_txs: usize = report.shard_update_txs.iter().sum();
    let deliver_txs: usize = report.shard_deliver_txs.iter().sum();

    // Untraced and traced staged passes, in pairs, until the time is spent.
    let dir = work.join("staged");
    let mut tracer = Tracer {
        origin: Instant::now(),
        spans: Vec::new(),
    };
    let mut counts = Counts::default();
    let (mut plain_s, mut traced_s, mut pairs) = (0.0, 0.0, 0usize);
    while pairs == 0 || started.elapsed().as_secs_f64() < seconds {
        // Alternate which of the two goes first, so drift in the machine's
        // speed does not land on one side.
        let mut epochs = Vec::new();
        for traced in [pairs % 2 == 1, pairs % 2 == 0] {
            if traced {
                traced_s += staged_pass(&fleet, &dir, Some(&mut tracer), &mut counts, &mut epochs)?;
            } else {
                plain_s +=
                    staged_pass(&fleet, &dir, None, &mut Counts::default(), &mut Vec::new())?;
            }
        }
        replay(
            &fleet,
            &work.join("replay"),
            epochs,
            &mut tracer,
            &mut counts,
        )?;
        pairs += 1;
    }
    let spans_path = work.join(format!("spans-{}.tsv", workload.name()));
    tracer.write(&spans_path)?;

    let summary = tracer.summary();
    let total_ns = |name: &str| summary.iter().find(|e| e.0 == name).map_or(0, |e| e.2) as f64;
    let calls = |name: &str| summary.iter().find(|e| e.0 == name).map_or(0, |e| e.1) as f64;
    let per_call = |name: &str, unit_ns: f64| total_ns(name) / calls(name).max(1.0) / unit_ns;
    let ops = counts.ops as f64;
    eprintln!(
        "{}: {pairs} traced passes, {} spans written to {}",
        workload.name(),
        tracer.spans.len(),
        spans_path.display()
    );
    eprintln!(
        "{:<24}{:>10}{:>14}{:>14}",
        "span", "count", "total ms", "self ms"
    );
    for (name, count, total, own) in &summary {
        eprintln!(
            "{name:<24}{count:>10}{:>14.2}{:>14.2}",
            *total as f64 / 1e6,
            *own as f64 / 1e6
        );
    }
    let gets = counts.gets.max(1) as f64;
    let overhead = (traced_s / plain_s - 1.0) * 100.0;
    let ratio = |a: usize, b: usize| a as f64 / b.max(1) as f64;
    let metrics = vec![
        Metric::new(
            "workload.next_op_ns",
            "ns",
            total_ns("workload.next_op") / ops,
        ),
        Metric::new("policy.push_op_ns", "ns", total_ns("policy.push_op") / ops),
        Metric::new(
            "codec.encode_sections_us",
            "us",
            per_call("codec.encode_sections", 1e3),
        ),
        Metric::new(
            "engine.sections_per_update_tx",
            "count",
            ratio(update_sections, update_txs),
        ),
        Metric::new(
            "engine.sections_per_deliver_tx",
            "count",
            ratio(deliver_sections, deliver_txs),
        ),
        Metric::new("chain.txs_per_round", "count", pass.txs as f64 / rounds),
        Metric::new(
            "chain.blocks_per_round",
            "count",
            pass.blocks as f64 / rounds,
        ),
        Metric::new("chain.submit_us", "us", per_call("chain.submit", 1e3)),
        Metric::new(
            "chain.read_phase_us",
            "us",
            per_call("chain.read_phase", 1e3),
        ),
        Metric::new("stage.update_us", "us", per_call("stage.update", 1e3)),
        Metric::new(
            "stage.payload_bytes_per_op",
            "B",
            counts.payload_bytes as f64 / ops,
        ),
        Metric::new("store.get_us", "us", total_ns("store.get") / gets / 1e3),
        Metric::new(
            "store.cache_hit_ratio",
            "ratio",
            counts.cache_hits as f64 / (counts.cache_hits + counts.cache_misses).max(1) as f64,
        ),
        Metric::new(
            "store.block_reads_per_op",
            "count",
            counts.block_reads as f64 / gets,
        ),
        Metric::new(
            "store.bloom_skips_per_op",
            "count",
            counts.bloom_skips as f64 / gets,
        ),
        Metric::new(
            "store.put_us",
            "us",
            total_ns("store.put") / (counts.puts.max(1) as f64) / 1e3,
        ),
        Metric::new("store.flush_ms", "ms", per_call("store.flush", 1e6)),
        Metric::new(
            "store.write_syscalls_per_op",
            "count",
            counts.write_syscalls as f64 / ops,
        ),
        Metric::new(
            "store.bytes_written_per_op",
            "B",
            counts.bytes_written as f64 / ops,
        ),
        Metric::new(
            "merkle.apply_batch_us",
            "us",
            per_call("merkle.apply_batch", 1e3),
        ),
        Metric::new(
            "merkle.nodes_rehashed_per_op",
            "count",
            counts.nodes_rehashed as f64 / ops,
        ),
        Metric::new(
            "setup.deploy_ms_per_feed",
            "ms",
            per_call("setup.deploy", 1e6),
        ),
        Metric::new("trace.overhead_pct", "%", overhead),
    ];
    Ok(RunOutput {
        attempted: fleet.iter().map(|f| f.ops).sum::<usize>() * (1 + 2 * pairs),
        metrics,
    })
}
