//! The benchmark's workloads: every input is generated here from `--seed`,
//! with the workspace's own generators, and handed to the program as a
//! preload record list plus a streaming operation source per feed.

use std::collections::BTreeMap;
use std::path::Path;

use grub_core::policy::PolicyKind;
use grub_core::system::SystemConfig;
use grub_workload::multiplex::Multiplex;
use grub_workload::ratio::MultiKeyRatio;
use grub_workload::ycsb::{self, YcsbKind, YcsbRunner};
use grub_workload::{Op, OpSource, ValueSpec};

/// Shards every workload runs on (`EngineConfig::new(SHARDS)`).
pub const SHARDS: usize = 2;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    HotKeys,
    YcsbShift,
    WriteBurst,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::HotKeys, Workload::YcsbShift, Workload::WriteBurst];

    pub fn name(self) -> &'static str {
        match self {
            Workload::HotKeys => "hot-keys",
            Workload::YcsbShift => "ycsb-shift",
            Workload::WriteBurst => "write-burst",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One feed's generated inputs.
pub struct FeedInput {
    pub tenant: String,
    pub policy: PolicyKind,
    pub epoch_ops: usize,
    pub preload: Vec<(String, Vec<u8>)>,
    pub source: Box<dyn OpSource>,
    /// Exactly the number of operations `source` yields.
    pub ops: usize,
}

impl FeedInput {
    /// The feed's single-feed configuration, its SP store under `dir`.
    pub fn config(&self, dir: &Path) -> SystemConfig {
        SystemConfig::new(self.policy.clone())
            .epoch_ops(self.epoch_ops)
            .preload(self.preload.clone())
            .store_at(dir.join(&self.tenant))
    }

    /// The independent reference: the last value written to each key,
    /// preload included, replayed from a fresh copy of the source.
    pub fn reference(&self) -> BTreeMap<String, Vec<u8>> {
        let mut out: BTreeMap<String, Vec<u8>> = self.preload.iter().cloned().collect();
        let mut source = self.source.clone_box();
        source.reset();
        while let Some(op) = source.next_op() {
            if let Op::Write { key, value } = op {
                out.insert(key, value.materialize());
            }
        }
        out
    }
}

/// Per-feed seeds: distinct, and a pure function of the run seed.
fn feed_seed(seed: u64, feed: usize) -> u64 {
    let mut x = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(feed as u64 + 1);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn adaptive_policy(feed: usize) -> PolicyKind {
    if feed.is_multiple_of(2) {
        PolicyKind::Memoryless { k: 2 }
    } else {
        PolicyKind::SelfTuning { window: 16 }
    }
}

// hot-keys: zipfian tenants over the `stream` experiment's three-lane mix.
const HOT_TENANTS: usize = 16;
/// Preloaded listing records per tenant, and their size.
const HOT_LISTING: usize = 512;
const HOT_LISTING_BYTES: usize = 32;
/// Ops in one cycle of each of the three lanes: (1+4) + (8+1) + (1+1).
const HOT_CYCLE_OPS: usize = 16;
/// Epoch sizes are whole multiples of this many ops...
const HOT_EPOCH_UNIT: usize = 2;
/// ...and the hottest tenant's epoch is this many units.
const HOT_TOP_UNITS: usize = 64;
/// Scheduler rounds in one pass.
const HOT_ROUNDS: usize = 48;
// Every tenant's trace, epoch size times rounds, is whole lane cycles.
const _: () = assert!((HOT_EPOCH_UNIT * HOT_ROUNDS).is_multiple_of(HOT_CYCLE_OPS));

// ycsb-shift: two feeds, update-heavy A, then read-mostly B and C.
const YCSB_RECORDS: u64 = 6_144;
const YCSB_RECORD_BYTES: usize = 1_024;
const YCSB_EPOCH: usize = 32;
const YCSB_PHASES: [(YcsbKind, usize); 3] = [
    (YcsbKind::A, 2_560),
    (YcsbKind::B, 10_240),
    (YcsbKind::C, 10_240),
];

// write-burst: two feeds over 4 KiB records, update-heavy.
const BURST_RECORDS: u64 = 1_024;
const BURST_RECORD_BYTES: usize = 4_096;
const BURST_EPOCH: usize = 32;
const BURST_OPS: usize = 6_400;

/// Epoch sizes of the hot-keys tenants: θ = 0.99 zipfian weights scaled so
/// the hottest tenant's epoch is `HOT_TOP_UNITS` units, every tenant at
/// least one (the coldest gets 4). Every tenant's trace is a whole number
/// of epochs, so all stay live until the last round.
fn hot_epoch_ops() -> Vec<usize> {
    let weights = Multiplex::new(HOT_TENANTS, HOT_TENANTS)
        .zipfian(0.99)
        .weights();
    weights
        .iter()
        .map(|w| {
            let units = ((w / weights[0]) * HOT_TOP_UNITS as f64).round().max(1.0);
            units as usize * HOT_EPOCH_UNIT
        })
        .collect()
}

pub fn generate(workload: Workload, seed: u64) -> Vec<FeedInput> {
    match workload {
        Workload::HotKeys => hot_keys(seed),
        Workload::YcsbShift => ycsb_feeds(
            seed,
            "ycsb",
            YCSB_RECORDS,
            YCSB_RECORD_BYTES,
            YCSB_EPOCH,
            YCSB_PHASES.to_vec(),
        ),
        Workload::WriteBurst => ycsb_feeds(
            seed,
            "burst",
            BURST_RECORDS,
            BURST_RECORD_BYTES,
            BURST_EPOCH,
            vec![(YcsbKind::A, BURST_OPS)],
        ),
    }
}

fn hot_keys(seed: u64) -> Vec<FeedInput> {
    hot_epoch_ops()
        .into_iter()
        .enumerate()
        .map(|(i, epoch_ops)| {
            let ops = epoch_ops * HOT_ROUNDS;
            let tenant = format!("hot-{i:02}");
            let fseed = feed_seed(seed, i);
            let lanes = MultiKeyRatio::new(vec![
                (format!("{tenant}/hot"), 4.0),
                (format!("{tenant}/cold"), 0.125),
                (format!("{tenant}/warm"), 1.0),
            ])
            .seed(fseed);
            let preload = (0..HOT_LISTING)
                .map(|j| {
                    let value = ValueSpec::new(HOT_LISTING_BYTES, fseed ^ ((j as u64 + 1) << 40));
                    (format!("{tenant}/item{j:04}"), value.materialize())
                })
                .collect();
            FeedInput {
                policy: adaptive_policy(i),
                epoch_ops,
                preload,
                source: Box::new(lanes.source(ops / HOT_CYCLE_OPS)),
                ops,
                tenant,
            }
        })
        .collect()
}

fn ycsb_feeds(
    seed: u64,
    prefix: &str,
    records: u64,
    record_bytes: usize,
    epoch_ops: usize,
    phases: Vec<(YcsbKind, usize)>,
) -> Vec<FeedInput> {
    (0..2)
        .map(|i| {
            let fseed = feed_seed(seed, i);
            let preload = ycsb::preload(records, record_bytes, fseed)
                .into_iter()
                .map(|(k, v)| (k, v.materialize()))
                .collect();
            // Phases A, B and C emit exactly one op per transaction.
            let ops = phases.iter().map(|&(_, n)| n).sum();
            let source =
                YcsbRunner::new(records, record_bytes, fseed ^ 0x5eed).into_source(phases.clone());
            FeedInput {
                tenant: format!("{prefix}-{i}"),
                policy: adaptive_policy(i),
                epoch_ops,
                preload,
                source: Box::new(source),
                ops,
            }
        })
        .collect()
}
