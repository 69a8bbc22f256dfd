//! Output checks: each feed's stored records against the independent
//! reference (the last value written to each key, preload included).

use std::collections::BTreeMap;

/// Compares a store's `(key, value)` records with the reference. A key
/// stored twice (under both replication states) is a fault too.
pub fn records_match(
    what: &str,
    records: impl IntoIterator<Item = (String, Vec<u8>)>,
    reference: &BTreeMap<String, Vec<u8>>,
) -> Result<(), String> {
    let mut seen = BTreeMap::new();
    for (key, value) in records {
        if seen.insert(key.clone(), value).is_some() {
            return Err(format!("{what}: key {key} is stored twice"));
        }
    }
    if seen.len() != reference.len() {
        return Err(format!(
            "{what}: {} records stored, the reference has {}",
            seen.len(),
            reference.len()
        ));
    }
    for ((key, value), (ref_key, ref_value)) in seen.iter().zip(reference) {
        if key != ref_key {
            return Err(format!("{what}: stored key {key}, reference key {ref_key}"));
        }
        if value != ref_value {
            return Err(format!("{what}: value of {key} differs from the reference"));
        }
    }
    Ok(())
}

pub fn ensure(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::e2e::{engine_pass, reopen_and_check};
    use crate::workloads::FeedInput;
    use grub_chain::Address;
    use grub_core::policy::PolicyKind;
    use grub_core::provider::StorageProvider;
    use grub_store::Options;
    use grub_workload::ratio::MultiKeyRatio;

    fn tiny_fleet() -> Vec<FeedInput> {
        (0..3)
            .map(|i| {
                let tenant = format!("t{i}");
                let lanes = MultiKeyRatio::new(vec![
                    (format!("{tenant}/hot"), 4.0),
                    (format!("{tenant}/cold"), 0.125),
                ])
                .seed(i + 1);
                FeedInput {
                    policy: PolicyKind::Memoryless { k: 2 },
                    epoch_ops: 8,
                    preload: vec![(format!("{tenant}/item"), vec![i as u8; 16])],
                    source: Box::new(lanes.source(6)),
                    ops: 6 * 14,
                    tenant,
                }
            })
            .collect()
    }

    #[test]
    fn reference_match_and_mismatch() {
        let reference: BTreeMap<String, Vec<u8>> =
            [("a".to_string(), vec![1]), ("b".to_string(), vec![2])].into();
        let good = vec![("b".to_string(), vec![2]), ("a".to_string(), vec![1])];
        assert!(records_match("t", good.clone(), &reference).is_ok());
        let mut twice = good.clone();
        twice.push(("a".to_string(), vec![1]));
        assert!(records_match("t", twice, &reference).is_err());
        assert!(records_match("t", good[..1].to_vec(), &reference).is_err());
    }

    #[test]
    fn tampered_record_fails_the_check() {
        let dir = std::env::temp_dir().join(format!("perfbench-check-{}", std::process::id()));
        let fleet = tiny_fleet();
        let pass = engine_pass(&fleet, &dir).expect("tiny fleet runs");
        assert_eq!(pass.report.failed_delivers(), 0);
        reopen_and_check(&fleet, &dir).expect("honest stores match the reference");
        {
            let mut sp =
                StorageProvider::open_at(Address::derive("t"), dir.join("t1"), Options::default())
                    .expect("store reopens");
            let (state, key, _) = sp
                .live_records()
                .expect("store scans")
                .into_iter()
                .find(|r| r.1 == "t1/cold")
                .expect("the cold key is stored");
            sp.tamper_value(state, &key, b"forged".to_vec())
                .expect("tamper writes");
        }
        let err = reopen_and_check(&fleet, &dir).expect_err("the tampered record is caught");
        assert!(err.contains("t1/cold"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
