//! The correctness gate: every sweep the benchmark times is checked, and
//! every mismatch is counted against the points attempted.
//!
//! A point fails when its record is missing, when its deterministic
//! encoding differs from the committed reference (or, on a seed with no
//! reference, from the first sweep of the run), when it misses its
//! tolerance, or when a check over its whole sweep fails: work counters
//! that drift between runs, a resume that differs from the fresh sweep,
//! or an `aggregates.json` not tied to the records' fingerprint.

use std::collections::BTreeSet;
use std::path::Path;

use bcc_lab::{records_fingerprint, PointRecord};
use bcc_obs::Snapshot;

use crate::refs::{point_hash, Reference};

pub(crate) struct Gate {
    grid_len: usize,
    /// The reference fingerprint, when this seed has one committed.
    fingerprint: Option<u64>,
    /// Per-point hashes every sweep must reproduce.
    expected: Option<Vec<u32>>,
    /// The work counters of the first sweep, per comparison class.
    counters: Vec<(&'static str, Vec<(String, u64)>)>,
    pub(crate) attempted: u64,
    pub(crate) failed: u64,
    pub(crate) checks: u64,
    /// One line per failed check, printed to stderr as it happens.
    pub(crate) failures: Vec<String>,
}

/// The points one sweep lost, gathered across its checks.
#[derive(Default)]
pub(crate) struct Sweep {
    failed: BTreeSet<usize>,
    whole: bool,
}

impl Gate {
    pub(crate) fn new(grid_len: usize, reference: Option<Reference>) -> Gate {
        let (fingerprint, expected) = match reference {
            Some(r) => (Some(r.fingerprint), Some(r.points)),
            None => (None, None),
        };
        Gate {
            grid_len,
            fingerprint,
            expected,
            counters: Vec::new(),
            attempted: 0,
            failed: 0,
            checks: 0,
            failures: Vec::new(),
        }
    }

    pub(crate) fn has_reference(&self) -> bool {
        self.fingerprint.is_some()
    }

    fn fail(&mut self, message: String) {
        eprintln!("perfbench: check failed: {message}");
        self.failures.push(message);
    }

    /// Checks one sweep's records against the expectation: every point
    /// present in order, each hash as expected, each tolerance met.
    pub(crate) fn records(&mut self, sweep: &mut Sweep, what: &str, records: &[PointRecord]) {
        self.checks += 1;
        let hashes: Vec<u32> = records.iter().map(point_hash).collect();
        let expected = self.expected.get_or_insert_with(|| hashes.clone()).clone();
        let mut bad = Vec::new();
        for id in 0..self.grid_len {
            let present = records.get(id).filter(|r| r.point_id == id);
            let ok = present.is_some_and(|r| r.met_tolerance) && hashes.get(id) == expected.get(id);
            if !ok {
                bad.push(id);
            }
        }
        if records.len() != self.grid_len {
            sweep.whole = true;
            self.fail(format!(
                "{what}: {} records for a {}-point grid",
                records.len(),
                self.grid_len
            ));
        }
        if let Some(fingerprint) = self.fingerprint {
            let found = records_fingerprint(records);
            if found != fingerprint {
                // The per-point hashes name the failed points; a
                // fingerprint mismatch they miss fails the whole sweep.
                sweep.whole |= bad.is_empty();
                self.fail(format!(
                    "{what}: records fingerprint {found:016x}, reference {fingerprint:016x}"
                ));
            }
        }
        if !bad.is_empty() {
            self.fail(format!(
                "{what}: {} points missing, differing from the expected records or \
                 missing their tolerance (first ids {:?})",
                bad.len(),
                &bad[..bad.len().min(8)]
            ));
            sweep.failed.extend(bad);
        }
    }

    /// Checks that `snapshot`'s work counters (those `keep` admits) equal
    /// the first ones seen under `class`. Any drift fails the sweep.
    pub(crate) fn counters(
        &mut self,
        sweep: &mut Sweep,
        class: &'static str,
        what: &str,
        snapshot: &Snapshot,
        keep: fn(&str) -> bool,
    ) {
        self.checks += 1;
        let found: Vec<(String, u64)> = snapshot
            .work_fingerprint()
            .into_iter()
            .filter(|(name, _)| keep(name))
            .collect();
        match self.counters.iter().find(|(c, _)| *c == class) {
            None => self.counters.push((class, found)),
            Some((_, first)) if *first == found => {}
            Some((_, first)) => {
                let drift: Vec<String> = first
                    .iter()
                    .chain(&found)
                    .filter(|entry| !(first.contains(entry) && found.contains(entry)))
                    .map(|(n, v)| format!("{n}={v}"))
                    .take(6)
                    .collect();
                sweep.whole = true;
                self.fail(format!("{what}: work counters drifted: {drift:?}"));
            }
        }
    }

    /// Checks that a re-read or re-derived record set equals `fresh`
    /// bitwise (deterministic encodings).
    pub(crate) fn same_records(
        &mut self,
        sweep: &mut Sweep,
        what: &str,
        fresh: &[PointRecord],
        other: &[PointRecord],
    ) {
        self.checks += 1;
        let differ: Vec<usize> = (0..fresh.len().max(other.len()))
            .filter(|&i| {
                let a = fresh.get(i).map(bcc_lab::encode_record_deterministic);
                let b = other.get(i).map(bcc_lab::encode_record_deterministic);
                a.is_none() || a != b
            })
            .collect();
        if !differ.is_empty() {
            self.fail(format!(
                "{what}: {} records differ from the fresh sweep (first ids {:?})",
                differ.len(),
                &differ[..differ.len().min(8)]
            ));
            sweep.failed.extend(differ);
        }
    }

    /// A whole-sweep check with its own message.
    pub(crate) fn expect(&mut self, sweep: &mut Sweep, ok: bool, message: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            sweep.whole = true;
            self.fail(message());
        }
    }

    /// Checks the files a persisted sweep leaves: `aggregates.json` tied
    /// to the records' fingerprint and point count, and `metrics.json`
    /// reading back as `metrics`' work counters.
    pub(crate) fn files(
        &mut self,
        sweep: &mut Sweep,
        what: &str,
        dir: &Path,
        records: &[PointRecord],
        metrics: Option<&Snapshot>,
    ) {
        let aggregates = std::fs::read_to_string(dir.join("aggregates.json")).unwrap_or_default();
        let tie = format!(
            "\"records_fingerprint\":\"{:016x}\",\"points\":{},",
            records_fingerprint(records),
            records.len()
        );
        self.expect(sweep, aggregates.contains(&tie), || {
            format!("{what}: aggregates.json is not tied to the records ({tie})")
        });
        if let Some(metrics) = metrics {
            let text = std::fs::read_to_string(dir.join("metrics.json")).unwrap_or_default();
            let back = Snapshot::from_json(&text);
            self.expect(sweep, back.is_some_and(|s| s.work == metrics.work), || {
                format!("{what}: metrics.json does not read back as the sweep's counters")
            });
        }
    }

    /// Closes one sweep: its points count as attempted, its failures as
    /// failed.
    pub(crate) fn tally(&mut self, sweep: Sweep) {
        self.attempted += self.grid_len as u64;
        self.failed += if sweep.whole {
            self.grid_len as u64
        } else {
            sweep.failed.len() as u64
        };
    }
}
