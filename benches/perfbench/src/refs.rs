//! Committed references: the default seed's `records_fingerprint` and a
//! per-point hash for every record, one file per workload and size.
//!
//! File format, `refs/<workload>.<size>.ref`:
//!
//! ```text
//! seed 1
//! threads 1 2          (only for thread-keyed workloads)
//! fingerprint 09ab6e61ee0d6fb9
//! 3f1c2a7e             (one per point, in point-id order)
//! ```
//!
//! A per-point hash is the low 32 bits of `records_fingerprint` over that
//! one record.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use bcc_lab::{records_fingerprint, PointRecord};

/// The seed whose records are committed.
pub(crate) const DEFAULT_SEED: u64 = 1;

/// One workload's committed records, as hashes.
pub(crate) struct Reference {
    pub(crate) fingerprint: u64,
    pub(crate) points: Vec<u32>,
}

/// The per-point hash a reference stores.
pub(crate) fn point_hash(record: &PointRecord) -> u32 {
    records_fingerprint(std::iter::once(record)) as u32
}

pub(crate) fn path(dir: &Path, workload: &str, size: &str) -> PathBuf {
    dir.join(format!("{workload}.{size}.ref"))
}

/// Loads the reference for `seed` and `threads`, if one is committed.
/// `Err` means the file exists but cannot be read as a reference.
pub(crate) fn load(
    file: &Path,
    seed: u64,
    threads: Option<usize>,
) -> Result<Option<Reference>, String> {
    let Ok(text) = std::fs::read_to_string(file) else {
        return Ok(None);
    };
    let bad = |what: &str| format!("{}: {what}", file.display());
    let mut lines = text.lines();
    let mut fingerprint = None;
    for line in lines.by_ref() {
        let (key, value) = line.split_once(' ').ok_or_else(|| bad("bad header line"))?;
        match key {
            "seed" => {
                let committed: u64 = value.parse().map_err(|_| bad("bad seed"))?;
                if committed != seed {
                    return Ok(None);
                }
            }
            "threads" => {
                let keyed: Vec<usize> = value
                    .split(' ')
                    .map(str::parse)
                    .collect::<Result<_, _>>()
                    .map_err(|_| bad("bad thread list"))?;
                if !threads.is_some_and(|t| keyed.contains(&t)) {
                    return Ok(None);
                }
            }
            "fingerprint" => {
                fingerprint =
                    Some(u64::from_str_radix(value, 16).map_err(|_| bad("bad fingerprint"))?);
                break;
            }
            _ => return Err(bad("unknown header key")),
        }
    }
    let fingerprint = fingerprint.ok_or_else(|| bad("no fingerprint line"))?;
    let points = lines
        .map(|l| u32::from_str_radix(l, 16))
        .collect::<Result<_, _>>()
        .map_err(|_| bad("bad point hash"))?;
    Ok(Some(Reference {
        fingerprint,
        points,
    }))
}

/// Renders the reference file for `records` at `seed`, keyed by
/// `threads` when given.
pub(crate) fn render(records: &[PointRecord], seed: u64, threads: &[usize]) -> String {
    let mut out = format!("seed {seed}\n");
    if !threads.is_empty() {
        let list: Vec<String> = threads.iter().map(usize::to_string).collect();
        let _ = writeln!(out, "threads {}", list.join(" "));
    }
    let _ = writeln!(out, "fingerprint {:016x}", records_fingerprint(records));
    for record in records {
        let _ = writeln!(out, "{:08x}", point_hash(record));
    }
    out
}
