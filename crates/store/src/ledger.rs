//! File-backed audit ledger: `sensorsafe_obsv::ledger`'s chain semantics
//! with the WAL's durability discipline.
//!
//! Layout on disk: `<path>` holds the hash-chained record frames
//! (`u32 len | payload | 32-byte hash`, see `obsv::ledger`), and
//! `<path>.head` holds the 40-byte [`ChainHead`] (record count + final
//! chain hash). Appends are buffered; [`FileLedger::sync`] follows the WAL
//! pattern — flush, `sync_data` the ledger file, and only *then* rewrite
//! and `sync_data` the head sidecar, so the head never attests records
//! that are not yet durable. The first write or sync failure is sticky
//! ([`AuditLedger::sticky_error`]): the ledger never writes or fsyncs
//! again, because a retried fsync can report success for pages the kernel
//! already dropped.
//!
//! Tamper and truncation detection: [`FileLedger::open`] replays and
//! verifies the whole chain against the head (a store refuses to silently
//! adopt an edited audit trail), and [`verify_ledger_file`] runs the same
//! check offline. If the *head sidecar itself* is lost or torn (e.g. a
//! crash between the two syncs), the chain still verifies record-by-record
//! with `verify_frames(bytes, None)` — see docs/OPERATIONS.md for the
//! recovery procedure.

use parking_lot::Mutex;
use sensorsafe_obsv::ledger::{encode_frame, verify_frames, ChainHead, GENESIS_HASH};
use sensorsafe_obsv::{AuditFilter, AuditLedger, AuditPage, DecisionRecord, LedgerError};
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn appends_counter() -> Arc<sensorsafe_obsv::Counter> {
    sensorsafe_obsv::global().counter(
        "sensorsafe_audit_ledger_appends_total",
        "Enforcement decisions appended to an audit ledger.",
        &[],
    )
}

fn fsyncs_counter() -> Arc<sensorsafe_obsv::Counter> {
    sensorsafe_obsv::global().counter(
        "sensorsafe_audit_ledger_fsyncs_total",
        "Durable sync operations completed by file-backed audit ledgers.",
        &[],
    )
}

fn io_err(e: std::io::Error) -> LedgerError {
    LedgerError::Io(e.to_string())
}

/// The head sidecar's path for a ledger at `path`.
pub fn head_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".head");
    PathBuf::from(name)
}

/// Reads and verifies a ledger file (and its head sidecar when present)
/// without opening it for writing — the offline audit tool's entry point.
/// With the sidecar, frame-aligned tail truncation is detected too; a
/// missing sidecar verifies in-place integrity only.
pub fn verify_ledger_file(path: impl AsRef<Path>) -> Result<Vec<DecisionRecord>, LedgerError> {
    let path = path.as_ref();
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
        Err(e) => return Err(io_err(e)),
    };
    let head = match std::fs::read(head_path(path)) {
        Ok(bytes) => Some(ChainHead::decode(&bytes)?),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
        Err(e) => return Err(io_err(e)),
    };
    verify_frames(&bytes, head.as_ref())
}

struct Inner {
    writer: BufWriter<File>,
    /// In-memory mirror of every verified + appended record, for queries.
    records: Vec<DecisionRecord>,
    /// The chain's current end (covers buffered, not-yet-synced appends).
    head: ChainHead,
    /// Appends since the last completed sync.
    dirty: bool,
    /// The first I/O failure; once set, nothing is written or synced.
    failed: Option<String>,
}

/// A durable [`AuditLedger`]: appends are hash-chained onto the verified
/// tail and made durable (file then head) on `sync`.
pub struct FileLedger {
    path: PathBuf,
    inner: Mutex<Inner>,
}

impl FileLedger {
    /// Opens (creating if absent) the ledger at `path`, verifying the
    /// existing chain against its head sidecar. Errors mean the audit
    /// trail is torn, tampered, or truncated — the caller decides whether
    /// to refuse startup or quarantine the file; this code never silently
    /// repairs it.
    pub fn open(path: impl AsRef<Path>) -> Result<FileLedger, LedgerError> {
        let path = path.as_ref().to_path_buf();
        let records = verify_ledger_file(&path)?;
        let mut hash = GENESIS_HASH;
        // Recompute the running hash from the verified records so appends
        // continue the chain (cheaper than re-reading: re-encode each).
        for record in &records {
            hash = sensorsafe_obsv::ledger::chain_hash(&hash, &record.encode());
        }
        let head = ChainHead {
            count: records.len() as u64,
            hash,
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(io_err)?;
        Ok(FileLedger {
            path,
            inner: Mutex::new(Inner {
                writer: BufWriter::new(file),
                records,
                head,
                dirty: false,
                failed: None,
            }),
        })
    }

    /// The ledger file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Re-reads the file from disk and verifies the full chain — what
    /// `verify_chain` means operationally. (The in-memory mirror is *not*
    /// consulted: this checks what a restart would see.)
    pub fn verify_chain(&self) -> Result<Vec<DecisionRecord>, LedgerError> {
        // Flush buffered frames first so the on-disk image is complete
        // (verification, not durability — no fsync needed).
        let mut inner = self.inner.lock();
        if inner.writer.flush().is_err() {
            return Err(LedgerError::Io("flush before verify failed".into()));
        }
        // A verify between append and sync would see a head sidecar
        // behind the file; compare against the in-memory head instead.
        let bytes = std::fs::read(&self.path).map_err(io_err)?;
        verify_frames(&bytes, Some(&inner.head))
    }
}

impl AuditLedger for FileLedger {
    fn append(&self, mut record: DecisionRecord) -> u64 {
        let mut inner = self.inner.lock();
        record.seq = inner.head.count;
        let mut frame = Vec::with_capacity(96);
        let hash = encode_frame(&mut frame, &inner.head.hash, &record);
        // A failed write is recorded, not retried: the caller's check of
        // `sticky_error` after `sync` turns it into a refused response.
        if inner.failed.is_none() {
            if let Err(e) = inner.writer.write_all(&frame) {
                inner.failed = Some(format!("append failed: {e}"));
            }
        }
        inner.head = ChainHead {
            count: record.seq + 1,
            hash,
        };
        inner.records.push(record);
        inner.dirty = true;
        appends_counter().inc();
        inner.head.count - 1
    }

    fn sync(&self) {
        let mut inner = self.inner.lock();
        if !inner.dirty || inner.failed.is_some() {
            return;
        }
        // WAL discipline: data first, head second, fsync between — the
        // head on disk must never get ahead of durable frames.
        let head_bytes = inner.head.encode();
        let synced = inner
            .writer
            .flush()
            .and_then(|_| inner.writer.get_ref().sync_data())
            .and_then(|_| {
                let mut head = File::create(head_path(&self.path))?;
                head.write_all(&head_bytes)?;
                head.sync_data()
            });
        match synced {
            Ok(()) => {
                inner.dirty = false;
                fsyncs_counter().inc();
            }
            Err(e) => inner.failed = Some(format!("sync failed: {e}")),
        }
    }

    fn sticky_error(&self) -> Option<String> {
        self.inner.lock().failed.clone()
    }

    fn len(&self) -> u64 {
        self.inner.lock().head.count
    }

    fn recent(&self, limit: usize) -> Vec<DecisionRecord> {
        let inner = self.inner.lock();
        let skip = inner.records.len().saturating_sub(limit);
        inner.records[skip..].to_vec()
    }

    fn page(&self, filter: &AuditFilter) -> AuditPage {
        sensorsafe_obsv::ledger::page_records(&self.inner.lock().records, filter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensorsafe_obsv::audit::Outcome;

    fn record(consumer: &str) -> DecisionRecord {
        DecisionRecord {
            seq: 0,
            unix_ms: 1_700_000_000_123,
            trace_id: 0xdead_beef,
            rule_epoch: 3,
            contributor: "alice".into(),
            consumer: consumer.into(),
            matched_rules: vec![0, 2],
            outcome: Outcome::Allowed,
            suppressed_channels: 0,
        }
    }

    fn temp_path(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-ledger-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.ledger");
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(head_path(&path));
        path
    }

    #[test]
    fn appends_survive_reopen_exactly() {
        let path = temp_path("reopen");
        {
            let ledger = FileLedger::open(&path).unwrap();
            for i in 0..5 {
                ledger.append(record(&format!("c{i}")));
            }
            ledger.sync();
        }
        let reopened = FileLedger::open(&path).unwrap();
        assert_eq!(reopened.len(), 5);
        let records = reopened.recent(100);
        assert_eq!(records.len(), 5);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.consumer, format!("c{i}"));
        }
        // And the chain keeps extending across the restart boundary.
        reopened.append(record("late"));
        reopened.sync();
        assert_eq!(verify_ledger_file(&path).unwrap().len(), 6);
    }

    #[test]
    fn verify_chain_passes_between_append_and_sync() {
        let path = temp_path("presync");
        let ledger = FileLedger::open(&path).unwrap();
        ledger.append(record("bob"));
        assert_eq!(ledger.verify_chain().unwrap().len(), 1);
        ledger.sync();
        assert_eq!(ledger.verify_chain().unwrap().len(), 1);
    }

    #[test]
    fn first_sync_failure_is_sticky() {
        let path = temp_path("sticky");
        let ledger = FileLedger::open(&path).unwrap();
        std::fs::create_dir(head_path(&path)).unwrap();
        ledger.append(record("bob"));
        ledger.sync();
        let err = ledger
            .sticky_error()
            .expect("head write fails on a directory");
        assert!(err.starts_with("sync failed"), "{err}");
        // Clearing the cause does not clear the failure: nothing is retried.
        std::fs::remove_dir(head_path(&path)).unwrap();
        ledger.append(record("carol"));
        ledger.sync();
        assert_eq!(ledger.sticky_error(), Some(err));
        assert!(!head_path(&path).exists());
    }

    #[test]
    fn tampered_file_is_rejected_on_open() {
        let path = temp_path("tamper");
        {
            let ledger = FileLedger::open(&path).unwrap();
            ledger.append(record("bob"));
            ledger.append(record("carol"));
            ledger.sync();
        }
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        assert!(FileLedger::open(&path).is_err());
    }

    #[test]
    fn frame_aligned_truncation_is_caught_by_the_head() {
        let path = temp_path("truncate");
        let first_frame_len;
        {
            let ledger = FileLedger::open(&path).unwrap();
            ledger.append(record("bob"));
            ledger.sync();
            first_frame_len = std::fs::metadata(&path).unwrap().len();
            ledger.append(record("carol"));
            ledger.sync();
        }
        // Drop the second record exactly at its frame boundary: the file
        // alone is a valid 1-record chain, but the head says 2.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..first_frame_len as usize]).unwrap();
        match verify_ledger_file(&path) {
            Err(LedgerError::HeadMismatch { expected, found }) => {
                assert_eq!((expected, found), (2, 1));
            }
            other => panic!("expected HeadMismatch, got {other:?}"),
        }
    }

    #[test]
    fn missing_head_still_verifies_frames() {
        let path = temp_path("no-head");
        {
            let ledger = FileLedger::open(&path).unwrap();
            ledger.append(record("bob"));
            ledger.sync();
        }
        std::fs::remove_file(head_path(&path)).unwrap();
        // Recovery path: integrity of surviving frames is still provable.
        assert_eq!(verify_ledger_file(&path).unwrap().len(), 1);
        // Reopening rebuilds and (after a sync) rewrites the head.
        let ledger = FileLedger::open(&path).unwrap();
        ledger.append(record("carol"));
        ledger.sync();
        assert!(head_path(&path).exists());
        assert_eq!(verify_ledger_file(&path).unwrap().len(), 2);
    }
}
