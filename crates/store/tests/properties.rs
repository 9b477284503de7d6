//! Property-based tests for the storage engine: the wave-segment store,
//! the per-tuple baseline, and journal replay must all agree.

use proptest::prelude::*;
use sensorsafe_store::{
    decode_annotation, decode_segment, encode_annotation, encode_segment, JournalConfig,
    MergePolicy, Query, SegmentStore, StoreJournal, TupleStore, WalRecord,
};
use sensorsafe_types::{
    ChannelSpec, ContextAnnotation, ContextKind, ContextState, GeoPoint, SegmentMeta, TimeRange,
    Timestamp, Timing, WaveSegment,
};
use std::path::Path;
use std::sync::Arc;

/// A workload: a list of (gap_ms_before, rows) packet descriptors.
fn arb_workload() -> impl Strategy<Value = Vec<(u16, u8)>> {
    prop::collection::vec((0u16..2_000, 1u8..65), 1..40)
}

fn build_packets(workload: &[(u16, u8)]) -> Vec<WaveSegment> {
    let mut packets = Vec::with_capacity(workload.len());
    let mut cursor = 1_000_000i64;
    for (i, (gap, rows)) in workload.iter().enumerate() {
        cursor += *gap as i64;
        let meta = SegmentMeta {
            timing: Timing::Uniform {
                start: Timestamp::from_millis(cursor),
                interval_secs: 0.02,
            },
            location: Some(GeoPoint::ucla()),
            format: vec![ChannelSpec::f32("ecg"), ChannelSpec::f32("respiration")],
        };
        let data: Vec<Vec<f64>> = (0..*rows as usize)
            .map(|r| vec![(i * 64 + r) as f64, 300.0])
            .collect();
        packets.push(WaveSegment::from_rows(meta, &data).unwrap());
        cursor += *rows as i64 * 20;
    }
    packets
}

fn arb_query_range() -> impl Strategy<Value = TimeRange> {
    (900_000i64..1_200_000, 0i64..200_000).prop_map(|(start, len)| {
        TimeRange::new(
            Timestamp::from_millis(start),
            Timestamp::from_millis(start + len),
        )
    })
}

proptest! {
    /// For any workload and range query, the merged segment store, the
    /// unmerged one, and the tuple baseline return the same sample
    /// multiset size.
    #[test]
    fn query_sample_counts_agree(workload in arb_workload(), range in arb_query_range()) {
        let packets = build_packets(&workload);
        let mut merged = SegmentStore::in_memory(MergePolicy::default());
        let mut unmerged = SegmentStore::in_memory(MergePolicy::disabled());
        let mut tuples = TupleStore::new();
        for p in &packets {
            merged.insert_segment(p.clone()).unwrap();
            unmerged.insert_segment(p.clone()).unwrap();
            tuples.insert_segment(p);
        }
        let q = Query::all().in_time(range);
        let merged_count: usize = merged.query(&q).iter().map(WaveSegment::len).sum();
        let unmerged_count: usize = unmerged.query(&q).iter().map(WaveSegment::len).sum();
        let tuple_count = tuples.query(&q).len();
        prop_assert_eq!(merged_count, tuple_count, "merged vs tuples");
        prop_assert_eq!(unmerged_count, tuple_count, "unmerged vs tuples");
        // Reference model: count packet samples inside the range.
        let expected: usize = packets
            .iter()
            .map(|p| (0..p.len()).filter(|&i| range.contains(p.time_at(i))).count())
            .sum();
        prop_assert_eq!(tuple_count, expected, "tuples vs reference");
    }

    /// Merging never loses or duplicates samples, regardless of gaps.
    #[test]
    fn merge_preserves_totals(workload in arb_workload()) {
        let packets = build_packets(&workload);
        let total: usize = packets.iter().map(WaveSegment::len).sum();
        let store = SegmentStore::in_memory(MergePolicy::default());
        let mut store = store;
        for p in &packets {
            store.insert_segment(p.clone()).unwrap();
        }
        let stats = store.stats();
        prop_assert_eq!(stats.samples, total);
        prop_assert!(stats.segments <= packets.len());
        // Everything is still retrievable.
        let all: usize = store.query(&Query::all()).iter().map(WaveSegment::len).sum();
        prop_assert_eq!(all, total);
    }

    /// Binary segment codec round-trips arbitrary workload packets.
    #[test]
    fn segment_codec_roundtrip(workload in arb_workload()) {
        for packet in build_packets(&workload) {
            let back = decode_segment(&encode_segment(&packet)).unwrap();
            prop_assert_eq!(back, packet);
        }
    }

    /// Annotation codec round-trips arbitrary state sets.
    #[test]
    fn annotation_codec_roundtrip(
        start in 0i64..1_000_000_000,
        len in 1i64..1_000_000,
        states in prop::collection::vec(
            (prop::sample::select(ContextKind::ALL.to_vec()), any::<bool>()),
            0..9,
        ),
    ) {
        let ann = ContextAnnotation::new(
            TimeRange::new(Timestamp::from_millis(start), Timestamp::from_millis(start + len)),
            states
                .into_iter()
                .map(|(kind, active)| ContextState { kind, active })
                .collect(),
        );
        let back = decode_annotation(&encode_annotation(&ann)).unwrap();
        prop_assert_eq!(back, ann);
    }

    /// A store replayed from the journal answers every query identically.
    #[test]
    fn wal_replay_equivalence(workload in arb_workload(), range in arb_query_range()) {
        let dir = std::env::temp_dir().join(format!(
            "sensorsafe-proptest-{}-{}",
            std::process::id(),
            rand_suffix(&workload),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let packets = build_packets(&workload);
        let q = Query::all().in_time(range);
        let live_result = {
            let mut store = open_journal_store(&dir);
            for p in &packets {
                store.insert_segment(p.clone()).unwrap();
            }
            store.sync().unwrap();
            store.query(&q)
        };
        let reopened = open_journal_store(&dir);
        prop_assert_eq!(reopened.query(&q), live_result);
        drop(reopened);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// Opens (or reopens) one journal-backed account in `dir`; the store
/// holds the only journal handle, so dropping it shuts the journal down.
fn open_journal_store(dir: &Path) -> SegmentStore {
    let journal = Arc::new(StoreJournal::open(dir, JournalConfig::default()).unwrap());
    let recovered = journal
        .take_account("acct")
        .map(|r| r.records)
        .unwrap_or_default();
    SegmentStore::open_journal(journal, "acct", MergePolicy::default(), recovered)
}

/// Deterministic per-case suffix so parallel proptest cases don't share
/// journal directories.
fn rand_suffix(workload: &[(u16, u8)]) -> u64 {
    let mut h = 1469598103934665603u64;
    for (a, b) in workload {
        h = (h ^ (*a as u64)).wrapping_mul(1099511628211);
        h = (h ^ (*b as u64)).wrapping_mul(1099511628211);
    }
    h
}

#[test]
fn wal_truncation_fuzz() {
    // Cutting the journal at every byte offset, with or without garbage
    // after the cut, must yield a clean prefix replay, never a panic or
    // misparse.
    let root = std::env::temp_dir().join(format!("sensorsafe-trunc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let packets = build_packets(&[(0, 16), (5, 16), (100, 16)]);
    let source = root.join("source");
    {
        let journal = StoreJournal::open(&source, JournalConfig::default()).unwrap();
        for p in &packets {
            journal
                .stage("acct", &WalRecord::Segment(p.clone()))
                .unwrap();
        }
        journal.flush().unwrap();
    }
    let full = std::fs::read(source.join("journal.seg-1")).unwrap();
    for cut in 0..full.len() {
        for garbage in [&[][..], &[0xa5; 16][..]] {
            let dir = root.join(format!("cut-{cut}-{}", garbage.len()));
            std::fs::create_dir_all(&dir).unwrap();
            let mut torn = full[..cut].to_vec();
            torn.extend_from_slice(garbage);
            std::fs::write(dir.join("journal.seg-1"), &torn).unwrap();
            let records = StoreJournal::open(&dir, JournalConfig::default())
                .unwrap()
                .take_account("acct")
                .map(|r| r.records)
                .unwrap_or_default();
            let kept = std::fs::metadata(dir.join("journal.seg-1")).unwrap().len();
            assert!(kept as usize <= cut, "torn tail not truncated at cut {cut}");
            assert!(records.len() <= packets.len());
            // Replayed prefix must equal the original records' prefix.
            for (got, want) in records.iter().zip(&packets) {
                assert_eq!(got, &WalRecord::Segment(want.clone()));
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}
