//! Hostile-input properties of the edge-record codec shared by bucket files
//! and streamed delta files: arbitrary or truncated bytes decode to a typed
//! error or to whole records, never a panic and never a silent prefix.

use marius_graph::Edge;
use marius_storage::{decode_edges, encode_edges, PartitionStore, StorageError};
use proptest::prelude::*;

fn edges(raw: &[(u64, u32, u64)]) -> Vec<Edge> {
    raw.iter()
        .map(|&(src, rel, dst)| Edge::with_rel(src, rel, dst))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any byte string decodes to whole records iff its length is a multiple
    /// of the record size, and what decodes re-encodes to the same bytes.
    #[test]
    fn arbitrary_bytes_decode_to_records_or_a_typed_error(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..200),
    ) {
        match decode_edges(&bytes) {
            Ok(decoded) => {
                prop_assert_eq!(bytes.len() % Edge::DISK_BYTES, 0);
                prop_assert_eq!(decoded.len(), bytes.len() / Edge::DISK_BYTES);
                prop_assert_eq!(encode_edges(&decoded), bytes);
            }
            Err(e) => {
                prop_assert!(bytes.len() % Edge::DISK_BYTES != 0);
                prop_assert!(matches!(e, StorageError::NotResident { .. }));
            }
        }
    }

    /// Encoding round-trips, and every strict truncation that cuts a record
    /// is rejected.
    #[test]
    fn truncated_encodings_are_rejected(
        raw in proptest::collection::vec((0u64..=u64::MAX, 0u32..=u32::MAX, 0u64..=u64::MAX), 1..12),
        cut in 1usize..Edge::DISK_BYTES,
    ) {
        let edges = edges(&raw);
        let bytes = encode_edges(&edges);
        prop_assert_eq!(decode_edges(&bytes).unwrap(), edges);
        let torn = &bytes[..bytes.len() - cut];
        prop_assert!(decode_edges(torn).is_err());
    }

    /// A bucket file holding hostile bytes reads back as whole records or a
    /// typed error through the store's read path.
    #[test]
    fn hostile_bucket_files_read_as_records_or_a_typed_error(
        bytes in proptest::collection::vec(0u8..=u8::MAX, 0..120),
    ) {
        let store = PartitionStore::open_temp("codec-hostile").unwrap();
        std::fs::write(store.root().join("edge_bucket_0_0.bin"), &bytes).unwrap();
        match store.read_bucket(0, 0) {
            Ok(read) => prop_assert_eq!(encode_edges(&read), bytes),
            Err(e) => prop_assert!(matches!(e, StorageError::NotResident { .. })),
        }
    }
}
