//! Whole-index persistence: save a built CiNCT index to bytes (or disk),
//! reload it, and verify every query path behaves identically — plus the
//! typed-error contract for corrupt and truncated streams.

use cinct::{CinctBuilder, CinctIndex, Path, PathQuery, QueryError};

fn roundtrip(idx: &CinctIndex) -> CinctIndex {
    let mut buf = Vec::new();
    idx.write_to(&mut buf).expect("serialize");
    let mut cur = std::io::Cursor::new(&buf);
    let back = CinctIndex::read_from(&mut cur).expect("deserialize");
    assert_eq!(cur.position() as usize, buf.len(), "trailing bytes");
    back
}

#[test]
fn paper_example_roundtrip() {
    let trajs = vec![vec![0u32, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
    let idx = CinctIndex::build(&trajs, 6);
    let back = roundtrip(&idx);
    assert_eq!(back.text_len(), idx.text_len());
    assert_eq!(back.num_trajectories(), 4);
    for a in 0..6u32 {
        for b in 0..6u32 {
            assert_eq!(back.path_range(&[a, b]), idx.path_range(&[a, b]));
        }
    }
    for id in 0..4 {
        assert_eq!(back.trajectory(id), idx.trajectory(id));
    }
    assert_eq!(back.core_size_in_bytes(), idx.core_size_in_bytes());
}

#[test]
fn dataset_roundtrip_with_locate() {
    let ds = cinct_datasets::roma(0.02);
    let idx = CinctBuilder::new()
        .locate_sampling(16)
        .block_size(31)
        .build(&ds.trajectories, ds.n_edges());
    let back = roundtrip(&idx);
    assert_eq!(back.locate_sampling_rate(), Some(16));
    // Queries, extraction and occurrence listing agree after the roundtrip.
    for t in ds.trajectories.iter().take(20) {
        let path = Path::new(&t[..4.min(t.len())]);
        assert_eq!(back.range(path), idx.range(path));
        assert_eq!(
            back.occurrences(path).expect("locate").collect_sorted(),
            idx.occurrences(path).expect("locate").collect_sorted()
        );
    }
    for j in (0..idx.text_len()).step_by(997) {
        assert_eq!(back.extract(j, 5), idx.extract(j, 5));
        assert_eq!(back.locate(j), idx.locate(j));
    }
}

#[test]
fn file_roundtrip() {
    let trajs = vec![vec![2u32, 3, 4], vec![3, 4, 5], vec![2, 3]];
    let idx = CinctIndex::build(&trajs, 8);
    let path = std::env::temp_dir().join("cinct_persist_test.idx");
    {
        let mut f = std::fs::File::create(&path).expect("create");
        idx.write_to(&mut f).expect("write");
    }
    let mut f = std::fs::File::open(&path).expect("open");
    let back = CinctIndex::read_from(&mut f).expect("read");
    assert_eq!(back.count_path(&[3, 4]), 2);
    std::fs::remove_file(&path).ok();
}

#[test]
fn rejects_garbage_with_corrupt_index() {
    let mut cur = std::io::Cursor::new(vec![0u8; 64]);
    assert_eq!(
        CinctIndex::read_from(&mut cur).err(),
        Some(QueryError::CorruptIndex(
            "not a CiNCT index (bad magic)".into()
        ))
    );
}

#[test]
fn v2_index_magic_is_a_typed_version_error() {
    // Format 2 numbered RRR offsets by the lexicographic block code: its
    // payload has the lengths this build expects and different values, so
    // it must be refused at the header, not loaded and ranked wrongly.
    let idx = CinctIndex::build(&[vec![2u32, 3, 4], vec![3, 4, 5]], 8);
    let mut buf = Vec::new();
    idx.write_to(&mut buf).unwrap();
    buf[..8].copy_from_slice(&0x4349_4e43_5431_0002u64.to_le_bytes());
    match CinctIndex::read_from(&mut std::io::Cursor::new(buf)) {
        Err(QueryError::CorruptIndex(msg)) => {
            assert!(
                msg.contains("version 2") && msg.contains("reads 3"),
                "{msg}"
            )
        }
        other => panic!("expected CorruptIndex, got {other:?}"),
    }
}

#[test]
fn truncated_stream_is_an_io_error() {
    let trajs = vec![vec![0u32, 1], vec![1, 0]];
    let idx = CinctIndex::build(&trajs, 2);
    let mut buf = Vec::new();
    idx.write_to(&mut buf).unwrap();
    // Every truncation point must fail loudly with a typed error — never
    // panic, never hand back a half-built index.
    for cut in [1usize, 4, 8, buf.len() / 2, buf.len() - 1] {
        let mut short = buf.clone();
        short.truncate(cut);
        match CinctIndex::read_from(&mut std::io::Cursor::new(short)) {
            Err(QueryError::Io(msg)) => {
                assert!(msg.contains("UnexpectedEof"), "cut at {cut}: {msg}")
            }
            Err(QueryError::CorruptIndex(_)) => {} // structurally invalid prefix
            other => panic!("cut at {cut}: expected typed error, got {other:?}"),
        }
    }
}
