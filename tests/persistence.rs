//! Whole-index persistence: save a built CiNCT index to bytes (or disk),
//! reload it, and verify every query path behaves identically — plus the
//! typed-error contract for corrupt and truncated streams.

use cinct::{CinctBuilder, CinctIndex, LabelingStrategy, Path, PathQuery, QueryError};

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
    // Format 2 numbered RRR offsets by the lexicographic block code and
    // format 3 still carried bigram counts and a labeling tag: neither is
    // a payload this build can read, so both are refused at the header,
    // not loaded and ranked wrongly.
    let idx = CinctIndex::build(&[vec![2u32, 3, 4], vec![3, 4, 5]], 8);
    let mut buf = Vec::new();
    idx.write_to(&mut buf).unwrap();
    for version in [2u64, 3] {
        buf[..8].copy_from_slice(&(0x4349_4e43_5431_0000 | version).to_le_bytes());
        match CinctIndex::read_from(&mut std::io::Cursor::new(&buf)) {
            Err(QueryError::CorruptIndex(msg)) => assert_eq!(
                msg,
                format!("unsupported index version {version} (this build reads 4)")
            ),
            other => panic!("version {version}: expected CorruptIndex, got {other:?}"),
        }
    }
}

#[test]
fn rewrite_after_reload_is_byte_identical_for_every_strategy() {
    // Nothing persisted depends on the labeling strategy: what is read
    // back writes the same bytes again, sorted or random.
    let trajs = vec![vec![0u32, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
    for strategy in [
        LabelingStrategy::BigramSorted,
        LabelingStrategy::Random { seed: 42 },
    ] {
        let idx = CinctBuilder::new()
            .labeling(strategy)
            .locate_sampling(4)
            .build(&trajs, 6);
        let mut first = Vec::new();
        idx.write_to(&mut first).unwrap();
        let mut second = Vec::new();
        roundtrip(&idx).write_to(&mut second).unwrap();
        assert_eq!(first, second, "{strategy:?}");
    }
}

#[test]
fn forged_length_word_is_a_typed_error() {
    // A C-array length word of 2^32 in an 80-byte input: the decoder must
    // run out of bytes, not reserve 32 GiB up front.
    let mut buf = Vec::new();
    CinctIndex::build(&[vec![2u32, 3, 4], vec![3, 4, 5]], 8)
        .write_to(&mut buf)
        .unwrap();
    buf[8..16].copy_from_slice(&(1u64 << 32).to_le_bytes());
    buf.truncate(80);
    match CinctIndex::read_from(&mut std::io::Cursor::new(buf)) {
        Err(QueryError::Io(msg)) => assert!(msg.contains("UnexpectedEof"), "{msg}"),
        other => panic!("expected a typed Io error, got {other:?}"),
    }
}

#[test]
fn hostile_length_words_never_panic_or_abort() {
    // Overwrite 8 bytes at every offset of a valid index with huge values:
    // every decoder must answer Ok or a typed error, with allocation
    // bounded by the input, never a panic or an allocation abort.
    let trajs = vec![vec![0u32, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]];
    let mut panics = Vec::new();
    for locate in [None, Some(8)] {
        let mut builder = CinctBuilder::new();
        if let Some(rate) = locate {
            builder = builder.locate_sampling(rate);
        }
        let mut buf = Vec::new();
        builder.build(&trajs, 6).write_to(&mut buf).unwrap();
        for at in 0..=buf.len() - 8 {
            for value in [1u64 << 32, 1 << 40, 1 << 61, u64::MAX] {
                let mut bad = buf.clone();
                bad[at..at + 8].copy_from_slice(&value.to_le_bytes());
                let outcome = std::panic::catch_unwind(|| {
                    CinctIndex::read_from(&mut std::io::Cursor::new(bad)).map(|_| ())
                });
                if outcome.is_err() {
                    panics.push((locate, at, value));
                }
            }
        }
    }
    assert!(
        panics.is_empty(),
        "(locate, offset, value) that panicked: {panics:?}"
    );
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
