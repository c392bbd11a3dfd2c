//! End-to-end tests of the `cinct` binary: every verb run as a child
//! process on the paper's Fig. 1 corpus, each answer checked against the
//! library's answer on the same corpus, plus the exit-code contract
//! (typed errors exit 1 with `error:`, usage errors exit 2).

use std::path::{Path as FsPath, PathBuf};
use std::process::{Command, Output};

use cinct::text_io::format_trajectory;
use cinct::{Path, PathQuery, ShardedBuilder, ShardedCinct};

/// The paper's Fig. 1 trajectories over 6 edges.
fn paper_trajs() -> Vec<Vec<u32>> {
    vec![vec![0, 1, 4, 5], vec![0, 1, 2], vec![1, 2], vec![0, 3]]
}

/// A fresh scratch directory holding the corpus as a trajectory file.
fn scratch(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("cinct-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    std::fs::create_dir_all(&d).unwrap();
    let text: String = paper_trajs()
        .iter()
        .map(|t| format_trajectory(t) + "\n")
        .collect();
    std::fs::write(d.join("trips.txt"), text).unwrap();
    d
}

fn cinct(args: &[&FsPath]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_cinct"))
        .args(args)
        .output()
        .expect("spawn cinct")
}

/// Run a verb that must succeed; returns its stdout.
fn ok(args: &[&str]) -> String {
    let args: Vec<&FsPath> = args.iter().map(FsPath::new).collect();
    let out = cinct(&args);
    assert!(
        out.status.success(),
        "cinct {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Run a verb that must fail with `code`; returns its stderr.
fn fails(code: i32, args: &[&str]) -> String {
    let args: Vec<&FsPath> = args.iter().map(FsPath::new).collect();
    let out = cinct(&args);
    assert_eq!(out.status.code(), Some(code), "cinct {args:?}");
    String::from_utf8(out.stderr).unwrap()
}

fn s(p: &FsPath) -> &str {
    p.to_str().unwrap()
}

/// The value of a `key:   value` line of `cinct stats`.
fn stat<'a>(stats: &'a str, key: &str) -> &'a str {
    stats
        .lines()
        .find_map(|l| l.strip_prefix(key)?.strip_prefix(':'))
        .unwrap_or_else(|| panic!("no {key} line in\n{stats}"))
        .trim()
}

/// Check `stats`, `count`, `count --trace`, `locate` and `get` on the
/// directory at `dir` against the library's `lib`. The library's copy is
/// saved and reopened first: sizes are heap accounting, and the CLI
/// reports them for a loaded corpus.
fn assert_verbs_match(dir: &FsPath, lib: &ShardedCinct) {
    let mirror = dir.with_extension("lib");
    lib.save_dir(&mirror).unwrap();
    let lib = &ShardedCinct::open_dir(&mirror).unwrap();
    std::fs::remove_dir_all(&mirror).unwrap();
    let stats = ok(&["stats", s(dir)]);
    assert_eq!(
        stat(&stats, "kind"),
        format!("sharded ({} shards)", lib.num_shards())
    );
    assert_eq!(
        stat(&stats, "trajectories"),
        lib.num_trajectories().to_string()
    );
    assert_eq!(stat(&stats, "indexed symbols"), lib.text_len().to_string());
    // One row per shard: id, trajectories, symbols, core bytes,
    // labeled-BWT bytes, directory bytes, ET-graph edges, max out-degree.
    let rows: Vec<Vec<usize>> = stats
        .lines()
        .skip_while(|l| !l.starts_with("per shard:"))
        .skip(1)
        .map(|l| l.split_whitespace().map(|v| v.parse().unwrap()).collect())
        .collect();
    assert_eq!(rows.len(), lib.num_shards(), "{stats}");
    for (i, row) in rows.iter().enumerate() {
        let idx = lib.shard_index(i);
        let graph = idx.rml().graph();
        let want = [
            i,
            idx.num_trajectories(),
            idx.text_len(),
            idx.core_size_in_bytes(),
            idx.size_without_et_graph(),
            idx.directory_size_in_bytes(),
            graph.num_edges(),
            graph.max_out_degree(),
        ];
        assert_eq!(row[..], want[..], "shard {i}");
    }

    for (spec, path) in [
        ("0,1", vec![0, 1]),
        ("1,2", vec![1, 2]),
        ("3,0", vec![3, 0]),
    ] {
        let count = ok(&["count", s(dir), spec]);
        let total: usize = count.split_whitespace().next().unwrap().parse().unwrap();
        assert_eq!(total, lib.count(Path::new(&path)), "count {spec}");
        for (i, r) in lib.shard_ranges(Path::new(&path)).iter().enumerate() {
            if let Some(r) = r {
                let shown = format!("shard {i}: {}..{}", r.start, r.end);
                assert!(count.contains(&shown), "count {spec}: {count}");
            }
        }

        let trace = ok(&["count", s(dir), spec, "--trace"]);
        let shards = trace.lines().filter(|l| l.starts_with("  shard ")).count();
        assert_eq!(shards, lib.num_shards(), "{trace}");
        let total_line = format!("  total: {total} matches in ");
        assert!(trace.contains(&total_line), "{trace}");
    }

    if lib.locate_supported() {
        let locate = ok(&["locate", s(dir), "1,2"]);
        let occ = lib.occurrences(Path::new(&[1, 2])).unwrap();
        let mut want = format!("{} occurrence(s)\n", occ.remaining());
        for (traj, offset) in occ.collect_sorted() {
            want += &format!("trajectory {traj} @ edge offset {offset}\n");
        }
        assert_eq!(locate, want);
    } else {
        let err = fails(1, &["locate", s(dir), "1,2"]);
        assert!(err.starts_with("error:"), "{err}");
    }

    for g in 0..lib.num_trajectories() {
        let got = ok(&["get", s(dir), &g.to_string()]);
        assert_eq!(got, format_trajectory(&lib.trajectory(g)) + "\n", "get {g}");
    }
}

#[test]
fn build_without_shards_writes_a_one_shard_directory() {
    let d = scratch("one-shard");
    let dir = d.join("trips.d");
    ok(&["build", s(&d.join("trips.txt")), s(&dir)]);
    assert!(dir.is_dir());
    let lib = ShardedBuilder::new().build(&paper_trajs(), 6);
    assert_eq!(lib.num_shards(), 1);
    assert!(!lib.locate_supported());
    assert_verbs_match(&dir, &lib);
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn sharded_build_append_and_compact_match_the_library() {
    let d = scratch("sharded");
    let dir = d.join("trips.d");
    let built = ok(&[
        "build",
        s(&d.join("trips.txt")),
        s(&dir),
        "--shards",
        "2",
        "--locate",
        "4",
    ]);
    assert!(built.is_empty(), "build reports on stderr: {built}");
    let mut lib = ShardedBuilder::new()
        .shards(2)
        .locate_sampling(4)
        .build(&paper_trajs(), 6);
    assert_eq!(lib.num_shards(), 2);
    assert!(lib.locate_supported());
    assert_verbs_match(&dir, &lib);

    let more = d.join("more.txt");
    std::fs::write(&more, "1 2 5\n0 1\n").unwrap();
    ok(&["append", s(&dir), s(&more)]);
    lib.append_batch(&[vec![1, 2, 5], vec![0, 1]]).unwrap();
    assert_eq!(lib.num_shards(), 3);
    assert_verbs_match(&dir, &lib);

    ok(&["compact", s(&dir), "2"]);
    lib.compact(2).unwrap();
    assert_verbs_match(&dir, &lib);
    std::fs::remove_dir_all(&d).unwrap();
}

#[test]
fn errors_exit_with_their_documented_codes() {
    let d = scratch("errors");
    let txt = d.join("trips.txt");
    let dir = d.join("trips.d");
    ok(&["build", s(&txt), s(&dir)]);

    let err = fails(1, &["count", s(&dir), "0,99"]);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains("99"), "{err}");

    let err = fails(2, &["frobnicate", s(&dir)]);
    assert!(err.starts_with("usage:"), "{err}");

    // A plain file where an index directory is expected.
    let err = fails(1, &["count", s(&txt), "0,1"]);
    assert!(err.starts_with("error:"), "{err}");
    assert!(err.contains(s(&txt)), "{err}");
    std::fs::remove_dir_all(&d).unwrap();
}
