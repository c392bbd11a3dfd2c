//! The unified-query-API contract: every backend — CiNCT plus the five
//! Table-II baseline FM-indexes — answers the same queries identically
//! through the single `PathQuery` trait, behind `&dyn` dispatch, with the
//! same typed-error taxonomy. The temporal index rides the same trait.

use cinct::engine::{Query, QueryEngine, QueryValue};
use cinct::{CinctBuilder, CinctIndex, Path, PathQuery, QueryError};
use cinct_bwt::TrajectoryString;
use cinct_fmindex::{FmApHyb, FmGmr, IcbHuff, IcbWm, Ufmi};

fn corpus() -> (Vec<Vec<u32>>, usize) {
    // Deterministic pseudo-random trajectories over a sparse ET-graph.
    let n_edges = 40u32;
    let mut trajs = Vec::new();
    let mut x = 0x1234_5678_9abc_def0u64;
    for k in 0..60 {
        let mut t = vec![k % n_edges];
        for _ in 0..(3 + k % 14) {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let prev = *t.last().unwrap();
            let succ = [
                (prev * 5 + 1) % n_edges,
                (prev * 5 + 2) % n_edges,
                (prev * 5 + 4) % n_edges,
            ];
            t.push(succ[((x >> 33) % 3) as usize]);
        }
        trajs.push(t);
    }
    (trajs, n_edges as usize)
}

/// All six paper backends behind the one trait.
fn all_backends(trajs: &[Vec<u32>], n_edges: usize) -> Vec<(&'static str, Box<dyn PathQuery>)> {
    let ts = TrajectoryString::build(trajs, n_edges);
    vec![
        (
            "CiNCT",
            Box::new(CinctIndex::build(trajs, n_edges)) as Box<dyn PathQuery>,
        ),
        ("UFMI", Box::new(Ufmi::from_text(ts.text(), ts.sigma()))),
        ("ICB-WM", Box::new(IcbWm::from_text(ts.text(), ts.sigma()))),
        (
            "ICB-Huff",
            Box::new(IcbHuff::from_text(ts.text(), ts.sigma())),
        ),
        ("FM-GMR", Box::new(FmGmr::from_text(ts.text(), ts.sigma()))),
        (
            "FM-AP-HYB",
            Box::new(FmApHyb::from_text(ts.text(), ts.sigma())),
        ),
    ]
}

fn probe_paths(trajs: &[Vec<u32>]) -> Vec<Vec<u32>> {
    let mut probes = Vec::new();
    for t in trajs.iter().step_by(7) {
        for len in [1usize, 2, 4] {
            if t.len() >= len {
                probes.push(t[..len].to_vec());
                probes.push(t[t.len() - len..].to_vec());
            }
        }
    }
    probes.push(vec![0, 0, 0, 0]); // almost surely absent
    probes
}

fn brute_count(trajs: &[Vec<u32>], path: &[u32]) -> usize {
    trajs
        .iter()
        .map(|t| t.windows(path.len()).filter(|w| *w == path).count())
        .sum()
}

#[test]
fn six_backends_one_trait() {
    let (trajs, n_edges) = corpus();
    let backends = all_backends(&trajs, n_edges);
    let reference = &backends[0].1;
    for path in probe_paths(&trajs) {
        let p = Path::new(&path);
        let expected = brute_count(&trajs, &path);
        let ref_range = reference.range(p);
        for (name, b) in &backends {
            assert_eq!(b.count(p), expected, "{name} count, path {path:?}");
            assert_eq!(b.range(p), ref_range, "{name} range, path {path:?}");
        }
    }
    // Extraction agrees across backends at arbitrary rows/lengths, through
    // `&dyn PathQuery`.
    let n = reference.text_len();
    for j in (0..n).step_by(97) {
        let expected = reference.extract(j, 6);
        for (name, b) in &backends[1..] {
            assert_eq!(b.extract(j, 6), expected, "{name} extract at row {j}");
        }
    }
}

#[test]
fn error_taxonomy_is_uniform_across_backends() {
    let (trajs, n_edges) = corpus();
    for (name, b) in all_backends(&trajs, n_edges) {
        assert_eq!(
            b.try_range(Path::new(&[])).err(),
            Some(QueryError::EmptyPattern),
            "{name}"
        );
        assert_eq!(
            b.try_range(Path::new(&[0, 40, 1])).err(),
            Some(QueryError::UnknownEdge {
                edge: 40,
                n_edges: 40
            }),
            "{name}"
        );
        // Malformed beats unsupported: validation errors come first.
        assert_eq!(
            b.occurrences(Path::new(&[99])).err(),
            Some(QueryError::UnknownEdge {
                edge: 99,
                n_edges: 40
            }),
            "{name}"
        );
        // None of the baselines carry SA samples; CiNCT built without
        // locate_sampling doesn't either.
        assert_eq!(
            b.occurrences(Path::new(&[0, 1])).err(),
            Some(QueryError::LocateUnsupported),
            "{name}"
        );
    }
}

#[test]
fn engine_batches_agree_across_backends() {
    let (trajs, n_edges) = corpus();
    let batch: Vec<Query> = probe_paths(&trajs)
        .iter()
        .map(|p| Query::count(p))
        .collect();
    let backends = all_backends(&trajs, n_edges);
    let reference = QueryEngine::new(backends[0].1.as_ref()).run(&batch);
    assert_eq!(reference.errors(), 0);
    for (name, b) in &backends[1..] {
        let report = QueryEngine::new(b.as_ref()).run(&batch);
        assert_eq!(report.total_matches(), reference.total_matches(), "{name}");
        assert_eq!(report.hits(), reference.hits(), "{name}");
        for (i, (a, r)) in report.outcomes.iter().zip(&reference.outcomes).enumerate() {
            assert_eq!(a.value, r.value, "{name} query {i}");
        }
    }
}

#[test]
fn occurrence_streaming_is_lazy() {
    let (trajs, n_edges) = corpus();
    let idx = CinctBuilder::new()
        .locate_sampling(4)
        .build(&trajs, n_edges);
    // A single-edge path with many matches.
    let path = trajs
        .iter()
        .flat_map(|t| t.iter().copied())
        .map(|e| vec![e])
        .max_by_key(|p| idx.count(Path::new(p)))
        .unwrap();
    let total = idx.count(Path::new(&path));
    assert!(total >= 10, "corpus should repeat some edge; got {total}");
    // Partial consumption: the iterator resolves only what is pulled.
    let mut it = idx.occurrences(Path::new(&path)).unwrap();
    assert_eq!(it.remaining(), total);
    let first_three: Vec<(usize, usize)> = it.by_ref().take(3).collect();
    assert_eq!(first_three.len(), 3);
    assert_eq!(it.remaining(), total - 3);
    // Draining the rest plus the prefix equals the brute-force answer.
    let mut all = first_three;
    all.extend(it);
    all.sort_unstable();
    let mut expected = Vec::new();
    for (t, traj) in trajs.iter().enumerate() {
        for (off, window) in traj.windows(path.len()).enumerate() {
            if window == path {
                expected.push((t, off));
            }
        }
    }
    assert_eq!(all, expected);
}

#[test]
fn temporal_index_is_a_backend_too() {
    let (trajs, n_edges) = corpus();
    let data: Vec<cinct::TimestampedTrajectory> = trajs
        .iter()
        .map(|edges| cinct::TimestampedTrajectory {
            times: (0..edges.len() as u64).map(|i| 100 + i * 30).collect(),
            edges: edges.clone(),
        })
        .collect();
    let temporal = cinct::TemporalCinct::build(&data, n_edges, 8).unwrap();
    let spatial = CinctIndex::build(&trajs, n_edges);
    for path in probe_paths(&trajs).into_iter().take(10) {
        let p = Path::new(&path);
        assert_eq!(temporal.count(p), spatial.count(p), "path {path:?}");
    }
    // The temporal walk is the spatial one.
    for j in (0..spatial.text_len()).step_by(13) {
        assert_eq!(temporal.extract(j, 6), spatial.extract(j, 6), "row {j}");
    }
    // And through the engine, occurrences included.
    let report = QueryEngine::new(&temporal).run(&[Query::occurrences(&trajs[0][..2])]);
    assert!(matches!(
        report.outcomes[0].value,
        Ok(QueryValue::Occurrences(ref v)) if !v.is_empty()
    ));
}
