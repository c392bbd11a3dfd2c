#!/usr/bin/env bash
# Everything the benchmark package can check about itself:
#   benchmark/selfcheck.sh            format, lints, unit tests, BENCHMARK.json
#                                     against the metric tables, and a smoke
#                                     pass of every workload, traced and not
#   benchmark/selfcheck.sh --repeat   the above, then two sets of three
#                                     full-size runs judged by the bounds
#                                     (about ten minutes)
set -euo pipefail
cd "$(dirname "$0")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$PWD/target}"

cargo fmt --check
cargo clippy --offline --all-targets -- -D warnings
cargo test --offline --release
cargo build --offline --release
bin="$CARGO_TARGET_DIR/release/cinct_benchmark"

diff <("$bin" --describe) ../BENCHMARK.json

mkdir -p out
for workload in direct_query serve_miss serve_hot_batch ingest_mixed; do
    for trace in 0 1; do
        "$bin" --workload "$workload" --seed 7 --seconds 2 --scale 0.1 --trace "$trace" \
            2>"out/smoke-$workload-$trace.log" | tail -n 1 >"out/smoke-$workload-$trace.json"
        test -s "out/trace-$workload.json" || test "$trace" = 0
    done
done
python3 - <<'PY'
import json, re
spec = json.load(open("../BENCHMARK.json"))
name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
for w in spec["workloads"]:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        got = json.load(open("out/smoke-%s-%d.json" % (w["name"], trace)))
        assert set(got) == {"correct", "attempted", "failed", "metrics"}, got.keys()
        assert got["correct"] is True and got["failed"] == 0 and got["attempted"] >= 1, (w["name"], trace)
        want = {m["name"]: m["unit"] for m in spec[key]}
        have = {n: m["unit"] for n, m in got["metrics"].items()}
        assert have == want, (w["name"], trace, set(have) ^ set(want))
        assert all(name.match(n) for n in have)
        if trace == 0:
            zero = [n for n, m in got["metrics"].items() if m["value"] == 0]
            assert not zero, (w["name"], "end-to-end metrics that read 0", zero)
    spans = json.load(open("out/trace-%s.json" % w["name"]))["spans"]
    ids = {s["id"] for s in spans}
    assert spans and all(s["parent"] == 0 or s["parent"] in ids for s in spans), w["name"]
print("smoke: every workload emits every declared metric, traced and untraced")
PY

if [ "${1:-}" = "--repeat" ]; then
    python3 repeat.py "$bin" --out out/repeat.json
fi
echo "selfcheck: ok"
