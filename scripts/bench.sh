#!/usr/bin/env bash
# Writes BENCH_10.json: the fixed wall-clock sweep of the driver loop with
# fast-forward on (schema millipede-bench/3; see EXPERIMENTS.md,
# "Wall-clock benchmarks"), measured against the checked-in BENCH_9.json
# when it is present. The sweep is deterministic — fixed points, fixed
# seeds, median of five in-process runs per point — so regenerating the
# file changes only the measured wall-times, never the shape, and the
# binary exits nonzero if the idle-heavy point's per-edge and fast-forward
# runs ever disagree on a result. BENCH_7.json–BENCH_9.json are kept
# unchanged as history.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --offline --release --workspace
baseline=()
if [ -f BENCH_9.json ]; then
    baseline=(--baseline BENCH_9.json)
fi
./target/release/millipede-bench --runs 5 "${baseline[@]}" --out BENCH_10.json

# Validate the emitted file against the millipede-bench/3 schema with an
# independent JSON parser before declaring success — a malformed bench file
# must fail here, not in a downstream consumer that silently sees an empty
# series.
if command -v python3 > /dev/null; then
    python3 - BENCH_10.json <<'EOF'
import json, sys

doc = json.load(open(sys.argv[1]))
assert doc["schema"] == "millipede-bench/3", f"bad schema {doc.get('schema')}"
assert doc["runs_per_point"] >= 1
points = doc["points"]
assert len(points) >= 1, "empty points array"
point_keys = {
    "label", "arch", "bench", "chunks", "corelets", "contexts",
    "poll_ms", "poll_median_ms",
}
for p in points:
    missing = point_keys - set(p)
    assert not missing, f"point {p.get('label')}: missing keys {missing}"
    assert len(p["poll_ms"]) == doc["runs_per_point"], \
        f"point {p['label']}: poll_ms has {len(p['poll_ms'])} entries"
    assert all(m > 0 for m in p["poll_ms"]), f"point {p['label']}: non-positive wall"
    assert p["poll_median_ms"] > 0, f"point {p['label']}: non-positive median"
idle = doc["idle_heavy"]
for series in ("per_edge_poll_ms", "poll_ms"):
    assert len(idle[series]) == doc["runs_per_point"], f"idle_heavy: short {series}"
for key in ("per_edge_poll_median_ms", "poll_median_ms", "speedup_vs_per_edge_poll"):
    assert idle[key] > 0, f"idle_heavy: non-positive {key}"
assert idle["digests_match"] is True, "idle_heavy: per-edge and fast-forward results diverge"
print(f"BENCH_10.json schema OK: {len(points)} points + idle-heavy")
EOF
else
    echo "warning: python3 not found; BENCH_10.json schema not validated" >&2
fi
