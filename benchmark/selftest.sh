#!/usr/bin/env bash
# Smoke test of the benchmark itself: --quick twice and --quick --traced
# once, `compare` on the pair, and a check that the workload and metric
# names a run prints, the names in BENCHMARK.json and the names in
# benchmark/README.md are the same set.
set -euo pipefail
cd "$(dirname "$0")/.."

bench() {
    cargo run --release --quiet --manifest-path benchmark/Cargo.toml -- "$@"
}
out=benchmark/out
mkdir -p "$out"

echo "== BENCHMARK.json is the manifest the crate prints"
bench manifest | diff - BENCHMARK.json

echo "== --quick, twice"
bench --quick >"$out/selftest_a.txt"
cp "$out/results.json" "$out/selftest_a.json"
bench --quick >"$out/selftest_b.txt"
cp "$out/results.json" "$out/selftest_b.json"

echo "== --quick --traced"
bench --quick --traced >"$out/selftest_traced.txt"

echo "== compare"
# Wall verdicts of a 1.5 s smoke are noise (compare may exit 1 on them);
# what must hold is that every simulated and exact number repeated exactly.
bench compare "$out/selftest_a.json" "$out/selftest_b.json" >"$out/selftest_compare.txt" || [ $? -eq 1 ]
if grep -w differs "$out/selftest_compare.txt"; then
    echo "a simulated or exact metric differs between two runs of one seed" >&2
    exit 1
fi
grep -c -w identical "$out/selftest_compare.txt" >/dev/null

echo "== names"
# Rows are `workload metric value unit ...`; notes start with `#`.
printed=$(grep -hv '^#' "$out/selftest_a.txt" "$out/selftest_traced.txt" |
    awk 'NF >= 4 { print $1; print $2 }' | sort -u)
manifest=$(grep -o '"name": "[^"]*"' BENCHMARK.json | cut -d'"' -f4 | sort -u)
readme=$(awk '/^## Name index/ { on = 1 } on && /^```/ { fence++; next } on && fence == 1' \
    benchmark/README.md | sort -u)
diff <(echo "$printed") <(echo "$manifest")
diff <(echo "$manifest") <(echo "$readme")
echo "selftest passed: $(echo "$manifest" | wc -l) names agree"
