#!/usr/bin/env bash
# Repo CI: formatting, lints, the full test suite, a smoke run of the
# staged micro-batch pipeline in both modes, the parallel-kernel
# determinism and golden checks, and the standing benchmark's selftest.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace
cargo build --examples --release

# The API docs must build clean: broken intra-doc links or malformed
# rustdoc are errors, not warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

# Static invariants (DESIGN.md § "Static invariants"): deny-by-default
# linter over the whole workspace — determinism, panic-reachability from
# the recovery roots, wall-clock taint of numerics, RNG stream
# discipline, documented unsafe, accounted device allocation. The
# human-readable run prints the call-graph stats (functions, edges,
# ambiguous call sites) on stderr.
cargo run -q -p buffalo-lint -- check
# The waivers those invariants are granted, as a trend line: every
# `lint:allow` in the workspace's Rust sources (the linter's own rule
# texts and fixtures included, so the count only moves with a waiver).
echo "ci: lint:allow sites: $(grep -rn 'lint:allow' --include='*.rs' crates src | wc -l)"
# Size, as a second trend line (no gate): what every simplicity write-up
# since PR 19 quotes as "PR 19's script". Per source directory, the code
# lines (neither blank nor a `//` comment, each file cut at its first
# `#[cfg(test)]`) and, of those, the lines that open a `pub` item.
for dir in crates/*/src src shims; do
  find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk -v dir="$dir" '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*($|\/\/)/ { next }
    { code++ }
    /^[[:space:]]*pub (fn|struct|enum|trait|const|type|mod|static|use)/ { pubs++ }
    END { printf "ci: size: %s: %d code lines, %d pub items\n", dir, code, pubs }'
done

# Machine-readable gate, as its own step: the --json rendering over a
# clean workspace must be exactly the empty array (any diagnostic, or
# any schema drift on the empty output, fails here even if the exit
# code above regresses).
lint_json="$(cargo run -q -p buffalo-lint -- check --json 2>/dev/null)"
if [ "$lint_json" != "[]" ]; then
  echo "ci: buffalo-lint --json expected an empty diagnostic array, got:" >&2
  echo "$lint_json" >&2
  exit 1
fi

# The loom-model interleaving tests for the thread-pool handoff run under
# `--cfg loom` (see shims/loom — a bounded randomized-schedule stand-in
# for the real loom crate, same API).
RUSTFLAGS="--cfg loom" cargo test -q -p buffalo-par --test loom_model

# Miri over the pool's unsafe lifetime erasure, when the toolchain has it
# (graceful skip otherwise — the container may lack the miri component).
if cargo +nightly miri --version >/dev/null 2>&1; then
  cargo +nightly miri test -p buffalo-par
else
  echo "ci: skip — cargo +nightly miri unavailable"
fi

# The pipeline toggle must train end-to-end both ways, to the same
# numbers: with the pipeline on, blocks are built on the Prepare thread
# from a scratch that thread keeps between micro-batches, and nothing it
# holds may reach the numerics. The epoch table (loss, accuracies) has to
# be byte-identical.
off=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --pipeline off | grep -E '^\s+[0-9]')
on=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --pipeline on | grep -E '^\s+[0-9]')
if [ "$off" != "$on" ]; then
  echo "ci: FAIL — training diverged between --pipeline off and --pipeline on" >&2
  printf 'pipeline off:\n%s\npipeline on:\n%s\n' "$off" "$on" >&2
  exit 1
fi
echo "ci: --pipeline off and --pipeline on epoch tables identical"

# Parallel kernels must not change the numerics: the epoch table (loss,
# accuracies) has to be byte-identical between 1 and 4 threads.
t1=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --threads 1 | grep -E '^\s+[0-9]')
t4=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --threads 4 | grep -E '^\s+[0-9]')
if [ "$t1" != "$t4" ]; then
  echo "ci: FAIL — training diverged between --threads 1 and --threads 4" >&2
  printf 'threads=1:\n%s\nthreads=4:\n%s\n' "$t1" "$t4" >&2
  exit 1
fi
echo "ci: --threads 1 and --threads 4 epoch tables identical"

# Fault-injection smoke: a training run with injected transient faults
# must complete end-to-end under the recovery ladder.
cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --faults 'transient:p=0.1,seed=7'

# Retry-only recovery must not change the numerics: allocation happens
# before any forward/backward work, so a transient-fault run's epoch table
# (loss, accuracies) has to be byte-identical to the fault-free run.
clean=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M | grep -E '^\s+[0-9]')
faulty=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --faults 'transient:p=0.3,seed=7' --max-retries 8 | grep -E '^\s+[0-9]')
if [ "$clean" != "$faulty" ]; then
  echo "ci: FAIL — training diverged between fault-free and transient-fault runs" >&2
  printf 'fault-free:\n%s\nfaulty:\n%s\n' "$clean" "$faulty" >&2
  exit 1
fi
echo "ci: fault-free and transient-fault epoch tables identical"

# Crash-consistency smoke: a run killed by a torn mid-snapshot crash must
# resume from the surviving ring and replay a loss trail bitwise identical
# to an uninterrupted run's (`trail` lines carry the f32 bit patterns).
ckdir=$(mktemp -d)
ref=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --checkpoint-dir "$ckdir/ref" --checkpoint-every 2 | grep '^trail')
if cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --checkpoint-dir "$ckdir/crash" --checkpoint-every 2 \
  --faults 'crash:at=4,torn=1' >/dev/null 2>&1; then
  echo "ci: FAIL — injected crash did not kill the run" >&2
  exit 1
fi
resumed=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --resume "$ckdir/crash" --checkpoint-every 2 | grep '^trail')
if [ "$ref" != "$resumed" ]; then
  echo "ci: FAIL — resumed loss trail differs from the uninterrupted run" >&2
  diff <(printf '%s\n' "$ref") <(printf '%s\n' "$resumed") >&2 || true
  exit 1
fi
rm -rf "$ckdir"
echo "ci: crash+resume loss trail bitwise identical"

# Elastic failover smoke: a 2-device pool losing device 1 mid-run must
# complete through the failover rung, report the loss, and replay a loss
# trail bitwise identical to the fault-free 2-device run (re-sharding is
# pure re-routing — see DESIGN.md § "Elastic multi-device recovery").
pool_ref=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 6M --gpus 2)
pool_lost=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 6M --gpus 2 \
  --faults 'lose:1,9')
if ! grep -q 'failover: device 1 lost' <<<"$pool_lost"; then
  echo "ci: FAIL — 2-device run with lose:1,9 reported no failover" >&2
  printf '%s\n' "$pool_lost" >&2
  exit 1
fi
if ! grep -q 'LOST' <<<"$pool_lost"; then
  echo "ci: FAIL — device summary does not mark device 1 as LOST" >&2
  printf '%s\n' "$pool_lost" >&2
  exit 1
fi
if [ "$(grep '^trail' <<<"$pool_ref")" != "$(grep '^trail' <<<"$pool_lost")" ]; then
  echo "ci: FAIL — device-loss loss trail differs from the fault-free pool run" >&2
  diff <(grep '^trail' <<<"$pool_ref") <(grep '^trail' <<<"$pool_lost") >&2 || true
  exit 1
fi
echo "ci: 2-device failover completes with a bitwise-identical loss trail"

# Lone-device loss smoke: a single device is a pool of one, so losing it
# leaves no survivor and the run must end in a recovery-exhausted error
# (it used to take the failover rung forever; `timeout` turns a relapse
# into a failure instead of a hung CI).
for lone in 'train cora --epochs 1 --budget 12M --faults lose:0,3' \
            'serve cora --budget 12M --faults lose:0,2'; do
  # shellcheck disable=SC2086  # $lone is a fixed word list
  if out=$(timeout 30 cargo run -q --release --bin buffalo -- $lone 2>&1); then
    echo "ci: FAIL — buffalo $lone survived losing its only device" >&2
    exit 1
  fi
  if ! grep -q 'recovery exhausted' <<<"$out"; then
    echo "ci: FAIL — buffalo $lone did not end in a recovery-exhausted error" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
done
echo "ci: losing a lone device ends train and serve with recovery exhausted"

# Golden bit-identity: the lint-driven refactors (hash containers ->
# ordered containers, unwrap -> Result on recovery paths) must not move a
# single bit of the epoch table or the checkpoint trail. The golden file
# was captured before those changes landed.
ckdir=$(mktemp -d)
bits=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --checkpoint-dir "$ckdir" --checkpoint-every 2 | grep -E '^\s+[0-9]|^trail')
rm -rf "$ckdir"
if [ "$bits" != "$(cat tests/golden/cora_epochs2_bits.txt)" ]; then
  echo "ci: FAIL — cora epoch table/trail diverged from tests/golden/cora_epochs2_bits.txt" >&2
  diff tests/golden/cora_epochs2_bits.txt <(printf '%s\n' "$bits") >&2 || true
  exit 1
fi
echo "ci: cora epoch table and trail match the pre-refactor golden bitwise"

# SIMD backends. The scalar backend is the default and must stay bitwise
# identical to the historical kernels (the same golden as above, reached
# via the explicit flag). Each vector backend gets its own golden gate:
# IEEE-754 ops (including FMA) are exactly specified, so a backend's
# trail is portable across any host that supports it. SSE currently
# coincides with scalar on this model — the SAGE mean path is axpy-only,
# and the SSE axpy (separate mul+add) is bit-equal to scalar — while AVX2
# differs through FMA contraction; both must be run-to-run deterministic.
ckdir=$(mktemp -d)
scalar_bits=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --simd scalar --checkpoint-dir "$ckdir/scalar" --checkpoint-every 2 | grep -E '^\s+[0-9]|^trail')
if [ "$scalar_bits" != "$(cat tests/golden/cora_epochs2_bits.txt)" ]; then
  echo "ci: FAIL — --simd scalar diverged from tests/golden/cora_epochs2_bits.txt" >&2
  diff tests/golden/cora_epochs2_bits.txt <(printf '%s\n' "$scalar_bits") >&2 || true
  exit 1
fi
echo "ci: --simd scalar matches the golden bitwise"
for backend in sse avx2; do
  if bits=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
    --simd "$backend" --checkpoint-dir "$ckdir/$backend" --checkpoint-every 2 2>/dev/null \
    | grep -E '^\s+[0-9]|^trail'); then
    if [ "$bits" != "$(cat "tests/golden/cora_epochs2_${backend}_bits.txt")" ]; then
      echo "ci: FAIL — --simd $backend diverged from tests/golden/cora_epochs2_${backend}_bits.txt" >&2
      diff "tests/golden/cora_epochs2_${backend}_bits.txt" <(printf '%s\n' "$bits") >&2 || true
      exit 1
    fi
    echo "ci: --simd $backend matches its golden bitwise"
  else
    echo "ci: skip — host CPU does not support --simd $backend"
  fi
done
rm -rf "$ckdir"

# `--simd auto` resolves to the best detected backend; whatever it picks
# must be run-to-run deterministic, byte for byte.
a1=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --simd auto \
  | grep -E '^kernels|^\s+[0-9]')
a2=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --simd auto \
  | grep -E '^kernels|^\s+[0-9]')
if [ "$a1" != "$a2" ]; then
  echo "ci: FAIL — --simd auto diverged between two identical runs" >&2
  printf 'run1:\n%s\nrun2:\n%s\n' "$a1" "$a2" >&2
  exit 1
fi
echo "ci: --simd auto run-to-run byte-identical ($(printf '%s' "$a1" | head -1))"

# bf16 feature storage must train end-to-end (numerics shift within the
# documented 2^-8 relative bound, so no golden here — just the smoke).
cargo run -q --release --bin buffalo -- train cora --epochs 1 --budget 12M \
  --precision bf16 --simd auto >/dev/null
echo "ci: --precision bf16 trains end-to-end"

# Serving smoke: `buffalo serve` replays a seeded trace through the same
# engine and bucket scheduler as training; two runs must produce
# byte-identical output (per-request answers, latency bits, digest).
s1=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7')
s2=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7')
if [ "$s1" != "$s2" ]; then
  echo "ci: FAIL — buffalo serve diverged between two identical runs" >&2
  diff <(printf '%s\n' "$s1") <(printf '%s\n' "$s2") >&2 || true
  exit 1
fi
echo "ci: buffalo serve replay byte-identical"

# Chaos-serve smoke: injected transient faults must not drop a single
# admitted request or move one answer bit — only latencies may change.
# The `answers:` digest folds (index, node, class) per completed request.
sc=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7' --quiet-requests 1)
sf=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7' --quiet-requests 1 \
  --faults 'transient:p=0.2,seed=11')
if ! grep -q 'admission: offered 64, completed 64, shed 0, missed 0' <<<"$sf"; then
  echo "ci: FAIL — transient-fault serve dropped admitted requests" >&2
  printf '%s\n' "$sf" >&2
  exit 1
fi
if [ "$(grep '^answers:' <<<"$sc")" != "$(grep '^answers:' <<<"$sf")" ]; then
  echo "ci: FAIL — transient-fault serve moved the answers digest" >&2
  printf 'fault-free: %s\nfaulty:     %s\n' \
    "$(grep '^answers:' <<<"$sc")" "$(grep '^answers:' <<<"$sf")" >&2
  exit 1
fi
echo "ci: chaos serve (transient faults) completes all requests, answers identical"

# The pipeline toggle must not move a served answer either — the serving
# counterpart of the training gate above: inference goes through the same
# staged driver, so with the pipeline on its blocks are built on the
# Prepare thread. The `answers:` digest and the `admission:` line must be
# identical to the serial run's (peak memory may differ: double-buffered
# residency). At 12M every dispatch is one micro-batch; 2M splits them
# (24 micro-batches over 8 dispatches), so the Prepare thread really runs.
for budget in 12M 2M; do
  so=$(cargo run -q --release --bin buffalo -- serve cora --budget "$budget" \
    --trace 'poisson:n=64,rate=128,seed=7' --quiet-requests 1 --pipeline off \
    | grep -E '^(answers|admission):')
  sp=$(cargo run -q --release --bin buffalo -- serve cora --budget "$budget" \
    --trace 'poisson:n=64,rate=128,seed=7' --quiet-requests 1 --pipeline on \
    | grep -E '^(answers|admission):')
  if [ "$so" != "$sp" ] || [ "$(wc -l <<<"$sp")" -ne 2 ]; then
    echo "ci: FAIL — serving at --budget $budget diverged between --pipeline off and --pipeline on" >&2
    printf 'pipeline off:\n%s\npipeline on:\n%s\n' "$so" "$sp" >&2
    exit 1
  fi
done
echo "ci: serve --pipeline off and --pipeline on answers and admission identical"

# Device-loss serve smoke: a 2-device pool losing device 1 mid-run must
# fail over, mark the member LOST, and still answer identically to the
# single-device fault-free run.
sl=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7' --quiet-requests 1 \
  --gpus 2 --faults 'lose:1,2')
if ! grep -q 'failover: dispatch .*device 1 lost' <<<"$sl"; then
  echo "ci: FAIL — 2-device serve with lose:1,2 reported no failover" >&2
  printf '%s\n' "$sl" >&2
  exit 1
fi
if ! grep -q 'LOST' <<<"$sl"; then
  echo "ci: FAIL — serve device summary does not mark device 1 as LOST" >&2
  printf '%s\n' "$sl" >&2
  exit 1
fi
if [ "$(grep '^answers:' <<<"$sc")" != "$(grep '^answers:' <<<"$sl")" ]; then
  echo "ci: FAIL — device-loss serve moved the answers digest" >&2
  printf 'fault-free: %s\nlossy:      %s\n' \
    "$(grep '^answers:' <<<"$sc")" "$(grep '^answers:' <<<"$sl")" >&2
  exit 1
fi
echo "ci: chaos serve (device loss) fails over with identical answers"

# The resilience artifacts are gates: the five experiments run at full
# size and each fails if its committed BENCH_*.json differs from what the
# run regenerated (every field is exact or simulated; `--write-bench`
# rewrites them deliberately). Built first, so the echoed wall time is
# the experiments' own: a trend line.
cargo build -q --release -p buffalo-bench --bin figures
figures_start=$(date +%s.%N)
target/release/figures robustness failover checkpoint serving serving-chaos
echo "ci: five BENCH_*.json match their experiments ($(date +%s.%N | awk -v s="$figures_start" '{printf "%.1f", $1 - s}') s)"

# The standing benchmark must still run: its smoke runs every workload
# with reduced sizes, checks each workload's outputs (loss trail, answer
# digest, admission accounting), that simulated and exact metrics repeat
# bit for bit, and that BENCHMARK.json, benchmark/README.md and what a
# run prints name the same workloads and metrics.
benchmark/selftest.sh

echo "ci: all checks passed"
