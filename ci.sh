#!/usr/bin/env bash
# Repo CI: formatting, lints, the full test suite, a smoke run of the
# staged micro-batch pipeline in both modes, the parallel-kernel
# determinism and golden checks, and the standing benchmark's selftest.
set -euo pipefail
cd "$(dirname "$0")"

cargo fmt --all -- --check
cargo clippy --workspace --all-targets -- -D warnings
cargo test -q --workspace
# The kernel crates' tests again at the optimisation level the binaries
# ship with: the bitwise checks of the wide kernels against their
# portable references must hold where the compiler optimises both.
cargo test --release -q -p buffalo-simd -p buffalo-tensor -p buffalo-graph -p buffalo-memsim
cargo build --examples --release

# Plan identity, beside the digests `tests/scheduling.rs` pins: the
# scheduler tour prints bucket estimates and, on arxiv at four budgets, K,
# split, imbalance and the largest group's exact memory (its own seed list
# walked afresh), then one re-split of that group at each K > 1 budget.
# Without its wall-clock column the output must be the golden, byte for
# byte.
tour=$(cargo run -q --release --example scheduler_tour | sed -E 's/, [0-9]+ms$//')
if [ "$tour" != "$(cat tests/golden/scheduler_tour.txt)" ]; then
  echo "ci: FAIL — scheduler_tour diverged from tests/golden/scheduler_tour.txt" >&2
  diff tests/golden/scheduler_tour.txt <(printf '%s\n' "$tour") >&2 || true
  exit 1
fi
echo "ci: scheduler_tour plans match the golden"

# The API docs must build clean: broken intra-doc links or malformed
# rustdoc are errors, not warnings.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace -q

# Static invariants (DESIGN.md § "Static invariants"): deny-by-default
# linter over the whole workspace — determinism, panic-reachability from
# the recovery roots, wall-clock taint of numerics, RNG stream
# discipline, documented unsafe, accounted device allocation. The
# human-readable run prints the call-graph stats (functions, edges,
# ambiguous call sites) on stderr.
if ! lint_out=$(cargo run -q -p buffalo-lint -- check 2>&1); then
  printf '%s\n' "$lint_out" >&2
  exit 1
fi
printf '%s\n' "$lint_out"
# The waivers those invariants are granted, as a trend line: every
# `lint:allow` in the workspace's Rust sources (the linter's own rule
# texts and fixtures included, so the count only moves with a waiver).
echo "ci: lint:allow sites: $(grep -rn 'lint:allow' --include='*.rs' crates src | wc -l)"
# Unsafe code, as a trend line beside it (no gate): `#[target_feature]`
# functions, `unsafe fn` declarations and lines opening an `unsafe {`
# block, every line that starts with `//` skipped.
unsafe_counts=$(find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  /^[[:space:]]*#\[target_feature/ { tf++ }
  /^[[:space:]]*\/\// { next }
  /^[[:space:]]*(pub(\([a-z]+\))? )?unsafe fn/ { uf++ }
  /unsafe \{/ { ub++ }
  END { printf "%d target_feature fns, %d unsafe fns, %d unsafe blocks", tf, uf, ub }')
echo "ci: unsafe: $unsafe_counts"
# Prefetches on the host planning path: a demand load through
# `std::hint::black_box` stalls on the row it means to fetch early, and
# measured slower than a real prefetch, so the planning and graph crates
# may not use it outside their tests (a gate). The prefetch call sites in
# non-test code follow as a trend line (each file cut as the size script
# below cuts it, comments and definitions skipped).
non_test() {
  find "$@" -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*\/\// { next }
    { print FILENAME ":" FNR ": " $0 }'
}
if demand=$(non_test crates/{sampling,blocks,bucketing,graph}/src | grep 'black_box'); then
  echo "ci: FAIL — demand-load prefetch (std::hint::black_box) in planning code; use a real prefetch:" >&2
  printf '%s\n' "$demand" >&2
  exit 1
fi
echo "ci: prefetch: $(non_test crates/*/src src | grep -v ' fn ' | grep -cE '(prefetch|prefetch_row)\(|_mm_prefetch::') sites"
# The call graph's size, as a trend line beside it: fewer functions and
# fewer call sites the resolver cannot pin to one callee.
graph=$(sed -nE 's/.*call graph[^0-9]*([0-9]+) function\(s\), ([0-9]+) edge\(s\), ([0-9]+) ambiguous.*/\1 fns, \2 edges, \3 ambiguous/p' <<<"$lint_out")
if [ -z "$graph" ]; then
  echo "ci: FAIL — buffalo-lint check printed no call-graph stats" >&2
  exit 1
fi
echo "ci: call graph: $graph"
# The callers left on the restrict → generate pair that `BlockWalker`
# replaces, as a third trend line: non-test call sites (each file cut as
# the size script below cuts it, comments and the definitions skipped).
planning=$(find crates/*/src src -name '*.rs' -print0 | sort -z | xargs -0 awk '
  FNR == 1 { in_tests = 0 }
  /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
  in_tests || /^[[:space:]]*\/\// || /fn (restrict_to_seeds|generate_blocks_fast)\(/ { next }
  { r += gsub(/restrict_to_seeds\(/, "&"); g += gsub(/generate_blocks_fast\(/, "&") }
  END { printf "restrict_to_seeds %d, generate_blocks_fast %d", r, g }')
echo "ci: planning callers: $planning"
# Size, as a second trend line (no gate): what every simplicity write-up
# since PR 19 quotes as "PR 19's script". Per source directory, the code
# lines (neither blank nor a `//` comment, each file cut at its first
# line that *starts* with `#[cfg(test)]` — a mention inside a doc comment
# does not cut) and, of those, the lines that open a `pub` item.
# The last line sums the directories.
for dir in crates/*/src src shims; do
  find "$dir" -name '*.rs' -print0 | sort -z | xargs -0 awk -v dir="$dir" '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    in_tests || /^[[:space:]]*($|\/\/)/ { next }
    { code++ }
    /^[[:space:]]*pub (fn|struct|enum|trait|const|type|mod|static|use)/ { pubs++ }
    END { printf "ci: size: %s: %d code lines, %d pub items\n", dir, code, pubs }'
done | awk '{ print; code += $(NF - 5); pubs += $(NF - 2) }
  END { printf "ci: size: total: %d code lines, %d pub items\n", code, pubs }'

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

# Miri over the parallel-kernel crate's tests (scoped threads, borrowed
# parts, panics re-raised across threads), when the toolchain has it
# (graceful skip otherwise — the container may lack the miri component).
if cargo +nightly miri --version >/dev/null 2>&1; then
  cargo +nightly miri test -p buffalo-par
else
  echo "ci: skip — cargo +nightly miri unavailable"
fi

# The pipeline toggle must train end-to-end both ways, to the same
# numbers: with the pipeline on, blocks are built on the Prepare thread
# from a scratch that thread keeps between micro-batches, and nothing it
# holds may reach the numerics. Either way the epoch driver's sampler
# thread samples the next batch while this one trains. The epoch table
# (loss, accuracies) and the per-iteration `trail` bit lines (printed
# when checkpoints are on) have to be byte-identical.
ckdir=$(mktemp -d)
off=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --pipeline off \
  --checkpoint-dir "$ckdir/off" --checkpoint-every 2 | grep -E '^\s+[0-9]|^trail')
on=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M --pipeline on \
  --checkpoint-dir "$ckdir/on" --checkpoint-every 2 | grep -E '^\s+[0-9]|^trail')
rm -rf "$ckdir"
if ! grep -q '^trail' <<<"$off"; then
  echo "ci: FAIL — buffalo train --checkpoint-dir printed no trail lines" >&2
  exit 1
fi
if [ "$off" != "$on" ]; then
  echo "ci: FAIL — training diverged between --pipeline off and --pipeline on" >&2
  diff <(printf '%s\n' "$off") <(printf '%s\n' "$on") >&2 || true
  exit 1
fi
echo "ci: --pipeline off and --pipeline on epoch tables and loss trails identical"

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

# A misspelled flag must fail, not plan silently against the defaults.
if out=$(cargo run -q --release --bin buffalo -- schedule cora --budgte 2M --seeds 256 2>&1); then
  echo "ci: FAIL — buffalo schedule accepted the unknown flag --budgte" >&2
  exit 1
fi
if ! grep -q 'unknown flag `--budgte`' <<<"$out"; then
  echo "ci: FAIL — buffalo schedule --budgte did not name the unknown flag" >&2
  printf '%s\n' "$out" >&2
  exit 1
fi
echo "ci: an unknown CLI flag exits non-zero"

# Bad numbers must be refused with exit code 1 and an error message (its
# wording may change), not a panic (exit 101) and not a plan against a
# misread value: an empty device pool, by both commands that build one; a
# zero count (seeds, batch size, train nodes, epochs, kernel threads,
# snapshots kept) or fanout; a train split larger than the dataset; a negative, NaN or
# infinite budget; a NaN headroom or learning rate; a `--simd` value that
# names no backend.
while read -r bad; do
  status=0
  # shellcheck disable=SC2086  # $bad is a fixed word list
  out=$(timeout 60 cargo run -q --release --bin buffalo -- $bad 2>&1 </dev/null) || status=$?
  if [ "$status" -ne 1 ] || ! grep -q '^error: .' <<<"$out"; then
    echo "ci: FAIL — buffalo $bad exited $status, not 1 with an error message" >&2
    printf '%s\n' "$out" >&2
    exit 1
  fi
done <<'EOF_BAD'
train cora --gpus 0
serve cora --gpus 0
schedule cora --seeds 0
train cora --batch-size 0
train cora --threads 0
schedule cora --fanouts 10,0
schedule cora --hidden 0
compare cora --budget -1G
compare cora --budget nanG
schedule cora --budget infG
train cora --simd sse
train cora --simd avx512
train cora --epochs 1 --train-nodes 100000
train cora --epochs 1 --batch-size 100000
train cora --epochs 1 --train-nodes 0
train cora --epochs 1 --headroom nan
train cora --epochs 1 --lr nan
train cora --epochs 0
train cora --epochs 1 --checkpoint-dir /tmp/buffalo-ci-keep0 --checkpoint-keep 0
EOF_BAD
echo "ci: bad numbers and unknown --simd backends exit 1 with a message"

# The CLI's simulation path: `compare` runs one iteration of every
# strategy on cora (Full runs out of memory, Buffalo plans K = 3, the four
# baselines split into K = 8 on an unlimited device). Without its
# wall-clock `time` column (characters 16-28) the table must be the
# golden, byte for byte.
compare=$(cargo run -q --release --bin buffalo -- compare cora --budget 500M | cut -c1-15,29-)
if [ "$compare" != "$(cat tests/golden/compare_cora.txt)" ]; then
  echo "ci: FAIL — buffalo compare cora diverged from tests/golden/compare_cora.txt" >&2
  diff tests/golden/compare_cora.txt <(printf '%s\n' "$compare") >&2 || true
  exit 1
fi
echo "ci: buffalo compare cora matches the golden"

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

# Recovery switched on must not move a fault-free run: the headroom
# multiplier moves only when something fails (a genuine refusal, a
# rollback), never because an Eq. 2 estimate was below the bytes a
# micro-batch allocated (the exact plan check already admitted it). On
# arxiv at 8M the estimate is below some groups' allocations, so a
# multiplier fed by estimates would shrink later plans and move the trail.
args=(train ogbn-arxiv --batch-size 1024 --train-nodes 8192 --epochs 2 --budget 8M --gpus 1)
plain=$(cargo run -q --release --bin buffalo -- "${args[@]}" | grep '^trail')
guarded=$(cargo run -q --release --bin buffalo -- "${args[@]}" --max-retries 3)
if [ "$plain" != "$(grep '^trail' <<<"$guarded")" ]; then
  echo "ci: FAIL — a fault-free arxiv trail moved when recovery was switched on" >&2
  diff <(printf '%s\n' "$plain") <(grep '^trail' <<<"$guarded") >&2 || true
  exit 1
fi
if ! grep -q 'headroom multiplier 1.000$' <<<"$guarded"; then
  echo "ci: FAIL — a fault-free arxiv run moved the headroom multiplier" >&2
  grep '^recovery:' <<<"$guarded" >&2 || true
  exit 1
fi
echo "ci: fault-free arxiv trail identical with recovery on, headroom multiplier 1.000"

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

# The width of the wide bodies in effect, which no option chooses: the
# `axpy_rows` register tiles and `uniform_rows8` streams run 16 lanes wide
# on a host with AVX-512F, 8 with AVX2 and FMA, and the portable code
# (1) elsewhere. A width is not a rounding chain, so the SIMD and arxiv
# serve goldens below pin whichever width this line names.
lanes=$(cargo run -q --release --bin buffalo -- train cora --epochs 1 --budget 12M \
  | sed -nE 's/^kernels: .* lanes=([0-9]+)$/\1/p')
echo "ci: simd width: ${lanes:?}-lane axpy_rows tiles and uniform_rows8 streams"

# SIMD backends. The scalar backend is the default and must stay bitwise
# identical to the historical kernels (the same golden as above, reached
# via the explicit flag) — on a host with AVX2 and FMA its matmul and
# mean aggregation run the scalar chain on 8- or 16-lane registers
# (separate mul and add, no FMA), so this gate also pins those wide
# bodies. The one vector backend, AVX2, gets its own golden gate: its
# `axpy` runs the same wide bodies with FMA lane updates and its `dot`
# reduces eight FMA lanes, so its trail differs from scalar's, and
# IEEE-754 ops (including FMA) are exactly specified, so that trail is
# portable across any host with AVX2 and FMA. A host without them runs
# only the scalar chain (`--simd auto` resolves to it) and skips the gate.
ckdir=$(mktemp -d)
scalar_bits=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --simd scalar --checkpoint-dir "$ckdir/scalar" --checkpoint-every 2 | grep -E '^\s+[0-9]|^trail')
if [ "$scalar_bits" != "$(cat tests/golden/cora_epochs2_bits.txt)" ]; then
  echo "ci: FAIL — --simd scalar diverged from tests/golden/cora_epochs2_bits.txt" >&2
  diff tests/golden/cora_epochs2_bits.txt <(printf '%s\n' "$scalar_bits") >&2 || true
  exit 1
fi
echo "ci: --simd scalar matches the golden bitwise"
if bits=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
  --simd avx2 --checkpoint-dir "$ckdir/avx2" --checkpoint-every 2 2>/dev/null \
  | grep -E '^\s+[0-9]|^trail'); then
  if [ "$bits" != "$(cat tests/golden/cora_epochs2_avx2_bits.txt)" ]; then
    echo "ci: FAIL — --simd avx2 diverged from tests/golden/cora_epochs2_avx2_bits.txt" >&2
    diff tests/golden/cora_epochs2_avx2_bits.txt <(printf '%s\n' "$bits") >&2 || true
    exit 1
  fi
  echo "ci: --simd avx2 matches its golden bitwise"
else
  echo "ci: skip — host CPU does not support --simd avx2"
fi
rm -rf "$ckdir"

# `--simd auto` resolves to the best detected backend (avx2 with AVX2 and
# FMA, scalar on any other host, SSE4.1 or not); whatever it picks
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

# bf16 feature storage is as deterministic as f32: its numerics sit
# within the documented 2^-8 relative bound of the f32 trail, and its
# bits are pinned per backend like the f32 goldens above. At 12M the
# batch splits (K > 1), so every micro-batch's layer-0 mean reads the
# bf16 table. Each backend runs under both stagings against the one golden:
# with `--pipeline on` the gather (layer 0's mean included) runs on the
# Prepare thread. A host without AVX2 and FMA checks the scalar golden
# only.
ckdir=$(mktemp -d)
for backend in scalar avx2; do
  golden=tests/golden/cora_bf16_epochs2_bits.txt
  [ "$backend" = scalar ] || golden=tests/golden/cora_bf16_epochs2_${backend}_bits.txt
  for pipeline in off on; do
    if ! bits=$(cargo run -q --release --bin buffalo -- train cora --epochs 2 --budget 12M \
      --precision bf16 --simd "$backend" --pipeline "$pipeline" \
      --checkpoint-dir "$ckdir/$backend-$pipeline" --checkpoint-every 2 2>/dev/null \
      | grep -E '^\s+[0-9]|^trail'); then
      if [ "$backend" = scalar ]; then
        echo "ci: FAIL — --precision bf16 --simd scalar --pipeline $pipeline did not train" >&2
        exit 1
      fi
      echo "ci: skip — host CPU does not support --simd $backend"
      continue 2
    fi
    if [ "$bits" != "$(cat "$golden")" ]; then
      echo "ci: FAIL — --precision bf16 --simd $backend --pipeline $pipeline diverged from $golden" >&2
      diff "$golden" <(printf '%s\n' "$bits") >&2 || true
      exit 1
    fi
    echo "ci: --precision bf16 --simd $backend --pipeline $pipeline matches its golden bitwise"
  done
done
rm -rf "$ckdir"

# The products shape, pinned by its final snapshot's bytes: 47 classes
# leave a ragged column tail in the output layer's GEMMs, and a change to
# that tail's rounding shows in the parameters long before it shows in
# the printed losses (the trail reads alike for scalar and avx2). The
# snapshot holds the config fingerprint, so each staging has its own
# line. A host without AVX2 and FMA checks the scalar lines only.
ckdir=$(mktemp -d)
snaps=""
for backend in scalar avx2; do
  for pipeline in off on; do
    if ! cargo run -q --release --bin buffalo -- train ogbn-products --batch-size 2048 \
      --train-nodes 4096 --epochs 2 --budget 40M --precision bf16 --eval 0 --fanouts 10,25 \
      --simd "$backend" --pipeline "$pipeline" --checkpoint-dir "$ckdir/$backend-$pipeline" \
      --checkpoint-every 2 >/dev/null 2>&1; then
      if [ "$backend" = scalar ]; then
        echo "ci: FAIL — products --simd scalar --pipeline $pipeline did not train" >&2
        exit 1
      fi
      echo "ci: skip — host CPU does not support --simd $backend"
      continue 2
    fi
    sum=$(md5sum < "$ckdir/$backend-$pipeline/snap-0000000004.ckpt" | cut -d' ' -f1)
    snaps="$snaps$backend $pipeline $sum"$'\n'
  done
done
rm -rf "$ckdir"
want=$(grep -E "^($(printf '%s' "$snaps" | cut -d' ' -f1 | sort -u | paste -sd'|')) " \
  tests/golden/products_bf16_snapshots.txt)
if [ "${snaps%$'\n'}" != "$want" ]; then
  echo "ci: FAIL — products bf16 snapshots diverged from tests/golden/products_bf16_snapshots.txt" >&2
  diff <(printf '%s\n' "$want") <(printf '%s' "$snaps") >&2 || true
  exit 1
fi
echo "ci: products bf16 snapshots match their golden bytes ($(printf '%s' "$snaps" | wc -l) runs)"

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

# Serving pinned on arxiv: a 2 000-request trace (~1 s) on the f32
# feature path, where every gathered row is synthesised, must answer and
# time every request as the golden records — the cora runs above only
# compare with each other.
arxiv=$(cargo run -q --release --bin buffalo -- serve ogbn-arxiv \
  --trace 'poisson:n=2000,rate=1024' | grep -E '^(answers|digest):')
if [ "$arxiv" != "$(cat tests/golden/serve_arxiv_answers.txt)" ]; then
  echo "ci: FAIL — arxiv serve diverged from tests/golden/serve_arxiv_answers.txt" >&2
  diff tests/golden/serve_arxiv_answers.txt <(printf '%s\n' "$arxiv") >&2 || true
  exit 1
fi
echo "ci: arxiv serve answers and digest match the golden"

# Chaos-serve smoke: injected transient faults must not drop a single
# admitted request or move one answer bit — only latencies may change.
# The `answers:` digest folds (index, node, class) per completed request.
# The fault-free run's `--json` report is pinned byte for byte.
serve_json=$(mktemp)
sc=$(cargo run -q --release --bin buffalo -- serve cora --budget 12M \
  --trace 'poisson:n=64,rate=128,seed=7' --quiet-requests 1 --json "$serve_json")
if ! diff tests/golden/serve_cora.json "$serve_json" >&2; then
  echo "ci: FAIL — serve --json diverged from tests/golden/serve_cora.json" >&2
  exit 1
fi
rm -f "$serve_json"
echo "ci: serve --json matches tests/golden/serve_cora.json"
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

# The simulated figures' exact columns, held against the golden (~10 s):
# Figs. 2, 13, 14 and Table III in full (every cell is simulated memory, a
# plan or an estimator error), Fig. 5's simulated GPU-compute column, and
# Fig. 15 without its iteration-time column (it adds real host seconds).
exact=$(target/release/figures --quick fig2 fig13 fig14 tab3
  target/release/figures --quick fig5 | awk '/^===/ { print; next } $1 ~ /^ogbn-/ { print $1, $NF }'
  target/release/figures --quick fig15 | sed -E 's/ +([0-9.]+(s|ms|us)|iteration time)$//')
if [ "$exact" != "$(cat tests/golden/figures_quick_exact.txt)" ]; then
  echo "ci: FAIL — figures' exact columns diverged from tests/golden/figures_quick_exact.txt" >&2
  diff tests/golden/figures_quick_exact.txt <(printf '%s\n' "$exact") >&2 || true
  exit 1
fi
echo "ci: figures' exact columns match tests/golden/figures_quick_exact.txt"

# A reader that stops early (`| head`) must end both binaries quietly —
# status 0, or 141 from SIGPIPE — not with a panic on the closed pipe.
# Each command prints its first line well before its last.
pipe_err=$(mktemp)
for cmd in 'buffalo train cora --epochs 2 --budget 12M' 'figures --quick fig5'; do
  status=0
  # shellcheck disable=SC2086  # $cmd is a fixed word list
  target/release/$cmd 2>"$pipe_err" | head -1 >/dev/null || status=$?
  if { [ "$status" -ne 0 ] && [ "$status" -ne 141 ]; } || grep -q panicked "$pipe_err"; then
    echo "ci: FAIL — $cmd | head -1 exited $status" >&2
    cat "$pipe_err" >&2
    exit 1
  fi
done
rm -f "$pipe_err"
echo "ci: buffalo and figures end quietly when stdout closes early"

# The standing benchmark must still run: its smoke runs every workload
# with reduced sizes, checks each workload's outputs (loss trail, answer
# digest, admission accounting), that simulated and exact metrics repeat
# bit for bit, and that BENCHMARK.json, benchmark/README.md and what a
# run prints name the same workloads and metrics.
benchmark/selftest.sh

# The benchmark's readings, held against committed values (the selftest
# only checks that two runs agree with each other): every simulated row
# of the first `--quick` run and every exact row of the traced run, as
# `workload metric value`. Three kinds of traced row are left out: the
# allocation counts (`*.allocs`, `*.alloc_mb`), which follow the standard
# library's and the code's buffer handling, not what the program
# computes; and `bucketing.imbalance` and `bucketing.est_err_pct`, means
# of f64 values over as many repetitions as the run's seconds allow, so
# their last digit can differ from one run to the next.
readings=$(awk '/\(simulated;/ { print $1, $2, $3 }' benchmark/out/selftest_a.txt
  awk '/\(exact;/ && $2 !~ /(\.allocs|\.alloc_mb|^bucketing\.(imbalance|est_err_pct))$/ { print $1, $2, $3 }' \
    benchmark/out/selftest_traced.txt)
if [ "$readings" != "$(cat tests/golden/benchmark_quick.txt)" ]; then
  echo "ci: FAIL — benchmark readings diverged from tests/golden/benchmark_quick.txt" >&2
  diff tests/golden/benchmark_quick.txt <(printf '%s\n' "$readings") >&2 || true
  exit 1
fi
echo "ci: benchmark simulated and exact readings match tests/golden/benchmark_quick.txt"

echo "ci: all checks passed"
