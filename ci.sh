#!/usr/bin/env bash
# CI gate for the RowPress reproduction. Mirrors what a future GitHub Actions
# workflow would run; keep this the single source of truth for "green".
#
#   ./ci.sh          # full gate
#   ./ci.sh quick    # skip the bench compile (fastest signal)
set -euo pipefail
cd "$(dirname "$0")"

step() { printf '\n==> %s\n' "$*"; }

step "cargo build --release (tier-1)"
cargo build --release

# Superset of the tier-1 `cargo test -q`: the workspace run includes the root
# facade package (integration tests + doctest) plus every subsystem crate.
step "cargo test --workspace -q"
cargo test --workspace -q

step "cargo build --examples"
cargo build --examples

# The campaign engine is the execution path of every study driver; name its
# suites in the CI log so an engine regression is pinpointed. One filtered
# run covers the whole module tree (engine::plan / schedule / cache / sink /
# worker) plus the sharded-campaign helper; one more runs the facade-level
# shard + persistent-cache + threaded-sink integration tests.
step "cargo test -p rowpress-core --lib (engine tree + sharded campaign)"
cargo test -p rowpress-core --lib -q -- engine campaign

step "cargo test --test engine (facade shard/cache/sink integration)"
cargo test -q --test engine

step "cargo test -p rowpress-cli (orchestrator end-to-end: spawn/kill/resume/merge)"
cargo test -p rowpress-cli -q

# The transport fault matrix, by name: scripted drops, duplicates, reorders,
# torn frames, stalls on both sides of the threshold, connect-window overruns
# and kill-at-byte partitions must each end in a byte-identical merge or the
# documented abort. A separate filtered run so a transport regression is
# pinpointed in the CI log.
step "cargo test -p rowpress-cli (fault-injection transport matrix)"
cargo test -p rowpress-cli -q --test orchestrator -- \
  silence_ torn_frame_ duplicate_record_ reordered_ kill_at_byte_ \
  respawn_budget_ stall_clock_ connect_window_

# No orchestrator, property, kernel-layer, or campaign-core test may be
# quietly parked: an #[ignore] in these suites is an invariant CI stopped
# proving. The CLI sources count too (driver/child/transport unit tests).
step "no #[ignore]d tests in the orchestrator/property/kernel/core suites"
if grep -rn '#\[ignore' crates/cli/tests crates/cli/src crates/core/src crates/dram/src tests/; then
  echo "ignored tests found — these invariants must run in CI" >&2
  exit 1
fi

# The orchestrator CLI, end to end on the quick ACmin grid: 2 real shard
# processes, merged stream verified byte-identical to a single-process run
# (the same bytes tests/golden.rs pins). Plus the --help and canonical-spec
# round-trip smoke checks (spec -> JSON -> spec must be a fixed point).
step "rowpress-campaign end-to-end (2 shards, --verify) + spec round-trip"
cargo build --release -p rowpress-cli
CAMPAIGN=target/release/rowpress-campaign
CAMPAIGN_OUT=target/campaign-ci
rm -rf "$CAMPAIGN_OUT"
"$CAMPAIGN" --help > /dev/null
"$CAMPAIGN" plan examples/quick_acmin.toml
"$CAMPAIGN" run examples/quick_acmin.toml --shards 2 --out-dir "$CAMPAIGN_OUT" --verify
# Same campaign over the TCP agent transport: 2 shards stream records over
# loopback to the parent's collector; the merge must still be byte-identical.
rm -rf "$CAMPAIGN_OUT-tcp"
"$CAMPAIGN" run examples/quick_acmin.toml --shards 2 --out-dir "$CAMPAIGN_OUT-tcp" \
  --transport tcp://127.0.0.1:0 --verify
# The mixed grid over TCP: its 50-90 KB ACmax lines keep the parent's
# collector ingesting and persisting after a shard has exited, so a watch
# loop that took that clean exit for a finished (or dead) shard fails here.
# No respawn is allowed: the run must converge on the first incarnations.
rm -rf "$CAMPAIGN_OUT-mixed-tcp"
"$CAMPAIGN" run examples/mixed_grid.toml --shards 2 --out-dir "$CAMPAIGN_OUT-mixed-tcp" \
  --transport tcp://127.0.0.1:0 --max-respawns 0 --verify
"$CAMPAIGN" spec examples/quick_acmin.toml > "$CAMPAIGN_OUT/spec-a.json"
"$CAMPAIGN" spec "$CAMPAIGN_OUT/spec-a.json" > "$CAMPAIGN_OUT/spec-b.json"
diff "$CAMPAIGN_OUT/spec-a.json" "$CAMPAIGN_OUT/spec-b.json"

# Integrity end-to-end on the campaign just run: a clean directory passes
# fsck; a flipped interior cache byte fails it; a --salvage re-run
# quarantines that line, re-verifies byte-identical, and fsck goes green
# again (reporting the quarantined line).
step "rowpress-campaign fsck + salvage (flip a cache byte, recover, re-verify)"
"$CAMPAIGN" fsck "$CAMPAIGN_OUT"
CACHE="$CAMPAIGN_OUT/shard-0000.cache.jsonl"
OFFSET=$(( $(head -n 1 "$CACHE" | wc -c) + 10 ))
ORIG_BYTE=$(dd if="$CACHE" bs=1 skip="$OFFSET" count=1 2>/dev/null | od -An -tu1 | tr -d ' ')
printf "$(printf '\\%03o' $(( ORIG_BYTE ^ 1 )))" \
  | dd of="$CACHE" bs=1 seek="$OFFSET" count=1 conv=notrunc 2>/dev/null
if "$CAMPAIGN" fsck "$CAMPAIGN_OUT"; then
  echo "fsck must fail on a corrupt cache line" >&2
  exit 1
fi
"$CAMPAIGN" run examples/quick_acmin.toml --shards 2 --out-dir "$CAMPAIGN_OUT" \
  --salvage --verify
test -f "$CACHE.quarantine"
FSCK_OUT=$("$CAMPAIGN" fsck "$CAMPAIGN_OUT")
grep -q "1 quarantined" <<< "$FSCK_OUT"

step "cargo fmt --all -- --check"
cargo fmt --all -- --check

step "cargo clippy --workspace --all-targets -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "quick" ]]; then
  step "cargo bench --no-run --workspace (every fig/table bench target compiles)"
  cargo bench --no-run --workspace

  step "cargo bench -p rowpress-bench --bench perf_engine --no-run"
  cargo bench -p rowpress-bench --bench perf_engine --no-run

  step "cargo bench -p rowpress-bench --bench perf_shard --no-run"
  cargo bench -p rowpress-bench --bench perf_shard --no-run

  step "cargo bench -p rowpress-bench --bench perf_persistent_cache --no-run"
  cargo bench -p rowpress-bench --bench perf_persistent_cache --no-run

  # Runs (not just compiles) the trial-kernel perf gate on the quick-scale
  # ACmin grid: asserts outcomes identical to the scalar reference path, a
  # >= 5x median cold-trial speedup over that reference AND a >= 2.5x
  # speedup over the PR 4 kernel median (the pre-word-block floor), and
  # refreshes the machine-readable perf trajectory in
  # BENCH_trial_kernel.json — which must carry the word-skip and
  # profile-store hit rates that explain the numbers.
  step "cargo bench -p rowpress-bench --bench perf_trial_kernel (runs, writes BENCH_trial_kernel.json)"
  cargo bench -p rowpress-bench --bench perf_trial_kernel
  for field in word_skip_rate profile_store_hit_rate speedup_vs_pr4_kernel; do
    if ! grep -q "\"$field\"" BENCH_trial_kernel.json; then
      echo "BENCH_trial_kernel.json is missing \"$field\"" >&2
      exit 1
    fi
  done

  # Runs the campaign-layer perf gate: parallel cache preload on a respawn-
  # churn corpus (the >= 4x speedup assert arms itself only on >= 4 cores;
  # the measured ratio is always reported), learned-vs-analytic dispatch on
  # a simulated mixed grid (the learned makespan must not be worse), and
  # compaction of the duplicated corpus (> 4x shrink, zero trials lost), and
  # sequential preload of >= 64 KB ACmax lines (>= 20 MB/s: a record read
  # that is quadratic in line length fails it). Refreshes BENCH_campaign.json.
  step "cargo bench -p rowpress-bench --bench perf_campaign (runs, writes BENCH_campaign.json)"
  cargo bench -p rowpress-bench --bench perf_campaign
  for field in preload_lines_per_s preload_speedup_parallel \
    makespan_ratio_learned_vs_analytic compaction_ratio preload_long_line_mb_per_s; do
    if ! grep -q "\"$field\"" BENCH_campaign.json; then
      echo "BENCH_campaign.json is missing \"$field\"" >&2
      exit 1
    fi
  done
fi

step "cargo doc --no-deps with warnings denied (missing docs are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

step "all green"
