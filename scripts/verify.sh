#!/usr/bin/env bash
# Tier-1 verification gate: everything CI runs, runnable locally.
# Usage: scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> REPRO.json parses"
python3 -c 'import json; json.load(open("REPRO.json"))'

echo "==> perfbench smoke (every workload and the per-layer run on tiny traces)"
# perfbench-layers calls library APIs (save_snapshot, ShardedSketch::{shards,
# route, merged_estimates}); building and running it here makes a change to
# one of them fail the gate instead of silently breaking `--trace 1`.
# perfbench/Cargo.lock is a benchmark file. A manifest change under crates/
# that adds or drops a dependency makes this build rewrite it, and neither
# `cargo metadata --locked` nor `cargo build --locked` refuses the stale
# lock, so only its bytes show the change.
lock_before=target/perfbench-Cargo.lock.before
mkdir -p target
cp perfbench/Cargo.lock "$lock_before"
CARGO_TARGET_DIR=target python3 perfbench/run.py --smoke
cmp -s "$lock_before" perfbench/Cargo.lock || {
  echo "perfbench/Cargo.lock changed during the perfbench build:"
  echo "a manifest change rewrote a benchmark file"; exit 1;
}

echo "==> cargo test -q"
cargo test -q --workspace

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (broken or private intra-doc links fail)"
# `--lib` leaves out the CLI's `freesketch` binary, whose docs would collide
# with the `freesketch` library crate's; the vendored stubs are not checked.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --lib -p hashkit -p bitpack -p cardsketch \
  -p graphstream -p freesketch -p metrics -p freesketch-cli -p analyzer -p freesketch-bench

echo "==> freesketch-analyzer (ordering-audit, unsafe-gate, lock-discipline, atomic-protocol, lock-order, hot-path-hygiene)"
# Hard gate: any finding (including stale allowlist entries) fails the build.
./target/release/freesketch-analyzer
# CLI contract: pass listing, single-pass selection, unknown pass = usage error.
./target/release/freesketch-analyzer --list-passes | grep -q '^hot-path-hygiene$' || {
  echo "--list-passes missing hot-path-hygiene"; exit 1;
}
./target/release/freesketch-analyzer --pass lock-order > /dev/null
if ./target/release/freesketch-analyzer --pass no-such-pass > /dev/null 2>&1; then
  echo "unknown --pass should be a usage error"; exit 1
fi

echo "==> cli smoke"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
printf 'alice a\nalice b\nalice b\nbob a\n' > "$tmp/edges.tsv"
# Drive the binary the release build just produced; `cargo run` without
# --release would recompile the whole workspace in the dev profile.
./target/release/freesketch --help > /dev/null
# The ingest smokes run under a time limit: one-thread ingest hands chunks
# between a stage thread and the applying thread, and a pipeline that
# hangs must fail the gate (exit 124) instead of stalling it.
ingest() { timeout 120 ./target/release/freesketch "$@"; }
ingest estimate "$tmp/edges.tsv" --top 2 > /dev/null
# Sharded parallel ingest drives the same report.
ingest estimate "$tmp/edges.tsv" --threads 2 > /dev/null
# Out-of-range values are usage errors (exit 2), raised before the trace
# is read.
expect_usage_error() {
  local code=0
  ./target/release/freesketch "$@" > /dev/null 2>&1 || code=$?
  [ "$code" -eq 2 ] || { echo "freesketch $* exited $code, not 2"; exit 1; }
}
expect_usage_error spreaders "$tmp/edges.tsv" --delta 5
expect_usage_error estimate "$tmp/edges.tsv" --threads 100000
expect_usage_error synth orkut --scale 0
# Batch output equals per-edge output, so there is no --batch to choose.
expect_usage_error estimate "$tmp/edges.tsv" --batch 0
# The format is read from the input's first bytes; there is no --format.
expect_usage_error estimate "$tmp/edges.tsv" --format tsv
# A budget above 2^32 bits is refused before the array is allocated.
expect_usage_error estimate "$tmp/edges.tsv" --memory 99999999999999
# A positional argument or a flag the subcommand does not take is
# refused, not dropped.
expect_usage_error estimate "$tmp/edges.tsv" 10
expect_usage_error synth orkut --checkpoint "$tmp/never.fsnp"
expect_usage_error estimate "$tmp/edges.tsv" --scale 3

echo "==> convert -> estimate roundtrip smoke (TSV and fedge must be identical)"
./target/release/freesketch convert "$tmp/edges.tsv" "$tmp/edges.fedge" > /dev/null
ingest estimate "$tmp/edges.tsv"   --top 3 > "$tmp/est-tsv.txt"
ingest estimate "$tmp/edges.fedge" --top 3 > "$tmp/est-fedge.txt"
diff -u "$tmp/est-tsv.txt" "$tmp/est-fedge.txt" || {
  echo "fedge estimate differs from TSV estimate"; exit 1;
}

echo "==> streaming-estimate smoke (multi-chunk file, bounded reader buffer)"
./target/release/freesketch synth livejournal --scale 4000 --out "$tmp/synth.tsv" > /dev/null
./target/release/freesketch convert "$tmp/synth.tsv" "$tmp/synth.fedge" > /dev/null
# --chunk 1024 forces many reader chunks on both formats; the reports must
# still be identical (chunking never changes what was ingested).
ingest estimate "$tmp/synth.tsv"   --chunk 1024 > "$tmp/synth-tsv.txt"
ingest estimate "$tmp/synth.fedge" --chunk 1024 > "$tmp/synth-fedge.txt"
diff -u "$tmp/synth-tsv.txt" "$tmp/synth-fedge.txt" || {
  echo "multi-chunk fedge estimate differs from TSV estimate"; exit 1;
}
grep -q "edges processed" "$tmp/synth-tsv.txt" || {
  echo "streaming estimate produced no report"; exit 1;
}

echo "==> pipe smoke (each input is read once, so a pipe equals the file)"
for f in synth.tsv synth.fedge; do
  ingest estimate "$tmp/$f" > "$tmp/file-$f.txt"
  ingest estimate <(cat "$tmp/$f") > "$tmp/pipe-$f.txt"
  diff -u "$tmp/file-$f.txt" "$tmp/pipe-$f.txt" || {
    echo "estimate through a pipe differs from the file for $f"; exit 1;
  }
done
./target/release/freesketch convert <(cat "$tmp/synth.tsv") "$tmp/pipe.fedge" > /dev/null
cmp "$tmp/synth.fedge" "$tmp/pipe.fedge" || {
  echo "convert through a pipe differs from the file"; exit 1;
}
# track reads its input twice, which a pipe cannot serve: a typed error
# (exit 1), not an empty table.
code=0
ingest track <(cat "$tmp/synth.tsv") --user 1 > /dev/null 2> "$tmp/track-pipe-err.txt" || code=$?
[ "$code" -eq 1 ] || { echo "track on a pipe exited $code, not 1"; exit 1; }
grep -q "is not a regular file" "$tmp/track-pipe-err.txt" || {
  echo "track on a pipe: error not typed:"; cat "$tmp/track-pipe-err.txt"; exit 1;
}
# Every growth is credited at its own q, so where chunks (and the blocks
# inside them) cut the stream moves nothing: the checkpoint files of two
# chunk sizes must be byte-identical.
for method in freebs freers; do
  ingest checkpoint "$tmp/synth.fedge" "$tmp/cut-$method-default.fsnp" --method "$method" > /dev/null
  ingest checkpoint "$tmp/synth.fedge" "$tmp/cut-$method-1000.fsnp" --method "$method" \
    --chunk 1000 > /dev/null
  cmp "$tmp/cut-$method-default.fsnp" "$tmp/cut-$method-1000.fsnp" || {
    echo "$method checkpoint depends on --chunk"; exit 1;
  }
done
# A record cut short in the last chunk is read by the stage thread, after
# the earlier chunks were applied: it must still fail as a typed error
# (exit 1), not hang or panic.
head -c -7 "$tmp/synth.fedge" > "$tmp/synth-cut.fedge"
code=0
ingest estimate "$tmp/synth-cut.fedge" --chunk 1024 > /dev/null 2> "$tmp/cut-err.txt" || code=$?
[ "$code" -eq 1 ] || { echo "truncated fedge exited $code, not 1"; cat "$tmp/cut-err.txt"; exit 1; }
grep -q "truncated fedge record" "$tmp/cut-err.txt" || {
  echo "truncated fedge error not typed:"; cat "$tmp/cut-err.txt"; exit 1;
}

echo "==> checkpoint / crash / restore / resume smoke (~1M-edge trace)"
./target/release/freesketch synth livejournal --out "$tmp/big.tsv" > /dev/null
./target/release/freesketch convert "$tmp/big.tsv" "$tmp/big.fedge" > /dev/null
edges=$(grep -vc '^#' "$tmp/big.tsv")
every=$(( edges / 5 + 1 ))
# Uninterrupted reference run.
ingest estimate "$tmp/big.fedge" --top 5 > "$tmp/ref.txt"
# Inject a crash after the second checkpoint write: the run must fail with
# the typed fault-injection error, leaving the last good checkpoint behind.
if FREESKETCH_CRASH_AFTER_CHECKPOINTS=2 ingest estimate "$tmp/big.fedge" \
     --top 5 --checkpoint "$tmp/state.fsnp" --checkpoint-every "$every" \
     > /dev/null 2> "$tmp/crash-err.txt"; then
  echo "injected crash did not fail the run"; exit 1
fi
grep -q "simulated crash" "$tmp/crash-err.txt" || {
  echo "crash error not typed:"; cat "$tmp/crash-err.txt"; exit 1;
}
test -s "$tmp/state.fsnp" || { echo "no checkpoint left behind after crash"; exit 1; }
# Restart the same command: it must restore the checkpoint, resume the
# trace at the recorded offset, and match the uninterrupted run exactly.
ingest estimate "$tmp/big.fedge" --top 5 \
  --checkpoint "$tmp/state.fsnp" --checkpoint-every "$every" > "$tmp/resumed.txt"
grep -q "restored checkpoint" "$tmp/resumed.txt" || {
  echo "resumed run did not restore the checkpoint:"; cat "$tmp/resumed.txt"; exit 1;
}
tail -n +2 "$tmp/resumed.txt" | diff -u "$tmp/ref.txt" - || {
  echo "resumed estimate differs from uninterrupted run"; exit 1;
}
# A version-3 file (FreeRS records carried a growth count) and a version-4
# file (a sharded FreeRS kept whole registers per word) are refused as
# typed errors: copies of the fresh checkpoint with header bytes 4-5, the
# version, patched to 3 and to 4.
for v in 3 4; do
  cp "$tmp/state.fsnp" "$tmp/v$v.fsnp"
  printf "\\00$v\\000" | dd of="$tmp/v$v.fsnp" bs=1 seek=4 conv=notrunc status=none
  code=0
  ./target/release/freesketch restore "$tmp/v$v.fsnp" > /dev/null 2> "$tmp/v$v-err.txt" || code=$?
  [ "$code" -eq 1 ] || { echo "restore of a version-$v snapshot exited $code, not 1"; exit 1; }
  grep -q "unsupported snapshot version $v" "$tmp/v$v-err.txt" || {
    echo "version-$v snapshot not refused as typed:"; cat "$tmp/v$v-err.txt"; exit 1;
  }
done

echo "==> snapshot merge smoke (split halves vs whole trace)"
half=$(( (edges + 1) / 2 ))
# No `grep | head` here: under pipefail, head closing the pipe early turns
# grep's SIGPIPE into a spurious gate failure. Split from a plain file.
grep -v '^#' "$tmp/big.tsv" > "$tmp/body.tsv"
head -n "$half" "$tmp/body.tsv" > "$tmp/half1.tsv"
tail -n +"$(( half + 1 ))" "$tmp/body.tsv" > "$tmp/half2.tsv"
ingest checkpoint "$tmp/half1.tsv" "$tmp/h1.fsnp" > /dev/null
ingest checkpoint "$tmp/half2.tsv" "$tmp/h2.fsnp" > /dev/null
./target/release/freesketch merge "$tmp/h1.fsnp" "$tmp/h2.fsnp" "$tmp/union.fsnp" > /dev/null
./target/release/freesketch restore "$tmp/union.fsnp" --top 5 > "$tmp/union.txt"
grep -q "$edges edges in freebs snapshot" "$tmp/union.txt" || {
  echo "merged snapshot lost edges:"; cat "$tmp/union.txt"; exit 1;
}

echo "==> failed publish smoke (the output path is a directory)"
# Every output is staged at `<out>.part` and renamed over `<out>`; when the
# rename fails, the command exits 1 and removes the staging file.
mkdir "$tmp/dest"
expect_publish_failure() {
  local code=0
  ./target/release/freesketch "$@" > /dev/null 2>&1 || code=$?
  [ "$code" -eq 1 ] || { echo "freesketch $* exited $code, not 1"; exit 1; }
  [ ! -e "$tmp/dest.part" ] || { echo "freesketch $* left dest.part behind"; exit 1; }
}
expect_publish_failure merge "$tmp/h1.fsnp" "$tmp/h2.fsnp" "$tmp/dest"
expect_publish_failure synth livejournal --scale 4000 --out "$tmp/dest"

# Prints the NAME=VALUE token of the STATS reply $1 whose NAME is $2.
stats_token() {
  local token
  for token in $1; do
    case "$token" in "$2="*) echo "$token"; return 0;; esac
  done
  return 1
}

# Prints the port that the serve daemon with pid $2 reports in its log $1;
# fails (and stops the daemon) if it reports none within 10 s.
serve_port() {
  local port=""
  for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127\.0\.0\.1:\([0-9][0-9]*\).*/\1/p' "$1")
    [ -n "$port" ] && { echo "$port"; return 0; }
    sleep 0.1
  done
  echo "serve daemon never reported its port:" >&2; cat "$1" >&2
  kill "$2" 2> /dev/null || true
  return 1
}

echo "==> serve daemon smoke (socket protocol, port conflict, shutdown drain)"
./target/release/freesketch serve "$tmp/edges.tsv" --port 0 --threads 2 \
  --checkpoint "$tmp/serve.fsnp" > "$tmp/serve-out.txt" 2>&1 &
serve_pid=$!
port=$(serve_port "$tmp/serve-out.txt" "$serve_pid") || exit 1
# A second daemon on the taken port must fail fast with a nonzero exit.
if ./target/release/freesketch serve "$tmp/edges.tsv" --port "$port" > /dev/null 2>&1; then
  echo "second daemon on a taken port should exit nonzero"; exit 1
fi
# Four queries, one malformed line, and a shutdown over bash /dev/tcp.
exec 3<> "/dev/tcp/127.0.0.1/$port"
printf 'STATS\nESTIMATE alice\nTOPK 2\nCONFIDENCE alice 95\nBOGUS\nSHUTDOWN\n' >&3
read -r reply <&3
case "$reply" in "OK edges="*) ;; *) echo "bad STATS reply: $reply"; exit 1;; esac
read -r reply <&3
case "$reply" in "OK "*) ;; *) echo "bad ESTIMATE reply: $reply"; exit 1;; esac
read -r reply <&3
case "$reply" in "OK 2 #"*) ;; *) echo "bad TOPK reply: $reply"; exit 1;; esac
# CONFIDENCE: `OK <est> <lower> <upper> z=1.9600`, lower <= est <= upper.
read -r reply <&3
num='([0-9]+\.[0-9]+)'
[[ $reply =~ ^OK\ $num\ $num\ $num\ z=1\.9600$ ]] || {
  echo "bad CONFIDENCE reply: $reply"; exit 1;
}
awk -v e="${BASH_REMATCH[1]}" -v l="${BASH_REMATCH[2]}" -v u="${BASH_REMATCH[3]}" \
  'BEGIN { exit !(l + 0 <= e + 0 && e + 0 <= u + 0) }' || {
  echo "CONFIDENCE interval does not bracket its estimate: $reply"; exit 1;
}
read -r reply <&3
case "$reply" in "ERR unknown-command"*) ;; *) echo "bad error reply: $reply"; exit 1;; esac
read -r reply <&3
case "$reply" in "OK draining"*) ;; *) echo "bad SHUTDOWN reply: $reply"; exit 1;; esac
exec 3<&- 3>&-
wait "$serve_pid" || {
  echo "serve daemon exited nonzero:"; cat "$tmp/serve-out.txt"; exit 1;
}
grep -q "drained:" "$tmp/serve-out.txt" || {
  echo "serve daemon never printed its drain report:"; cat "$tmp/serve-out.txt"; exit 1;
}
# The drain wrote a final checkpoint that restores cleanly.
test -s "$tmp/serve.fsnp" || { echo "serve left no final checkpoint"; exit 1; }
./target/release/freesketch restore "$tmp/serve.fsnp" > /dev/null

# Runs a fresh one-writer daemon with `--method $1` on the ~1M-edge trace
# until STATS reports every edge, shuts it down, and leaves its final
# checkpoint at $2; prints the drained STATS reply. Diagnostics go to
# stderr, and the function fails if any step does.
serve_drained() {
  local log="$2.log" pid port reply=""
  ./target/release/freesketch serve "$tmp/big.fedge" --port 0 --threads 1 \
    --method "$1" --checkpoint "$2" > "$log" 2>&1 &
  pid=$!
  port=$(serve_port "$log" "$pid") || return 1
  exec 3<> "/dev/tcp/127.0.0.1/$port"
  for _ in $(seq 1 600); do
    printf 'STATS\n' >&3
    read -r reply <&3
    case "$reply" in "OK edges=$edges "*) break;; esac
    sleep 0.1
  done
  case "$reply" in "OK edges=$edges "*) ;; *)
    echo "one-writer $1 daemon never reported all $edges edges: $reply" >&2
    kill "$pid" 2> /dev/null || true; return 1;;
  esac
  echo "$reply"
  printf 'SHUTDOWN\n' >&3
  read -r reply <&3
  case "$reply" in "OK draining"*) ;; *)
    echo "bad SHUTDOWN reply: $reply" >&2; return 1;;
  esac
  exec 3<&- 3>&-
  wait "$pid" || {
    echo "one-writer $1 serve daemon exited nonzero:" >&2; cat "$log" >&2; return 1;
  }
}

echo "==> one-writer serve smoke (~1M-edge trace, many chunks, final checkpoint)"
drained=$(serve_drained freebs "$tmp/serve1.fsnp") || exit 1
# Kept for the determinism check below: the restart rewrites serve1.fsnp.
cp "$tmp/serve1.fsnp" "$tmp/serve1-freebs-a.fsnp"
./target/release/freesketch restore "$tmp/serve1.fsnp" > "$tmp/serve1-restore.txt"
grep -q "$edges edges in sharded-freebs snapshot" "$tmp/serve1-restore.txt" || {
  echo "one-writer serve checkpoint lost edges:"; cat "$tmp/serve1-restore.txt"; exit 1;
}
# Restarted on the same trace and checkpoint, the daemon restores it,
# skips every edge, and reports the drained daemon's edge count and total:
# the snapshot records the running total instead of re-summing counters.
./target/release/freesketch serve "$tmp/big.fedge" --port 0 --threads 1 \
  --checkpoint "$tmp/serve1.fsnp" > "$tmp/serve1-again-out.txt" 2>&1 &
serve_pid=$!
port=$(serve_port "$tmp/serve1-again-out.txt" "$serve_pid") || exit 1
grep -q "restored checkpoint" "$tmp/serve1-again-out.txt" || {
  echo "restarted daemon did not restore:"; cat "$tmp/serve1-again-out.txt"
  kill "$serve_pid" 2> /dev/null || true; exit 1;
}
exec 3<> "/dev/tcp/127.0.0.1/$port"
printf 'STATS\nSHUTDOWN\n' >&3
read -r restarted <&3
read -r reply <&3
case "$reply" in "OK draining"*) ;; *) echo "bad SHUTDOWN reply: $reply"; exit 1;; esac
exec 3<&- 3>&-
wait "$serve_pid" || {
  echo "restarted serve daemon exited nonzero:"; cat "$tmp/serve1-again-out.txt"; exit 1;
}
for name in edges total; do
  want=$(stats_token "$drained" "$name")
  got=$(stats_token "$restarted" "$name") || got="no $name token"
  [ "$got" = "$want" ] || {
    echo "restarted daemon reports $got, the drained one $want: $restarted"; exit 1;
  }
done

echo "==> one writer is deterministic (two fresh daemons write the same final image)"
# A shard applies one writer's calls in stream order and credits each
# growth in stream order, so two fresh one-writer daemons on the same
# trace must leave byte-identical images.
serve_drained freebs "$tmp/serve1-freebs-b.fsnp" > /dev/null || exit 1
serve_drained freers "$tmp/serve1-freers-a.fsnp" > /dev/null || exit 1
serve_drained freers "$tmp/serve1-freers-b.fsnp" > /dev/null || exit 1
for method in freebs freers; do
  cmp "$tmp/serve1-$method-a.fsnp" "$tmp/serve1-$method-b.fsnp" || {
    echo "two one-writer $method daemons wrote different final images"; exit 1;
  }
done

echo "==> one-writer serve equals the scalar checkpoint (ARRY, CNTR, CONF engine record)"
# A one-shard sketch hashes with the scalar seed and stores the scalar
# words, so the drained daemon's image holds the bytes of `checkpoint` on
# the same trace from ARRY to the end, and the same CONF engine record.
# Offsets: an 8-byte header, a 32-byte META section, a 16-byte CONF
# section header, then a CONF payload of 32 (FreeBS) or 40 (FreeRS) bytes
# in the scalar file and 16 more (router seed and P) in the daemon's.
for spec in freebs:32 freers:40; do
  method=${spec%:*} record=${spec#*:}
  ingest checkpoint "$tmp/big.fedge" "$tmp/scalar-$method.fsnp" --method "$method" > /dev/null
  scalar_arry=$(( 56 + record )) served_arry=$(( 72 + record ))
  cmp -i "$scalar_arry:$served_arry" "$tmp/scalar-$method.fsnp" "$tmp/serve1-$method-a.fsnp" || {
    echo "one-writer $method daemon's ARRY and CNTR differ from checkpoint's"; exit 1;
  }
  cmp -n "$record" -i 56:72 "$tmp/scalar-$method.fsnp" "$tmp/serve1-$method-a.fsnp" || {
    echo "one-writer $method daemon's CONF engine record differs from checkpoint's"; exit 1;
  }
done

echo "==> no staging file left behind by any smoke"
leftover=$(find "$tmp" -name '*.part')
[ -z "$leftover" ] || { echo "staging files left behind: $leftover"; exit 1; }

echo "verify: OK"
