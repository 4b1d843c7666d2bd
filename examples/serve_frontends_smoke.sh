#!/usr/bin/env bash
# Smoke test for the two serving front ends: the same query lines piped
# through `elitenet_serve <g> --no-widx`, `elitenet_serve <g> --no-widx
# --shards=2` and `elitenet_cli serve <g>` must produce identical stdout,
# and malformed numeric flags must exit with status 2.
#
#   serve_frontends_smoke.sh <path/to/elitenet_serve> <path/to/elitenet_cli>
set -euo pipefail

serve_bin=$1
cli_bin=$2
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# Mutual pair, cycle, a tail to a sink, and an isolated node 9.
cat > "$work/g.txt" <<'EOF'
0 1
1 0
1 2
2 0
2 3
3 4
4 5
5 6
6 4
7 0
7 8
8 1
0 9
EOF

# Every verb, a QoS-tagged line, an out-of-range node, one malformed
# line and one "@v" version pin (rejected by static backends).
cat > "$work/queries.txt" <<'EOF'
ego 0
ego 9
ego 42
topk 3
topk 50 !batch
dist 0 4
dist 4 0
dist 7 6 5000
neighbors 1 out
neighbors 0 in 2
fingerprint
bogus 1
ego 2 @3
quit
EOF

"$serve_bin" "$work/g.txt" --no-widx < "$work/queries.txt" \
  > "$work/engine.out" 2> "$work/engine.err"
"$serve_bin" "$work/g.txt" --no-widx --shards=2 < "$work/queries.txt" \
  > "$work/router.out" 2> "$work/router.err"
"$cli_bin" serve "$work/g.txt" < "$work/queries.txt" \
  > "$work/cli.out" 2> "$work/cli.err"

expected=$(grep -cv '^quit$' "$work/queries.txt")
lines=$(wc -l < "$work/engine.out")
if [ "$lines" -ne "$expected" ]; then
  echo "FAIL: engine answered $lines lines, expected $expected" >&2
  cat "$work/engine.out" "$work/engine.err" >&2
  exit 1
fi
for other in router cli; do
  if ! cmp -s "$work/engine.out" "$work/$other.out"; then
    echo "FAIL: $other stdout differs from the unsharded engine's" >&2
    diff "$work/engine.out" "$work/$other.out" >&2 || true
    exit 1
  fi
done

for flag in --shards=abc --cache=lots --shards=0 --shards=256 --threads=-1 \
            --sample=4294967296; do
  status=0
  "$serve_bin" "$work/g.txt" --no-widx "$flag" < /dev/null \
    > /dev/null 2>&1 || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: elitenet_serve $flag exited $status, expected 2" >&2
    exit 1
  fi
done
for flag in --shards=abc --hubs=x 0; do
  status=0
  "$cli_bin" serve "$work/g.txt" "$flag" < /dev/null > /dev/null 2>&1 \
    || status=$?
  if [ "$status" -ne 2 ]; then
    echo "FAIL: elitenet_cli serve $flag exited $status, expected 2" >&2
    exit 1
  fi
done

echo "serve_frontends_smoke: $expected lines identical across 3 front ends"
