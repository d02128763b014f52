#!/bin/sh
# Regenerates results/observability.txt: a traced final-stage dissenter
# run (regular:10000,8, 20 dissenters, auto engine) showing the
# engine-switch timeline, the discordance trajectory, and the metrics
# snapshot. Also asserts the trace is byte-identical across two
# invocations — the reproducibility guarantee DESIGN.md §7 documents.
set -eu
cd "$(dirname "$0")/.."

OUT=results/observability.txt
TMP="${TMPDIR:-/tmp}/div_obs_$$"
mkdir -p results "$TMP"
trap 'rm -rf "$TMP"' EXIT

RUN="go run ./cmd/divsim -graph regular:10000,8 -dissenters 20 -seed 1 -engine auto"
$RUN -trace "$TMP/a.jsonl" -metrics >"$TMP/stdout.txt"
$RUN -trace "$TMP/b.jsonl" >/dev/null
cmp "$TMP/a.jsonl" "$TMP/b.jsonl" || {
    echo "trace_artifact: traces differ between identical invocations" >&2
    exit 1
}
# The committed artifact must not embed this script's temp paths.
sed "s|$TMP/a.jsonl|run.jsonl|" "$TMP/stdout.txt" >"$TMP/stdout.clean" &&
    mv "$TMP/stdout.clean" "$TMP/stdout.txt"

# A uniform 5-opinion start exercises the full auto timeline: blocked
# stepping until the windowed active-fraction trigger, sparse until a
# discordance rebound, blocked again under cooldown, and sparse again to
# the finish.
go run ./cmd/divsim -graph regular:4000,8 -k 5 -seed 3 -engine auto \
    -trace "$TMP/k5.jsonl" >/dev/null

{
    echo "# Observability artifact: traced final-stage dissenter run"
    echo "#"
    echo "# Command: divsim -graph regular:10000,8 -dissenters 20 -seed 1 -engine auto -trace run.jsonl -metrics"
    echo "# Regenerate: make trace-artifact (or scripts/trace_artifact.sh)"
    echo "# The JSONL trace is byte-identical across invocations (verified by this script)."
    echo
    echo "## Run output and metrics snapshot"
    echo
    cat "$TMP/stdout.txt"
    echo
    echo "## Engine-switch timeline (\"ev\":\"switch\" lines of the trace)"
    echo
    grep '"ev":"switch"' "$TMP/a.jsonl"
    echo
    echo "## Full auto timeline on a uniform 5-opinion start"
    echo "## (divsim -graph regular:4000,8 -k 5 -seed 3): window hand-off,"
    echo "## rebound with cooldown, second hand-off"
    echo
    grep '"ev":"switch"' "$TMP/k5.jsonl"
    echo
    echo "## Discordance trajectory (first and last 10 samples)"
    echo
    grep '"ev":"discordance"' "$TMP/a.jsonl" >"$TMP/disc.jsonl"
    head -10 "$TMP/disc.jsonl"
    echo "..."
    tail -10 "$TMP/disc.jsonl"
    echo
    echo "## Trace head (first 5 events)"
    echo
    head -5 "$TMP/a.jsonl"
    echo
    echo "## Trace tail (final batch, stage, done)"
    echo
    tail -4 "$TMP/a.jsonl"
} >"$OUT"

echo "wrote $OUT ($(grep -c '' "$TMP/a.jsonl") trace events)"
