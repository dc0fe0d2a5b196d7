#!/usr/bin/env bash
# replay_smoke.sh — end-to-end smoke test of the trace archive loop.
#
# Builds the CLI with the race detector, runs a small campaign twice —
# once plain, once with -archive — and requires byte-identical CSV
# results, so the archived sim→v2-encode→graph→features path provably
# matches the in-memory one. Then replays the archive with
# `anacin replay` twice and requires byte-identical reports (order
# hashes, distinct-structure counts, distance statistics are all
# re-derived from the stored v2 traces alone), and runs
# `anacin inspect` over every archived trace.
#
# This is the CI gate for the trace-format-v2 PR's acceptance
# criterion; the in-process twins are TestCmdCampaignArchiveReplay in
# cmd/anacin and TestExecuteStreamMatchesExecute in internal/core. Run
# it locally with:  bash scripts/replay_smoke.sh
#
# Requires: go. Work happens in a temp directory that is cleaned up.
set -euo pipefail

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

fail() {
  echo "replay_smoke: FAIL: $*" >&2
  exit 1
}

echo "replay_smoke: building anacin (-race)"
go build -race -o "$work/anacin" ./cmd/anacin

campaign_flags=(-patterns message_race,amg2013 -procs 8 -nd 0,100 -runs 4 -quiet)

echo "replay_smoke: running campaign without archive"
"$work/anacin" campaign "${campaign_flags[@]}" -csv "$work/live.csv" >/dev/null

echo "replay_smoke: running campaign with -archive"
"$work/anacin" campaign "${campaign_flags[@]}" -csv "$work/archived.csv" \
  -archive "$work/archive" >/dev/null

cmp "$work/live.csv" "$work/archived.csv" \
  || fail "archived campaign CSV differs from the live one"

cells=$(ls "$work/archive" | wc -l)
[ "$cells" -eq 4 ] || fail "archive holds $cells cell dirs, want 4"
traces=$(find "$work/archive" -name 'run-*.anctr' | wc -l)
[ "$traces" -eq 16 ] || fail "archive holds $traces traces, want 16"

echo "replay_smoke: replaying the archive (twice, must be stable)"
"$work/anacin" replay "$work/archive" >"$work/replay1.txt"
"$work/anacin" replay "$work/archive" >"$work/replay2.txt"
cmp "$work/replay1.txt" "$work/replay2.txt" \
  || fail "two replays of the same archive disagree"

grep -q 'replay: 16 trace(s)' "$work/replay1.txt" \
  || fail "replay did not cover all 16 traces"
grep -q 'order_hash=' "$work/replay1.txt" || fail "replay reports no order hashes"
grep -q 'distances: n=' "$work/replay1.txt" || fail "replay reports no distances"

echo "replay_smoke: inspecting every archived trace"
find "$work/archive" -name 'run-*.anctr' | while read -r f; do
  # Capture, then grep: under pipefail, grep -q quitting on its first
  # match would kill inspect with SIGPIPE mid-report.
  report=$("$work/anacin" inspect "$f") || fail "inspect failed on $f"
  grep -q 'binary trace v2 (ANCNTR02)' <<<"$report" \
    || fail "inspect rejected $f"
done

echo "replay_smoke: PASS (archive replays to the live campaign's results)"
