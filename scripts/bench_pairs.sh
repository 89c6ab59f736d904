#!/usr/bin/env bash
# Runs one benchmark workload in alternated pairs on two source trees and
# summarizes the end-to-end metrics.
#
#   scripts/bench_pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [extra args]
#
# Each side runs the `command` of its own tree's BENCHMARK.json from that
# tree, with `--workload WORKLOAD --seed N --trace 0` plus the extra args
# (for example `--seconds 5` or `--scale smoke`). Before the first pair,
# each tree's binary is built once, by that command with `build` in place
# of `run`, and copied out; the runs time only the copies, so an edit to
# either tree during a series cannot rebuild one side mid-series. Pair i
# uses seed
# FIRST_SEED + i - 1 (FIRST_SEED defaults to 1) on both sides. The side
# that runs first flips every pair: the parent leads odd pairs, the change
# even ones.
#
# Prints one row per pair (each side's end-to-end metrics and failed
# count), then per metric each side's median and quartiles, the number
# of pairs the change won (ties count for neither side; "better" comes
# from BENCHMARK.json), the median over pairs of how much worse the
# change was than the parent of its own pair (relative to that parent;
# negative is better), and whether the metric regressed. A metric
# regresses when that median exceeds the metric's `bound` in
# BENCHMARK.json and the change lost at least half of the pairs. The two
# runs of a pair are adjacent in time, so comparing within pairs keeps a
# host that drifts between fast and slow periods from deciding the
# verdict; the two sides' medians alone do not.
#
# Exit codes: 0 when every run passed its checks and nothing regressed;
# 1 when any run reports a failed check or an incorrect result (or the
# script cannot run); 2 on a usage error; 3 when every run passed but an
# end-to-end metric regressed.
set -euo pipefail

if [ $# -lt 4 ]; then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD PAIRS [extra args]" >&2
  exit 2
fi
parent=$(cd "$1" && pwd)
change=$(cd "$2" && pwd)
workload=$3
pairs=$4
shift 4
first_seed=${FIRST_SEED:-1}

# Each tree builds into its own target directory; a shared one would
# rebuild on every switch of side.
unset CARGO_TARGET_DIR

spec="$change/BENCHMARK.json"
scratch=$(mktemp -d)
results="$scratch/results"
trap 'rm -rf "$scratch"' EXIT

# build_side SIDE DIR: builds DIR's benchmark with its BENCHMARK.json
# command, `build` in place of `run` and without the program's arguments,
# and copies the binary to $scratch/SIDE. The command's arguments after
# `--` are kept in $scratch/SIDE.args for every run.
build_side() {
  local side=$1 dir=$2 arg exe
  local -a command cargo=() args=()
  mapfile -t command < <(jq -r '.command[]' "$dir/BENCHMARK.json")
  for ((i = 0; i < ${#command[@]}; i++)); do
    arg=${command[i]}
    if [ "$arg" = "--" ]; then
      args=("${command[@]:i+1}")
      break
    fi
    if [ "$arg" = run ] && [ ${#cargo[@]} -eq 1 ]; then
      arg=build
    fi
    cargo+=("$arg")
  done
  exe=$(cd "$dir" && "${cargo[@]}" --message-format=json \
    | jq -r 'select(.reason == "compiler-artifact" and .executable != null) | .executable' \
    | tail -n 1) || true
  if [ -z "$exe" ] || [ ! -x "$exe" ]; then
    echo "cannot build the $side benchmark in $dir" >&2
    exit 1
  fi
  cp "$exe" "$scratch/$side"
  printf '%s\n' "${args[@]}" > "$scratch/$side.args"
}

build_side parent "$parent"
build_side change "$change"

# run_side SIDE DIR SEED [extra args]: one run of the copied binary from
# DIR; appends {side, seed, status, result} to $results.
run_side() {
  local side=$1 dir=$2 seed=$3 out last status=0
  shift 3
  local -a args
  mapfile -t args < <(grep -v '^$' "$scratch/$side.args" || true)
  out=$(cd "$dir" && "$scratch/$side" "${args[@]}" --workload "$workload" --seed "$seed" \
    --trace 0 "$@") || status=$?
  # The last stdout line is the run's result object.
  last=$(printf '%s\n' "$out" | tail -n 1)
  if ! jq -e 'type == "object"' <<< "$last" > /dev/null 2>&1; then
    echo "$side run (seed $seed) printed no result" >&2
    exit 1
  fi
  jq -c --arg side "$side" --argjson seed "$seed" --argjson status "$status" \
    '{side: $side, seed: $seed, status: $status, result: .}' <<< "$last" >> "$results"
}

for ((i = 1; i <= pairs; i++)); do
  seed=$((first_seed + i - 1))
  if ((i % 2 == 1)); then
    run_side parent "$parent" "$seed" "$@"
    run_side change "$change" "$seed" "$@"
  else
    run_side change "$change" "$seed" "$@"
    run_side parent "$parent" "$seed" "$@"
  fi
done

summary=$(jq -r -s --slurpfile spec "$spec" --arg workload "$workload" '
  # Linear-interpolated quantile of a numeric array.
  def quantile($p):
    sort as $s | ((($s | length) - 1) * $p) as $x | ($x | floor) as $i
    | if $i + 1 < ($s | length) then $s[$i] + ($s[$i + 1] - $s[$i]) * ($x - $i) else $s[$i] end;
  def fmt: if . == null then "-"
           elif fabs >= 1000 then . * 10 | round / 10 | tostring
           elif fabs >= 1 then . * 1000 | round / 1000 | tostring
           else . * 1e6 | round / 1e6 | tostring end;
  ($spec[0].end_to_end) as $metrics
  | (map(select(.side == "parent")) | sort_by(.seed)) as $p
  | (map(select(.side == "change")) | sort_by(.seed)) as $c
  | ([range(0; $p | length)] | map({seed: $p[.].seed, parent: $p[.].result, change: $c[.].result})) as $pairs
  # Per metric: the values of both sides, the wins and losses of the
  # change, the median of its per-pair relative shortfall, and the
  # regression verdict (that median beyond the bound, and at least half
  # of the pairs lost).
  | ($metrics | map(.name as $m | .better as $better
      | def worse($x; $y): if $better == "lower" then $x > $y else $x < $y end;
      ($pairs | map(.parent.metrics[$m].value)) as $pv
      | ($pairs | map(.change.metrics[$m].value)) as $cv
      | ($pairs | map(select(worse(.parent.metrics[$m].value; .change.metrics[$m].value))) | length) as $wins
      | ($pairs | map(select(worse(.change.metrics[$m].value; .parent.metrics[$m].value))) | length) as $losses
      | ($pairs | map(.parent.metrics[$m].value as $was | .change.metrics[$m].value as $now
          | select($was != null and $now != null and $was != 0)
          | if $better == "lower" then ($now - $was) / $was else ($was - $now) / $was end)
        | if length == 0 then null else quantile(0.5) end) as $worse_by
      | {name: $m, better: $better, pv: $pv, cv: $cv, wins: $wins, worse_by: $worse_by,
         regressed: ($worse_by != null and $worse_by > (.bound // 0)
           and $losses * 2 >= ($pairs | length))})) as $verdicts
  | "workload \($workload), \($pairs | length) pair(s)",
    (["pair", "seed", "side"] + ($metrics | map(.name)) + ["failed"] | join("\t")),
    ($pairs | to_entries[] | .key as $k | .value as $pair
      | ("parent", "change") as $side
      | [($k + 1 | tostring), ($pair.seed | tostring), $side]
        + ($metrics | map($pair[$side].metrics[.name].value | fmt))
        + [($pair[$side].failed | fmt)]
      | join("\t")),
    "",
    (["metric", "better", "parent_q1", "parent_median", "parent_q3",
      "change_q1", "change_median", "change_q3", "change_wins", "worse_by", "regressed"]
     | join("\t")),
    ($verdicts[]
      | [.name, .better,
         (.pv | quantile(0.25) | fmt), (.pv | quantile(0.5) | fmt), (.pv | quantile(0.75) | fmt),
         (.cv | quantile(0.25) | fmt), (.cv | quantile(0.5) | fmt), (.cv | quantile(0.75) | fmt),
         "\(.wins)/\($pairs | length)", (.worse_by | fmt), (if .regressed then "yes" else "no" end)]
      | join("\t")),
    "",
    "failed: parent \($pairs | map(.parent.failed) | add), change \($pairs | map(.change.failed) | add)",
    "regressed: \($verdicts | map(select(.regressed) | .name) | if length == 0 then "none" else join(", ") end)"
' "$results") || exit 1
printf '%s\n' "$summary"

# Any failed check, incorrect result or non-zero exit fails the script.
jq -e -s 'all(.[]; .status == 0 and .result.correct == true and .result.failed == 0)' \
  "$results" > /dev/null
if [ "${summary##*$'\n'}" != "regressed: none" ]; then
  exit 3
fi
