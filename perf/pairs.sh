#!/usr/bin/env bash
# pairs.sh measures the working tree against a parent revision in
# alternating pairs of fresh benchmark runs, and keeps every run.
#
#   bash perf/pairs.sh <parent-rev> <workloads> <n> [seed]
#   make pairs PARENT=<rev> W=<workloads> N=<n> [SEED=<s>]
#
# <workloads> is one name of BENCHMARK.json or several, space- or
# comma-separated. The parent is checked out in a git worktree under a
# temporary directory, or in a clone there where a worktree cannot be
# added, removed on exit. The change is recorded as HEAD, marked +dirty
# when a tracked file other than perf/trajectory.jsonl differs from it.
# Pair i runs `bash bench/run.sh
# -workload W -seed S` once in each tree, each in a fresh process, the
# parent first in odd pairs and the change first in even ones. The script
# reads only what run.sh prints: the `sim_digest` line and the JSON object
# on its last line.
#
# Every run appends one JSON record to perf/trajectory.jsonl: the measured
# commit, the parent, side, workload, seed, pair, metrics, sim_digest,
# CPU count, Go version and load average. Then, per workload and
# end-to-end metric: both medians and quartiles, the change's shift, and
# k/n, the pairs in which the change was better. It prints FAIL, and exits
# 1, when sim_us or sim_digest differs between any two runs, when a run is
# not correct, or when the change's median is worse than the parent's by
# more than the metric's bound in BENCHMARK.json.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
	echo "usage: bash perf/pairs.sh <parent-rev> <workloads> <n> [seed]" >&2
	exit 2
fi
root="$(git rev-parse --show-toplevel)"
cd "$root"
parent="$(git rev-parse --verify --quiet "$1^{commit}")" || { echo "pairs: no commit $1" >&2; exit 2; }
read -r -a workloads <<<"${2//,/ }"
n="$3"
seed="${4:-1}"
case "$n" in "" | *[!0-9]* | 0) echo "pairs: <n> is a count of pairs" >&2; exit 2 ;; esac
case "$seed" in "" | *[!0-9]*) echo "pairs: [seed] is a number" >&2; exit 2 ;; esac
known="$(jq -r '.workloads[].name' BENCHMARK.json)"
for w in "${workloads[@]}"; do
	grep -qx -- "$w" <<<"$known" || { echo "pairs: unknown workload $w; known: $(echo $known)" >&2; exit 2; }
done

change="$(git rev-parse HEAD)"
[ -z "$(git status --porcelain --untracked-files=no -- . ':!perf/trajectory.jsonl')" ] || change="$change+dirty"
scratch="$(mktemp -d)"
trap 'git worktree remove --force "$scratch/parent" >/dev/null 2>&1 || true; rm -rf "$scratch"' EXIT
if ! git worktree add --quiet --detach "$scratch/parent" "$parent" 2>"$scratch/stderr"; then
	echo "pairs: no worktree ($(head -n 1 "$scratch/stderr")); cloning the parent instead" >&2
	rm -rf "$scratch/parent"
	git clone --quiet --shared --no-checkout "$root" "$scratch/parent"
	git -C "$scratch/parent" checkout --quiet --detach "$parent"
fi
traj="$root/perf/trajectory.jsonl"
ncpu="$(getconf _NPROCESSORS_ONLN)"
gover="$(go env GOVERSION)"

# run <side> <tree> <commit> <workload> <pair>: one fresh benchmark run,
# appended to the trajectory and to this invocation's record file.
run() {
	local side="$1" tree="$2" commit="$3" w="$4" pair="$5" out digest load
	out="$(cd "$tree" && bash bench/run.sh -workload "$w" -seed "$seed" 2>"$scratch/stderr")" || {
		echo "pairs: $side run of $w failed:" >&2
		cat "$scratch/stderr" >&2
		exit 1
	}
	digest="$(awk '$1 == "sim_digest" { print $2 }' <<<"$out")"
	load="$(cut -d' ' -f1-3 /proc/loadavg 2>/dev/null || true)"
	tail -n 1 <<<"$out" | jq -c --arg commit "$commit" --arg parent "$parent" --arg side "$side" \
		--arg w "$w" --argjson seed "$seed" --argjson pair "$pair" --arg digest "$digest" \
		--argjson ncpu "$ncpu" --arg go "$gover" --arg load "$load" --arg at "$(date -u +%FT%TZ)" \
		'{at: $at, commit: $commit, parent: $parent, side: $side, workload: $w, seed: $seed, pair: $pair,
		  correct: .correct, metrics: (.metrics | map_values(.value)), sim_digest: $digest,
		  num_cpu: $ncpu, go: $go, loadavg: ($load | split(" ") | map(tonumber? // null))}' |
		tee -a "$traj" >>"$scratch/runs.jsonl"
	printf '  pair %d %-6s %s wall_s %s\n' "$pair" "$side" "$w" \
		"$(tail -n 1 "$scratch/runs.jsonl" | jq -r '.metrics.wall_s')"
}

for w in "${workloads[@]}"; do
	echo "$w: $n pairs, seed $seed, parent ${parent:0:12}, change ${change:0:12}"
	for ((i = 1; i <= n; i++)); do
		if ((i % 2)); then
			run parent "$scratch/parent" "$parent" "$w" "$i"
			run change "$root" "$change" "$w" "$i"
		else
			run change "$root" "$change" "$w" "$i"
			run parent "$scratch/parent" "$parent" "$w" "$i"
		fi
	done
done

# The summary: one block per workload, one row per end-to-end metric.
jq -rs --slurpfile bench BENCHMARK.json '
	def q($p): sort as $s | (($s | length - 1) * $p) as $x | ($x | floor) as $i
		| if $i + 1 < ($s | length) then $s[$i] + ($s[$i + 1] - $s[$i]) * ($x - $i) else $s[$i] end;
	def g: (. * 1e6 | round) / 1e6;
	$bench[0].end_to_end as $defs
	| group_by(.workload)[] as $runs
	| ($runs[0].workload) as $w
	| [$runs[] | select(.side == "parent")] as $p
	| [$runs[] | select(.side == "change")] as $c
	| ([$runs[] | "\(.metrics.sim_us) \(.sim_digest)"] | unique) as $sims
	| ([$runs[] | select(.correct != true)] | length) as $wrong
	| "\($w): \($p | length) pairs, seed \($runs[0].seed), medians [q1, q3]",
	  ($defs[] as $d
	   | [$p[] | .metrics[$d.name]] as $pv | [$c[] | .metrics[$d.name]] as $cv
	   | ($pv | q(0.5)) as $pm | ($cv | q(0.5)) as $cm
	   | (if $pm == 0 then 0 else ($cm - $pm) / $pm end) as $shift
	   | (if $d.better == "lower" then $shift else -$shift end) as $worse
	   | ([range(0; [$pv, $cv] | map(length) | min) as $i
	       | select(if $d.better == "lower" then $cv[$i] < $pv[$i] else $cv[$i] > $pv[$i] end)] | length) as $k
	   | ((($cm - $pm) | fabs) > ($pv | q(0.75) - q(0.25))) as $resolved
	   | "  \($d.name): parent \($pm | g) [\($pv | q(0.25) | g), \($pv | q(0.75) | g)]"
	     + "  change \($cm | g) [\($cv | q(0.25) | g), \($cv | q(0.75) | g)]"
	     + "  \(if $shift >= 0 then "+" else "" end)\($shift * 1000 | round / 10) %, better in \($k)/\($pv | length)"
	     + (if $resolved then "" else ", within the parent'"'"'s quartiles" end)
	     + (if $d.name != "sim_us" and $worse > $d.bound then "  FAIL: worse than its bound of \($d.bound * 100) %" else "" end)),
	  (if ($sims | length) > 1 then "  FAIL: sim_us/sim_digest differ between runs: \($sims | join(" | "))"
	   else "  sim_us and sim_digest identical in every run" end),
	  (if $wrong > 0 then "  FAIL: \($wrong) runs not correct" else empty end)
' "$scratch/runs.jsonl" | tee "$scratch/summary.txt"
! grep -q FAIL "$scratch/summary.txt"
