#!/usr/bin/env bash
# Regenerate every committed results/ file that a binary produces,
# check the twelve figure/table benches byte for byte across the
# engine's run modes, and fail on any failed run, any byte difference
# or any change under results/.
#
# Usage: scripts/results.sh [BUILD_DIR]      (default: build)
#
#  1. Regenerate in place, at the committed (paper) scale, in 15 runs:
#     each bench once, writing its text report and, through --csv, its
#     CSV; fig3_working_sets --sweep model for fig3_model.csv; and
#     races.csv from the --race line and --race word runs.  The word
#     run exits 1 on any data race, so it is also the suite's race
#     gate.
#  2. Run each bench at --quick four ways: the serial oracle
#     (--jobs 1 --replicas off), the parallel engine
#     (--jobs $(nproc) --replicas on), recording a trace store
#     (--record) and replaying it (--replay).  All four text reports
#     must be identical, and so must all four CSVs.
#  3. Fail if results/ now differs from the committed copy.
#
# Not regenerated: races.txt (the line census of races.csv, laid out
# by hand), plot_figures.gp (hand-written) and fig3_model_error.csv
# (the bound table `scripts/check_model_error.py check` reads;
# regenerating it here would let that gate follow a regression).
set -u -o pipefail
cd "$(dirname "$0")/.."
build=${1:-build}
B=$build/bench
run=$build/src/splash2run
J="--jobs $(nproc)"
[ -x "$run" ] || { echo "results.sh: no $run; build first" >&2; exit 2; }
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
status=0

# check CMD...: run CMD; on failure, say so and carry on.
check() {
    "$@" || { echo "results.sh: exit $? from: $*" >&2; status=1; }
}

benches="fig1_speedups fig2_synchronization fig3_working_sets
         fig4_traffic fig5_ocean_scaling fig6_small_cache
         fig7_miss_classification table1_characterization
         table2_working_sets table3_comm_comp ablation_protocol
         interconnect_traffic"

# csvname BENCH: BENCH's committed CSV is results/NAME.csv, NAME its
# first word; Figure 2 and the tables write none.
csvname() { case $1 in fig2_* | table*) ;; *) echo "${1%%_*}" ;; esac; }

# 1. Paper-scale results.
for b in $benches; do
    out=results/$b.txt
    [ "$b" = interconnect_traffic ] && out=/dev/null  # committed as CSV only
    c=$(csvname "$b")
    check "$B/$b" $J ${c:+--csv "results/$c.csv"} > "$out"
done
check "$B/fig3_working_sets" $J --sweep model \
    --csv results/fig3_model.csv > /dev/null
races="--app all --procs 8 --scale 0.25 $J"
check "$run" $races --race line --csv results/races.csv > /dev/null
check "$run" $races --race word --csv "$tmp/word.csv" > /dev/null
tail -n +2 "$tmp/word.csv" >> results/races.csv
echo "results.sh: results/ regenerated (${SECONDS} s)"

# 2. Serial, parallel, record and replay agree byte for byte, in the
#    text report and in the CSV.
quick() {  # quick WAY FLAGS...: $b --quick, text to $tmp/WAY, CSV beside
    local way=$1
    shift
    check "$B/$b" --quick "$@" ${c:+--csv "$tmp/$way.csv"} > "$tmp/$way"
}
for b in $benches; do
    c=$(csvname "$b")
    quick serial --jobs 1 --replicas off
    quick parallel $J --replicas on
    quick record $J --record "$tmp/store-$b"
    quick replay $J --replay "$tmp/store-$b"
    for out in parallel record replay; do
        for ext in "" ${c:+.csv}; do
            cmp -s "$tmp/serial$ext" "$tmp/$out$ext" || {
                echo "results.sh: $b --quick: $out$ext differs" \
                     "from the serial oracle" >&2
                status=1
            }
        done
    done
done
echo "results.sh: quick runs compared (${SECONDS} s in all)"

# 3. The committed copy is what the code prints.
if [ -n "$(git status --short -- results/)" ]; then
    git status --short -- results/ >&2
    echo "results.sh: results/ differs from the committed copy" >&2
    status=1
fi
exit $status
