#!/usr/bin/env bash
# Regenerate every committed results/ file that a binary produces,
# check the twelve figure/table benches byte for byte across the
# engine's run modes, and fail on any failed run, any byte difference
# or any change under results/.
#
# Usage: scripts/results.sh [BUILD_DIR]      (default: build)
#
#  1. Regenerate in place, at the committed (paper) scale: each bench's
#     text and CSV output, fig3_model.csv, ablation.csv,
#     interconnect.csv, and races.csv from the --race line and
#     --race word runs.  The word run exits 1 on any data race, so it
#     is also the suite's race gate.
#  2. Run each bench at --quick four ways: the serial oracle
#     (--jobs 1 --replicas off), the parallel engine
#     (--jobs $(nproc) --replicas on), recording a trace store
#     (--record) and replaying it (--replay).  All four outputs must
#     be identical.
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

# 1. Paper-scale results.
for b in $benches; do
    [ "$b" = interconnect_traffic ] && continue   # committed as CSV only
    check "$B/$b" $J > "results/$b.txt"
done
csv() {  # csv BENCH NAME [FLAGS...]: results/NAME.csv from BENCH --csv
    local b=$1 name=$2
    shift 2
    check "$B/$b" $J --csv "$@" > "results/$name.csv"
}
csv fig1_speedups fig1
csv fig3_working_sets fig3
csv fig3_working_sets fig3_model --sweep model
csv fig4_traffic fig4
csv fig5_ocean_scaling fig5
csv fig6_small_cache fig6
csv fig7_miss_classification fig7
csv ablation_protocol ablation
csv interconnect_traffic interconnect
races="--app all --procs 8 --scale 0.25 $J"
check "$run" $races --race line --csv results/races.csv > /dev/null
check "$run" $races --race word --csv "$tmp/word.csv" > /dev/null
tail -n +2 "$tmp/word.csv" >> results/races.csv
echo "results.sh: results/ regenerated (${SECONDS} s)"

# 2. Serial, parallel, record and replay agree byte for byte.
for b in $benches; do
    q="$B/$b --quick"
    check $q --jobs 1 --replicas off > "$tmp/serial"
    check $q $J --replicas on > "$tmp/parallel"
    check $q $J --record "$tmp/store-$b" > "$tmp/record"
    check $q $J --replay "$tmp/store-$b" > "$tmp/replay"
    for way in parallel record replay; do
        cmp -s "$tmp/serial" "$tmp/$way" || {
            echo "results.sh: $b --quick: $way output differs" \
                 "from the serial oracle" >&2
            status=1
        }
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
