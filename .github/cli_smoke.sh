#!/usr/bin/env bash
# The CLI as a process: the python -m entry point and its exit codes; a
# converge run without --budget keeps the default budget of 100; a
# --linear run under a reuse strategy reports linear mode and still
# factors once per row with no sweep; settings from an @FILE; a finished
# run's report records no abort.
#
#   bash .github/cli_smoke.sh
#
# runs from any directory and writes under $RUNNER_TEMP, or under a fresh
# temporary directory when that is unset.
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
out="${RUNNER_TEMP:-$(mktemp -d)}/cli"

for strategy in N upK03K100g; do
  python -m icatop.cli run --problem inverter --mesh 12x6 \
    --strategy "$strategy" --budget 3 --out "$out/$strategy"
done
python -m icatop.cli compare "$out/N/report.json" \
  "$out/upK03K100g/report.json"
python - "$out/N/report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
if report["aborted"] is not False or report["abort"] is not None:
    sys.exit(f"finished run: aborted {report['aborted']}, "
             f"abort {report['abort']}, expected false and null")
EOF
# a linear-mode run finishes and says so in its report; under a reuse
# strategy every row, rows 7 and 8 off its refactor schedule too, is
# still one exact step: one factorization per row and no sweep
python -m icatop.cli run --problem inverter --mesh 12x6 \
  --strategy upK03K100g --budget 8 --linear --out "$out/linear"
python - "$out/linear/report.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
if report["linear"] is not True:
    sys.exit(f"--linear run: linear {report['linear']}, expected true")
if report["factorizations"] != report["outer_iterations"] \
        or report["ica_iterations"] != 0:
    sys.exit(f"--linear run: {report['factorizations']} factorizations "
             f"in {report['outer_iterations']} rows and "
             f"{report['ica_iterations']} sweeps, expected one per row "
             f"and none")
EOF
python -m icatop.cli run --problem inverter --mesh 12x6 \
  --converge 1e-3 --out "$out/converge"
python - "$out/converge/report.json" <<'EOF'
import json, sys
budget = json.load(open(sys.argv[1]))["budget"]
if budget != 100:
    sys.exit(f"converge run: budget {budget}, expected 100")
EOF
# an @FILE of flags, overridden by a later flag
printf '%s\n' '# desk inverter' '--problem inverter --mesh 12x6' \
  '--budget 5' > "$out/run.args"
python -m icatop.cli run @"$out/run.args" --budget 2 \
  --out "$out/file"
python - "$out/file/report.json" <<'EOF'
import json, sys
budget = json.load(open(sys.argv[1]))["budget"]
if budget != 2:
    sys.exit(f"@FILE run: budget {budget}, expected 2")
EOF
# a bad line in it exits 2 before anything is written
printf '%s\n' '--problem inverter' '--strategy upK2' \
  > "$out/bad.args"
status=0
python -m icatop.cli run @"$out/bad.args" --out "$out/bad" \
  || status=$?
test "$status" -eq 2
test ! -e "$out/bad"
# a report without a key the table reads exits 2 and names it
python - "$out/N/report.json" "$out/partial.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
del report["rejected_steps"]
json.dump(report, open(sys.argv[2], "w"))
EOF
status=0
python -m icatop.cli compare "$out/N/report.json" \
  "$out/partial.json" 2> "$out/partial.err" || status=$?
test "$status" -eq 2
grep -q "not a run report: no rejected_steps" "$out/partial.err"
# so does a report without a timing row, naming the row
python - "$out/N/report.json" "$out/untimed.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
del report["timings"]["Other"]
json.dump(report, open(sys.argv[2], "w"))
EOF
status=0
python -m icatop.cli compare "$out/N/report.json" \
  "$out/untimed.json" 2> "$out/untimed.err" || status=$?
test "$status" -eq 2
grep -q "not a run report: timings has no Other" "$out/untimed.err"
echo "cli smoke: ok"
