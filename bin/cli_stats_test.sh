#!/usr/bin/env bash
# Golden test for the parse phase of `run`: a script is parsed once, on
# the middleware's parse counter, so `run --stats` reports a non-zero
# parse time; under `run --explain` a statement of a longer script says
# that it was parsed with the script, and the only statement of a script
# reports its own parse time.  Run by the dune rule in bin/dune, which
# diffs the output against cli_stats.expected.
set -u
CLI="$1"
case "$CLI" in */*) ;; *) CLI="./$CLI" ;; esac

SCRIPT="CREATE TABLE t (x int, y int); INSERT INTO t VALUES (1, 2), (3, 4);
SELECT x, y, x + y AS s FROM t WHERE x > 0 AND y < 10 ORDER BY x"

# the parse field of a phase line: "parse <ms>" when positive
parse_field() {
  grep -E "^(stats: )?parse " | sed -E 's/^stats: //; s/ \|.*//' |
    awk '{ if ($2 ~ /^[0-9.]+$/) print ($2 > 0 ? "parse <ms>" : "parse 0"); else print }'
}

echo "# run --stats: the script's parse is counted"
"$CLI" run --stats -e "$SCRIPT" | parse_field

echo "# run --explain: a statement parsed with its script"
"$CLI" run --explain -e "$SCRIPT" | parse_field

echo "# run --explain: the only statement of a script"
"$CLI" run --workload employee --explain -e "SEQ VT (SELECT e.emp_no, e.name
  FROM employees e WHERE e.emp_no > 10 AND e.emp_no < 90)" | parse_field
