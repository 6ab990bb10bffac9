#!/usr/bin/env bash
# Golden test for the CLI's error hygiene: every failure class prints one
# line to stderr and exits with its documented code (2 parse, 3 check,
# 4 runtime, 5 I/O, 124 usage).  Run by the dune rule in bin/dune, which
# diffs the output against cli_errors.expected.
set -u
CLI="$1"
case "$CLI" in */*) ;; *) CLI="./$CLI" ;; esac

run() {
  "$CLI" "$@" 2>&1
  echo "exit=$?"
}

echo "# ok: query runs, exit 0"
run run -e "CREATE TABLE t (x int); INSERT INTO t VALUES (1); SELECT x FROM t"

echo "# parse error -> 2"
run run -e "SELEC 1"

echo "# static check failure -> 3"
run lint -e "SELECT x FROM nothing"

echo "# runtime/semantic error -> 4"
run run -e "SELECT x FROM nothing"

echo "# I/O error -> 5"
run run -f no-such-file.sql

echo "# usage error -> 124"
run run

echo "# one engine ships: --engine is not an option -> 124 (stderr dropped: cmdliner's wording varies)"
"$CLI" run --engine row -e "SELECT 1" >/dev/null 2>&1
echo "exit=$?"

echo "# one JSON switch: lint --json is not an option (--format json is) -> 124 (stderr dropped)"
"$CLI" lint -e "SELECT 1" --json >/dev/null 2>&1
echo "exit=$?"

echo "# a script's output precedes its error line; NULL period -> 4"
run run -e "CREATE TABLE t (x int, b int, e int) PERIOD (b, e); INSERT INTO t VALUES (1, NULL, 3);"

echo "# NULL period from UPDATE -> 4, and lint flags it -> 3"
run run -e "CREATE TABLE t (x int, b int, e int) PERIOD (b, e); INSERT INTO t VALUES (1, 2, 3); UPDATE t SET b = NULL WHERE x = 1;"
run lint -e "CREATE TABLE t (x int, b int, e int) PERIOD (b, e); INSERT INTO t VALUES (1, 2, 3); UPDATE t SET b = NULL WHERE x = 1;"

echo "# integer literal past max_int -> lex error 2, under run and lint"
run run -e "CREATE TABLE t (x int); SELECT 99999999999999999999 AS x FROM t"
run lint -e "CREATE TABLE t (x int); SELECT 99999999999999999999 AS x FROM t"

echo "# a statement that does not lex fails alone: the others are checked -> 2"
run lint -e "CREATE TABLE t (x int); SELECT x FROM t; SELECT 'oops"

echo "# DELETE checks under lint match run -> 4 and 3"
run run -e "CREATE TABLE p (x int); DELETE FROM p FOR PORTION OF vt FROM 1 TO 5 WHERE x = 1;"
run lint -e "CREATE TABLE p (x int); DELETE FROM p FOR PORTION OF vt FROM 1 TO 5 WHERE x = 1; DELETE FROM p WHERE nosuch = 1;"
