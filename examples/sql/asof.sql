-- AS OF timeslices and the temporal interval index.  Run with
--   tkr_cli run -f examples/sql/asof.sql
-- and compare the two access paths (byte-identical results):
--   tkr_cli run -f examples/sql/asof.sql --index off
-- or look at the planner's decision without executing:
--   tkr_cli explain "SEQ VT AS OF 9 (SELECT name FROM works)"

CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
INSERT INTO works VALUES
  ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
  ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);

-- the snapshot at one point in time: the query runs as a plain query
-- over the timeslice of works, whose selection (Abegin <= 9 < Aend)
-- is a stab probe into the endpoint-sorted index
SEQ VT AS OF 9 (SELECT name, skill FROM works);

-- a user filter applies to the stabbed rows; the probe re-applies the
-- full timeslice predicate to its candidates, so the result matches the
-- scan byte for byte
SEQ VT AS OF 9 (SELECT name FROM works WHERE skill = 'SP');

-- timeslice cardinality: a plain count(*) over the stabbed rows
SEQ VT AS OF 9 (SELECT count(*) AS headcount FROM works);

-- aggregation at one point is plain aggregation: no split or coalesce
SEQ VT AS OF 9 (SELECT skill, count(*) AS c FROM works GROUP BY skill);

-- an overlap range over the period columns directly: rows alive at any
-- point of [8, 16) — begin bounded above, end bounded below
SELECT name, b, e FROM works WHERE b < 16 AND e > 8;

-- DML installs a new value of works; the next read builds its index
-- afresh, and the stabs over the changed rows still match the scan
INSERT INTO works VALUES ('Eve', 'NS', 1, 23);
SEQ VT AS OF 9 (SELECT name, skill FROM works);
DELETE FROM works FOR PORTION OF vt FROM 5 TO 12 WHERE skill = 'SP';
SEQ VT AS OF 9 (SELECT name, skill FROM works);
SEQ VT AS OF 4 (SELECT count(*) AS headcount FROM works);
SELECT name, b, e FROM works WHERE b < 16 AND e > 8;
