-- Non-equi and mixed-residual joins: the nested-loop path (no equality
-- key at all) and hash joins whose residual mixes overlap tests with
-- other comparisons, some of them three-valued over NULL columns.
-- Deterministic by construction, so test_vec byte-compares its output
-- between the row and vec engines.  Run with
--   tkr_cli run -f examples/sql/nonequi.sql

CREATE TABLE pay (emp int, dept text, salary int, bonus int, b int, e int)
  PERIOD (b, e);

INSERT INTO pay VALUES
  (1, 'eng',   60000, 500,   0, 40),
  (2, 'eng',   55000, NULL,  5, 25),
  (3, 'sales', 50000, 300,  10, 30),
  (4, 'sales', 52000, NULL,  0, 15),
  (5, 'eng',   70000, 800,  20, 40),
  (6, 'ops',   NULL,  200,   8, 32),
  (7, 'ops',   55000, 300,  12, 36);

-- a snapshot self-join on salary alone: at every time, the pairs where
-- one employee earns less than another (a nested loop under the
-- period overlap)
SEQ VT (SELECT a.emp AS lower, b.emp AS higher
        FROM pay a, pay b WHERE a.salary < b.salary)
ORDER BY vt_begin, lower, higher;

-- how many such pairs there are over time
SEQ VT (SELECT count(*) AS pairs FROM pay a, pay b
        WHERE a.salary < b.salary)
ORDER BY vt_begin;

-- an equi-join on the department with a non-equi residual: colleagues
-- who earn at least as much (the residual sits beside the overlap test)
SEQ VT (SELECT a.emp, b.emp AS peer
        FROM pay a, pay b
        WHERE a.dept = b.dept AND a.emp <> b.emp AND a.salary <= b.salary)
ORDER BY vt_begin, emp, peer;

-- a three-valued residual over NULL columns: a NULL salary or bonus
-- makes a comparison unknown, and OR keeps a pair only when one side is
-- true
SEQ VT (SELECT a.emp, b.emp AS other
        FROM pay a, pay b
        WHERE a.bonus > b.bonus OR a.salary + a.bonus > b.salary)
ORDER BY vt_begin, emp, other;

-- non-snapshot: pairs ranked by bonus, NULL bonuses never qualify
SELECT a.emp, b.emp AS other FROM pay a, pay b
WHERE a.bonus < b.bonus AND a.dept <> b.dept
ORDER BY emp, other;
