-- CRUD workload: the full statement surface (CREATE / INSERT / UPDATE /
-- DELETE, including the SQL:2011 FOR PORTION OF forms) interleaved with
-- snapshot queries.  Deterministic by construction, so test_vec
-- byte-compares its output between the row and vec engines.  Run with
--   tkr_cli run -f examples/sql/crud.sql

CREATE TABLE staff (emp_no int, dept text, salary int, b int, e int)
  PERIOD (b, e);

INSERT INTO staff VALUES
  (1, 'eng',   60000,  0, 40),
  (2, 'eng',   55000,  5, 25),
  (3, 'sales', 50000, 10, 30),
  (4, 'sales', 52000,  0, 15),
  (5, 'eng',   70000, 20, 40);

-- head-count and payroll per department over time
SEQ VT (SELECT dept, count(*) AS heads, sum(salary) AS payroll
        FROM staff GROUP BY dept)
ORDER BY vt_begin;

-- a raise for employee 2 over the middle of their period only: the row
-- splits at the portion boundaries
UPDATE staff FOR PORTION OF PERIOD FROM 10 TO 20
  SET salary = 58000 WHERE emp_no = 2;

SEQ VT (SELECT emp_no, salary FROM staff WHERE emp_no = 2)
ORDER BY vt_begin;

-- sales closes early: remove the tail of every sales period
DELETE FROM staff FOR PORTION OF PERIOD FROM 25 TO 40
  WHERE dept = 'sales';

-- employee 4 leaves entirely
DELETE FROM staff WHERE emp_no = 4;

-- a flat update touching every remaining engineering row
UPDATE staff SET dept = 'platform' WHERE dept = 'eng';

-- final state: per-department aggregates and a self-join pairing
-- concurrent colleagues, over the mutated table
SEQ VT (SELECT dept, count(*) AS heads, min(salary) AS lo, max(salary) AS hi
        FROM staff GROUP BY dept)
ORDER BY vt_begin;

SEQ VT (SELECT s1.emp_no, s2.emp_no
        FROM staff s1, staff s2
        WHERE s1.dept = s2.dept AND s1.emp_no < s2.emp_no)
ORDER BY vt_begin;
