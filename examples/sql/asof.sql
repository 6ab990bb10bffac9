-- AS OF timeslices and the temporal interval index.  Run with
--   tkr_cli run -f examples/sql/asof.sql
-- (test_vec compares its output with and without the index, byte for
-- byte) or look at the planner's decision without executing:
--   tkr_cli explain "SEQ VT AS OF 9 (SELECT name FROM works)"

CREATE TABLE works (name text, skill text, b int, e int) PERIOD (b, e);
INSERT INTO works VALUES
  ('Ann', 'SP', 3, 10), ('Joe', 'NS', 8, 16),
  ('Sam', 'SP', 8, 16), ('Ann', 'SP', 18, 20);

-- the snapshot at one point in time: the query runs as a plain query
-- over the timeslice of works, whose selection (Abegin <= 9 < Aend)
-- is a stab probe into the endpoint-sorted index
SEQ VT AS OF 9 (SELECT name, skill FROM works);

-- a user filter applies to the stabbed rows: the probe's bounds no
-- longer decide the predicate alone, so it re-applies the full
-- predicate to its candidates, and the result matches the scan byte
-- for byte.  A bare timeslice is decided by the bounds exactly and is
-- not re-applied
SEQ VT AS OF 9 (SELECT name FROM works WHERE skill = 'SP');

-- timeslice cardinality: a plain count(*) over the stabbed rows
SEQ VT AS OF 9 (SELECT count(*) AS headcount FROM works);

-- aggregation at one point is plain aggregation: no split or coalesce
SEQ VT AS OF 9 (SELECT skill, count(*) AS c FROM works GROUP BY skill);

-- an overlap range over the period columns directly: rows alive at any
-- point of [8, 16) — begin bounded above, end bounded below
SELECT name, b, e FROM works WHERE b < 16 AND e > 8;

-- DML installs a new value of works; the stabs over the changed rows
-- still match the scan
INSERT INTO works VALUES ('Eve', 'NS', 1, 23);
SEQ VT AS OF 9 (SELECT name, skill FROM works);
DELETE FROM works FOR PORTION OF vt FROM 5 TO 12 WHERE skill = 'SP';
SEQ VT AS OF 9 (SELECT name, skill FROM works);
SEQ VT AS OF 4 (SELECT count(*) AS headcount FROM works);
SELECT name, b, e FROM works WHERE b < 16 AND e > 8;

-- An UPDATE over part of a period splits each matching row into the
-- part before, the changed overlap and the part after; they replace it
-- at the end of the table's rows
UPDATE works FOR PORTION OF vt FROM 9 TO 14 SET skill = 'MG' WHERE name = 'Joe';
SEQ VT AS OF 9 (SELECT name, skill FROM works);
SEQ VT AS OF 14 (SELECT name, skill FROM works);

-- two writes back to back, read once
INSERT INTO works VALUES ('Kim', 'SP', 6, 19), ('Lou', 'NS', 0, 9);
DELETE FROM works WHERE name = 'Ann' AND b >= 18;
SEQ VT AS OF 8 (SELECT name, skill FROM works);
SEQ VT AS OF 18 (SELECT count(*) AS headcount FROM works);

-- a NULL data value goes to the columnar image's validity mask
INSERT INTO works VALUES ('Max', NULL, 2, 11);
SEQ VT AS OF 10 (SELECT name, skill FROM works);
SEQ VT AS OF 10 (SELECT skill, count(*) AS c FROM works GROUP BY skill);
SELECT name, b, e FROM works WHERE b < 12 AND e > 10;

-- 160 rows, so that the writes below leave it an indexed segment and
-- every read after them probes its index and scans the tail of new
-- rows: the probe gathers only the columns its consumer reads.  amount
-- and rate are NULL-heavy, and the lab department's amounts are all
-- NULL
CREATE TABLE pay (name text, dept text, amount int, rate float, b int, e int) PERIOD (b, e);
INSERT INTO pay VALUES
  ('p0', 'eng', NULL, -0.0, 0, 1), ('p1', 'ops', -13, NULL, 7, 19), ('p2', 'hr', 24, 3.5, 14, 37), ('p3', 'lab', NULL, 6.75, 21, 30),
  ('p4', 'eng', 98, -2.5, 28, 48), ('p5', 'ops', NULL, NULL, 35, 41), ('p6', 'hr', -28, 4.0, 2, 19), ('p7', 'lab', NULL, 7.25, 9, 12),
  ('p8', 'eng', 46, -2.0, 16, 30), ('p9', 'ops', 83, NULL, 23, 48), ('p10', 'hr', NULL, 4.5, 30, 41), ('p11', 'lab', NULL, 7.75, 37, 59),
  ('p12', 'eng', -6, -1.5, 4, 12), ('p13', 'ops', 31, NULL, 11, 30), ('p14', 'hr', 68, 5.0, 18, 23), ('p15', 'lab', NULL, 8.25, 25, 41),
  ('p16', 'eng', 142, -1.0, 32, 34), ('p17', 'ops', -21, NULL, 39, 52), ('p18', 'hr', 16, 5.5, 6, 30), ('p19', 'lab', NULL, 8.75, 13, 23),
  ('p20', 'eng', NULL, -0.5, 20, 41), ('p21', 'ops', 127, NULL, 27, 34), ('p22', 'hr', -36, 6.0, 34, 52), ('p23', 'lab', NULL, -0.0, 1, 5),
  ('p24', 'eng', 38, 0.0, 8, 23), ('p25', 'ops', NULL, NULL, 15, 16), ('p26', 'hr', 112, 6.5, 22, 34), ('p27', 'lab', NULL, -2.75, 29, 52),
  ('p28', 'eng', -14, 0.5, 36, 45), ('p29', 'ops', 23, NULL, 3, 23), ('p30', 'hr', NULL, 7.0, 10, 16), ('p31', 'lab', NULL, -2.25, 17, 34),
  ('p32', 'eng', 134, 1.0, 24, 27), ('p33', 'ops', -29, NULL, 31, 45), ('p34', 'hr', 8, 7.5, 38, 63), ('p35', 'lab', NULL, -1.75, 5, 16),
  ('p36', 'eng', 82, 1.5, 12, 34), ('p37', 'ops', 119, NULL, 19, 27), ('p38', 'hr', -44, 8.0, 26, 45), ('p39', 'lab', NULL, -1.25, 33, 38),
  ('p40', 'eng', NULL, 2.0, 0, 16), ('p41', 'ops', 67, NULL, 7, 9), ('p42', 'hr', 104, 8.5, 14, 27), ('p43', 'lab', NULL, -0.75, 21, 45),
  ('p44', 'eng', -22, 2.5, 28, 38), ('p45', 'ops', NULL, NULL, 35, 56), ('p46', 'hr', 52, -0.0, 2, 9), ('p47', 'lab', NULL, -0.25, 9, 27),
  ('p48', 'eng', 126, 3.0, 16, 20), ('p49', 'ops', -37, NULL, 23, 38), ('p50', 'hr', NULL, -3.0, 30, 31), ('p51', 'lab', NULL, 0.25, 37, 49),
  ('p52', 'eng', 74, 3.5, 4, 27), ('p53', 'ops', 111, NULL, 11, 20), ('p54', 'hr', 148, -2.5, 18, 38), ('p55', 'lab', NULL, 0.75, 25, 31),
  ('p56', 'eng', 22, 4.0, 32, 49), ('p57', 'ops', 59, NULL, 39, 42), ('p58', 'hr', 96, 0.0, 6, 20), ('p59', 'lab', NULL, 1.25, 13, 38),
  ('p60', 'eng', NULL, 4.5, 20, 31), ('p61', 'ops', 7, NULL, 27, 49), ('p62', 'hr', 44, -1.5, 34, 42), ('p63', 'lab', NULL, 1.75, 1, 20),
  ('p64', 'eng', 118, 5.0, 8, 13), ('p65', 'ops', NULL, NULL, 15, 31), ('p66', 'hr', -8, -1.0, 22, 24), ('p67', 'lab', NULL, 2.25, 29, 42),
  ('p68', 'eng', 66, 5.5, 36, 60), ('p69', 'ops', 103, NULL, 3, 13), ('p70', 'hr', NULL, -0.5, 10, 31), ('p71', 'lab', NULL, 2.75, 17, 24),
  ('p72', 'eng', 14, 6.0, 24, 42), ('p73', 'ops', 51, NULL, 31, 35), ('p74', 'hr', 88, 0.0, 38, 53), ('p75', 'lab', NULL, 3.25, 5, 6),
  ('p76', 'eng', -38, 6.5, 12, 24), ('p77', 'ops', -1, NULL, 19, 42), ('p78', 'hr', 36, 0.5, 26, 35), ('p79', 'lab', NULL, 3.75, 33, 53),
  ('p80', 'eng', NULL, 7.0, 0, 6), ('p81', 'ops', 147, NULL, 7, 24), ('p82', 'hr', -16, 1.0, 14, 17), ('p83', 'lab', NULL, 4.25, 21, 35),
  ('p84', 'eng', 58, 7.5, 28, 53), ('p85', 'ops', NULL, NULL, 35, 46), ('p86', 'hr', 132, 1.5, 2, 24), ('p87', 'lab', NULL, 0.0, 9, 17),
  ('p88', 'eng', 6, 8.0, 16, 35), ('p89', 'ops', 43, NULL, 23, 28), ('p90', 'hr', NULL, 2.0, 30, 46), ('p91', 'lab', NULL, 5.25, 37, 39),
  ('p92', 'eng', -46, -0.0, 4, 17), ('p93', 'ops', -9, NULL, 11, 35), ('p94', 'hr', 28, 2.5, 18, 28), ('p95', 'lab', NULL, 5.75, 25, 46),
  ('p96', 'eng', 102, 9.0, 32, 39), ('p97', 'ops', 139, NULL, 39, 57), ('p98', 'hr', -24, 3.0, 6, 10), ('p99', 'lab', NULL, 6.25, 13, 28),
  ('p100', 'eng', NULL, -3.0, 20, 21), ('p101', 'ops', 87, NULL, 27, 39), ('p102', 'hr', 124, 3.5, 34, 57), ('p103', 'lab', NULL, 6.75, 1, 10),
  ('p104', 'eng', -2, -2.5, 8, 28), ('p105', 'ops', NULL, NULL, 15, 21), ('p106', 'hr', 72, 4.0, 22, 39), ('p107', 'lab', NULL, 7.25, 29, 32),
  ('p108', 'eng', 146, -2.0, 36, 50), ('p109', 'ops', -17, NULL, 3, 28), ('p110', 'hr', NULL, 4.5, 10, 21), ('p111', 'lab', NULL, 7.75, 17, 39),
  ('p112', 'eng', 94, -1.5, 24, 32), ('p113', 'ops', 131, NULL, 31, 50), ('p114', 'hr', -32, 5.0, 38, 43), ('p115', 'lab', NULL, -0.0, 5, 21),
  ('p116', 'eng', 42, 0.0, 12, 14), ('p117', 'ops', 79, NULL, 19, 32), ('p118', 'hr', 116, 5.5, 26, 50), ('p119', 'lab', NULL, 8.75, 33, 43),
  ('p120', 'eng', NULL, -0.5, 0, 21), ('p121', 'ops', 27, NULL, 7, 14), ('p122', 'hr', 64, 6.0, 14, 32), ('p123', 'lab', NULL, 9.25, 21, 25),
  ('p124', 'eng', 138, 0.0, 28, 43), ('p125', 'ops', NULL, NULL, 35, 36), ('p126', 'hr', 12, 6.5, 2, 14), ('p127', 'lab', NULL, -2.75, 9, 32),
  ('p128', 'eng', 86, 0.5, 16, 25), ('p129', 'ops', 123, NULL, 23, 43), ('p130', 'hr', NULL, 7.0, 30, 36), ('p131', 'lab', NULL, -2.25, 37, 54),
  ('p132', 'eng', 34, 1.0, 4, 7), ('p133', 'ops', 71, NULL, 11, 25), ('p134', 'hr', 108, 7.5, 18, 43), ('p135', 'lab', NULL, -1.75, 25, 36),
  ('p136', 'eng', -18, 1.5, 32, 54), ('p137', 'ops', 19, NULL, 39, 47), ('p138', 'hr', 56, -0.0, 6, 25), ('p139', 'lab', NULL, -1.25, 13, 18),
  ('p140', 'eng', NULL, 2.0, 20, 36), ('p141', 'ops', -33, NULL, 27, 29), ('p142', 'hr', 4, 8.5, 34, 47), ('p143', 'lab', NULL, -0.75, 1, 25),
  ('p144', 'eng', 78, 2.5, 8, 18), ('p145', 'ops', NULL, NULL, 15, 36), ('p146', 'hr', -48, 9.0, 22, 29), ('p147', 'lab', NULL, -0.25, 29, 47),
  ('p148', 'eng', 26, 3.0, 36, 40), ('p149', 'ops', 63, NULL, 3, 18), ('p150', 'hr', NULL, -3.0, 10, 11), ('p151', 'lab', NULL, 0.25, 17, 29),
  ('p152', 'eng', -26, 3.5, 24, 47), ('p153', 'ops', 11, NULL, 31, 40), ('p154', 'hr', 48, -2.5, 38, 58), ('p155', 'lab', NULL, 0.75, 5, 11),
  ('p156', 'eng', 122, 4.0, 12, 29), ('p157', 'ops', -41, NULL, 19, 22), ('p158', 'hr', -4, -2.0, 26, 40), ('p159', 'lab', NULL, 1.25, 33, 58);

-- aggregation at a point over int and float columns with NULLs: γ folds
-- each group's rows in row order into typed per-group slots, with the
-- row engine's values bit for bit (float sums in the same order of
-- additions, -0.0 and 0.0 kept as they come)
SEQ VT AS OF 12 (SELECT dept, count(*) AS n, count(amount) AS na, sum(amount) AS s, avg(amount) AS a, min(amount) AS lo, max(amount) AS hi FROM pay GROUP BY dept);
SEQ VT AS OF 12 (SELECT dept, count(rate) AS nr, sum(rate) AS s, avg(rate) AS a, min(rate) AS lo, max(rate) AS hi FROM pay GROUP BY dept);
SEQ VT AS OF 30 (SELECT count(*) AS n, sum(amount) AS s, avg(rate) AS a, min(name) AS first, max(name) AS last FROM pay);
SEQ VT AS OF 12 (SELECT count(*) AS n, sum(amount) AS s, avg(rate) AS a, min(rate) AS lo FROM pay WHERE amount > 1000);
SEQ VT AS OF 12 (SELECT dept, count(*) AS n, sum(amount) AS s FROM pay WHERE amount > 1000 GROUP BY dept);

-- GROUP BY a text column after each kind of write, read over two
-- segments: the probe's bounds decide the timeslice exactly, so only
-- the grouped and aggregated columns are gathered
INSERT INTO pay VALUES ('q0', 'ops', 75, 1.25, 10, 20);
SEQ VT AS OF 12 (SELECT dept, count(*) AS n, sum(amount) AS s, max(rate) AS hi FROM pay GROUP BY dept);
UPDATE pay FOR PORTION OF vt FROM 11 TO 13 SET dept = 'hr' WHERE name = 'p1';
SEQ VT AS OF 12 (SELECT dept, count(*) AS n, sum(amount) AS s, max(rate) AS hi FROM pay GROUP BY dept);
SEQ VT AS OF 13 (SELECT dept, count(*) AS n, avg(amount) AS a FROM pay GROUP BY dept);
DELETE FROM pay FOR PORTION OF vt FROM 11 TO 13 WHERE name = 'p6';
SEQ VT AS OF 12 (SELECT dept, count(*) AS n, sum(amount) AS s, min(rate) AS lo FROM pay GROUP BY dept);

-- reads the bounds do not decide: an equality on the begin, and a
-- conjunct over a data column, are re-applied to the candidates
SELECT name, b, e FROM pay WHERE b = 14 AND e > 20;
SEQ VT AS OF 12 (SELECT name, amount FROM pay WHERE amount > 100);
SELECT dept, count(*) AS n FROM pay WHERE b <= 12 AND e > 12 AND rate < 0.5 GROUP BY dept;

-- Segments.  A table value is a list of segments, each with its own
-- index, and a deletion bitmap per segment: INSERT appends a segment,
-- DELETE sets bits, UPDATE sets bits and appends the replacement rows
-- last.  Trailing segments merge while the one before the last has
-- fewer than 64 rows or at most twice the last's, and an index read
-- probes every segment's index but scans a last segment below 64 rows.
-- 96 rows: one segment, indexed by the first read
CREATE TABLE shift (name text, crew text, hours int, b int, e int) PERIOD (b, e);
INSERT INTO shift VALUES
  ('s0', 'red', NULL, 0, 1), ('s1', 'blue', 7, 13, 19), ('s2', 'green', 3, 26, 37), ('s3', 'gold', 10, 39, 55),
  ('s4', 'red', 6, 2, 3), ('s5', 'blue', 2, 15, 21), ('s6', 'green', 9, 28, 39), ('s7', 'gold', 5, 41, 57),
  ('s8', 'red', 1, 4, 5), ('s9', 'blue', NULL, 17, 23), ('s10', 'green', 4, 30, 41), ('s11', 'gold', 0, 43, 59),
  ('s12', 'red', 7, 6, 7), ('s13', 'blue', 3, 19, 25), ('s14', 'green', 10, 32, 43), ('s15', 'gold', 6, 45, 61),
  ('s16', 'red', 2, 8, 9), ('s17', 'blue', 9, 21, 27), ('s18', 'green', NULL, 34, 45), ('s19', 'gold', 1, 47, 63),
  ('s20', 'red', 8, 10, 11), ('s21', 'blue', 4, 23, 29), ('s22', 'green', 0, 36, 47), ('s23', 'gold', 7, 49, 65),
  ('s24', 'red', 3, 12, 13), ('s25', 'blue', 10, 25, 31), ('s26', 'green', 6, 38, 49), ('s27', 'gold', NULL, 1, 17),
  ('s28', 'red', 9, 14, 15), ('s29', 'blue', 5, 27, 33), ('s30', 'green', 1, 40, 51), ('s31', 'gold', 8, 3, 19),
  ('s32', 'red', 4, 16, 17), ('s33', 'blue', 0, 29, 35), ('s34', 'green', 7, 42, 53), ('s35', 'gold', 3, 5, 21),
  ('s36', 'red', NULL, 18, 19), ('s37', 'blue', 6, 31, 37), ('s38', 'green', 2, 44, 55), ('s39', 'gold', 9, 7, 23),
  ('s40', 'red', 5, 20, 21), ('s41', 'blue', 1, 33, 39), ('s42', 'green', 8, 46, 57), ('s43', 'gold', 4, 9, 25),
  ('s44', 'red', 0, 22, 23), ('s45', 'blue', NULL, 35, 41), ('s46', 'green', 3, 48, 59), ('s47', 'gold', 10, 11, 27),
  ('s48', 'red', 6, 24, 25), ('s49', 'blue', 2, 37, 43), ('s50', 'green', 9, 0, 11), ('s51', 'gold', 5, 13, 29),
  ('s52', 'red', 1, 26, 27), ('s53', 'blue', 8, 39, 45), ('s54', 'green', NULL, 2, 13), ('s55', 'gold', 0, 15, 31),
  ('s56', 'red', 7, 28, 29), ('s57', 'blue', 3, 41, 47), ('s58', 'green', 10, 4, 15), ('s59', 'gold', 6, 17, 33),
  ('s60', 'red', 2, 30, 31), ('s61', 'blue', 9, 43, 49), ('s62', 'green', 5, 6, 17), ('s63', 'gold', NULL, 19, 35),
  ('s64', 'red', 8, 32, 33), ('s65', 'blue', 4, 45, 51), ('s66', 'green', 0, 8, 19), ('s67', 'gold', 7, 21, 37),
  ('s68', 'red', 3, 34, 35), ('s69', 'blue', 10, 47, 53), ('s70', 'green', 6, 10, 21), ('s71', 'gold', 2, 23, 39),
  ('s72', 'red', NULL, 36, 37), ('s73', 'blue', 5, 49, 55), ('s74', 'green', 1, 12, 23), ('s75', 'gold', 8, 25, 41),
  ('s76', 'red', 4, 38, 39), ('s77', 'blue', 0, 1, 7), ('s78', 'green', 7, 14, 25), ('s79', 'gold', 3, 27, 43),
  ('s80', 'red', 10, 40, 41), ('s81', 'blue', NULL, 3, 9), ('s82', 'green', 2, 16, 27), ('s83', 'gold', 9, 29, 45),
  ('s84', 'red', 5, 42, 43), ('s85', 'blue', 1, 5, 11), ('s86', 'green', 8, 18, 29), ('s87', 'gold', 4, 31, 47),
  ('s88', 'red', 0, 44, 45), ('s89', 'blue', 7, 7, 13), ('s90', 'green', NULL, 20, 31), ('s91', 'gold', 10, 33, 49),
  ('s92', 'red', 6, 46, 47), ('s93', 'blue', 2, 9, 15), ('s94', 'green', 9, 22, 33), ('s95', 'gold', 5, 35, 51);
SEQ VT AS OF 20 (SELECT crew, count(*) AS n, count(hours) AS nh, sum(hours) AS h, min(name) AS first FROM shift GROUP BY crew);
SEQ VT AS OF 27 (SELECT name, hours FROM shift WHERE hours > 4);
SELECT name, b, e FROM shift WHERE b < 23 AND e > 20;

-- deleted rows in the indexed segment are skipped by its probes
DELETE FROM shift WHERE hours > 8;
SEQ VT AS OF 20 (SELECT crew, count(*) AS n, count(hours) AS nh, sum(hours) AS h, min(name) AS first FROM shift GROUP BY crew);
SEQ VT AS OF 27 (SELECT name, hours FROM shift WHERE hours > 4);
SELECT name, b, e FROM shift WHERE b < 23 AND e > 20;

-- a tail of three one-row segments merged into one, scanned
INSERT INTO shift VALUES ('t0', 'red', 3, 18, 25);
INSERT INTO shift VALUES ('t1', 'gold', NULL, 19, 40);
INSERT INTO shift VALUES ('t2', 'blue', 5, 2, 21);
SEQ VT AS OF 20 (SELECT crew, count(*) AS n, count(hours) AS nh, sum(hours) AS h, min(name) AS first FROM shift GROUP BY crew);
SEQ VT AS OF 27 (SELECT name, hours FROM shift WHERE hours > 4);
SELECT name, b, e FROM shift WHERE b < 23 AND e > 20;

-- 50 rows: the tail merges into the first segment (fewer than 64
-- rows before it), which then merges into the first (96 <= 2 x 53),
-- dropping the deleted rows
INSERT INTO shift VALUES
  ('s96', 'red', 1, 48, 49), ('s97', 'blue', 8, 11, 17), ('s98', 'green', 4, 24, 35), ('s99', 'gold', NULL, 37, 53),
  ('s100', 'red', 7, 0, 1), ('s101', 'blue', 3, 13, 19), ('s102', 'green', 10, 26, 37), ('s103', 'gold', 6, 39, 55),
  ('s104', 'red', 2, 2, 3), ('s105', 'blue', 9, 15, 21), ('s106', 'green', 5, 28, 39), ('s107', 'gold', 1, 41, 57),
  ('s108', 'red', NULL, 4, 5), ('s109', 'blue', 4, 17, 23), ('s110', 'green', 0, 30, 41), ('s111', 'gold', 7, 43, 59),
  ('s112', 'red', 3, 6, 7), ('s113', 'blue', 10, 19, 25), ('s114', 'green', 6, 32, 43), ('s115', 'gold', 2, 45, 61),
  ('s116', 'red', 9, 8, 9), ('s117', 'blue', NULL, 21, 27), ('s118', 'green', 1, 34, 45), ('s119', 'gold', 8, 47, 63),
  ('s120', 'red', 4, 10, 11), ('s121', 'blue', 0, 23, 29), ('s122', 'green', 7, 36, 47), ('s123', 'gold', 3, 49, 65),
  ('s124', 'red', 10, 12, 13), ('s125', 'blue', 6, 25, 31), ('s126', 'green', NULL, 38, 49), ('s127', 'gold', 9, 1, 17),
  ('s128', 'red', 5, 14, 15), ('s129', 'blue', 1, 27, 33), ('s130', 'green', 8, 40, 51), ('s131', 'gold', 4, 3, 19),
  ('s132', 'red', 0, 16, 17), ('s133', 'blue', 7, 29, 35), ('s134', 'green', 3, 42, 53), ('s135', 'gold', NULL, 5, 21),
  ('s136', 'red', 6, 18, 19), ('s137', 'blue', 2, 31, 37), ('s138', 'green', 9, 44, 55), ('s139', 'gold', 5, 7, 23),
  ('s140', 'red', 1, 20, 21), ('s141', 'blue', 8, 33, 39), ('s142', 'green', 4, 46, 57), ('s143', 'gold', 0, 9, 25),
  ('s144', 'red', NULL, 22, 23), ('s145', 'blue', 3, 35, 41);
SEQ VT AS OF 21 (SELECT crew, count(*) AS n, count(hours) AS nh, sum(hours) AS h, min(name) AS first FROM shift GROUP BY crew);
SEQ VT AS OF 28 (SELECT name, hours FROM shift WHERE hours > 4);
SELECT name, b, e FROM shift WHERE b < 24 AND e > 21;

-- deletions in the merged segment, once indexed, then 65 rows: a
-- second indexed segment (more than twice 65 rows before it), a
-- one-row tail, and an UPDATE whose replacement rows come last
DELETE FROM shift WHERE crew = 'green' AND b < 30;
SEQ VT AS OF 22 (SELECT crew, count(*) AS n, count(hours) AS nh, sum(hours) AS h, min(name) AS first FROM shift GROUP BY crew);
SEQ VT AS OF 29 (SELECT name, hours FROM shift WHERE hours > 4);
SELECT name, b, e FROM shift WHERE b < 25 AND e > 22;
INSERT INTO shift VALUES
  ('s146', 'green', 10, 48, 59), ('s147', 'gold', 6, 11, 27), ('s148', 'red', 2, 24, 25), ('s149', 'blue', 9, 37, 43),
  ('s150', 'green', 5, 0, 11), ('s151', 'gold', 1, 13, 29), ('s152', 'red', 8, 26, 27), ('s153', 'blue', NULL, 39, 45),
  ('s154', 'green', 0, 2, 13), ('s155', 'gold', 7, 15, 31), ('s156', 'red', 3, 28, 29), ('s157', 'blue', 10, 41, 47),
  ('s158', 'green', 6, 4, 15), ('s159', 'gold', 2, 17, 33), ('s160', 'red', 9, 30, 31), ('s161', 'blue', 5, 43, 49),
  ('s162', 'green', NULL, 6, 17), ('s163', 'gold', 8, 19, 35), ('s164', 'red', 4, 32, 33), ('s165', 'blue', 0, 45, 51),
  ('s166', 'green', 7, 8, 19), ('s167', 'gold', 3, 21, 37), ('s168', 'red', 10, 34, 35), ('s169', 'blue', 6, 47, 53),
  ('s170', 'green', 2, 10, 21), ('s171', 'gold', NULL, 23, 39), ('s172', 'red', 5, 36, 37), ('s173', 'blue', 1, 49, 55),
  ('s174', 'green', 8, 12, 23), ('s175', 'gold', 4, 25, 41), ('s176', 'red', 0, 38, 39), ('s177', 'blue', 7, 1, 7),
  ('s178', 'green', 3, 14, 25), ('s179', 'gold', 10, 27, 43), ('s180', 'red', NULL, 40, 41), ('s181', 'blue', 2, 3, 9),
  ('s182', 'green', 9, 16, 27), ('s183', 'gold', 5, 29, 45), ('s184', 'red', 1, 42, 43), ('s185', 'blue', 8, 5, 11),
  ('s186', 'green', 4, 18, 29), ('s187', 'gold', 0, 31, 47), ('s188', 'red', 7, 44, 45), ('s189', 'blue', NULL, 7, 13),
  ('s190', 'green', 10, 20, 31), ('s191', 'gold', 6, 33, 49), ('s192', 'red', 2, 46, 47), ('s193', 'blue', 9, 9, 15),
  ('s194', 'green', 5, 22, 33), ('s195', 'gold', 1, 35, 51), ('s196', 'red', 8, 48, 49), ('s197', 'blue', 4, 11, 17),
  ('s198', 'green', NULL, 24, 35), ('s199', 'gold', 7, 37, 53), ('s200', 'red', 3, 0, 1), ('s201', 'blue', 10, 13, 19),
  ('s202', 'green', 6, 26, 37), ('s203', 'gold', 2, 39, 55), ('s204', 'red', 9, 2, 3), ('s205', 'blue', 5, 15, 21),
  ('s206', 'green', 1, 28, 39), ('s207', 'gold', NULL, 41, 57), ('s208', 'red', 4, 4, 5), ('s209', 'blue', 0, 17, 23),
  ('s210', 'green', 7, 30, 41);
INSERT INTO shift VALUES ('t3', 'green', 8, 20, 33);
SEQ VT AS OF 23 (SELECT crew, count(*) AS n, count(hours) AS nh, sum(hours) AS h, min(name) AS first FROM shift GROUP BY crew);
SEQ VT AS OF 30 (SELECT name, hours FROM shift WHERE hours > 4);
SELECT name, b, e FROM shift WHERE b < 26 AND e > 23;
UPDATE shift FOR PORTION OF vt FROM 21 TO 26 SET hours = 1 WHERE crew = 'red';
DELETE FROM shift FOR PORTION OF vt FROM 24 TO 28 WHERE crew = 'blue' AND hours < 4;
SEQ VT AS OF 24 (SELECT crew, count(*) AS n, count(hours) AS nh, sum(hours) AS h, min(name) AS first FROM shift GROUP BY crew);
SEQ VT AS OF 31 (SELECT name, hours FROM shift WHERE hours > 4);
SELECT name, b, e FROM shift WHERE b < 27 AND e > 24;
SEQ VT AS OF 25 (SELECT name, crew, hours FROM shift WHERE name < 's2');
SEQ VT AS OF 27 (SELECT count(*) AS n FROM shift);

-- A whole-table read compacts the value: its 188 live rows become one
-- segment, whose index the next index read builds.  The writes after
-- it delete rows of that segment and append a second one of 71 rows,
-- and the reads probe both segments' indexes
SEQ VT (SELECT crew, count(*) AS n, sum(hours) AS h FROM shift GROUP BY crew);
DELETE FROM shift WHERE crew = 'gold' AND hours < 3;
UPDATE shift FOR PORTION OF vt FROM 20 TO 30 SET crew = 'red' WHERE name < 's3';
SEQ VT AS OF 25 (SELECT crew, count(*) AS n, count(hours) AS nh, sum(hours) AS h, min(name) AS first FROM shift GROUP BY crew);
SEQ VT AS OF 25 (SELECT name, crew, hours FROM shift WHERE name < 's3');
SELECT name, b, e FROM shift WHERE b < 28 AND e > 25;
