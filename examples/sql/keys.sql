-- Join and grouping keys at their edges: negative and very wide int
-- keys (whose value range is too wide to address directly), NULL join
-- keys, float group keys where -0.0 meets 0.0, text keys, and a column
-- mixing ints and floats (stored boxed, where Int 1 and Float 1.0 stay
-- distinct keys).  Several statements have no ORDER BY, so the engines'
-- emission orders are compared too.  Deterministic by construction, so
-- test_vec byte-compares its output between the row and vec engines.
-- Run with
--   tkr_cli run -f examples/sql/keys.sql

CREATE TABLE acct (id int, grp int, amt int, b int, e int) PERIOD (b, e);

INSERT INTO acct VALUES
  (-5, -2, 100,  0, 10),
  (-3, -2, 150,  4, 12),
  (-5, -1, 120,  8, 20),
  (4611686018427387903, 7, 10, 0, 30),
  (-4611686018427387903, 7, 20, 5, 25),
  (4611686018427387903, 7, 30, 10, 40),
  (0, NULL, 50, 2, 18),
  (NULL, 3, 60, 0, 40),
  (NULL, 3, 70, 6, 16);

CREATE TABLE owner (id int, name text, b int, e int) PERIOD (b, e);

INSERT INTO owner VALUES
  (-5, 'ann', 0, 40),
  (-3, 'bob', 0, 6),
  (-3, 'bob', 6, 40),
  (4611686018427387903, 'max', 0, 20),
  (-4611686018427387903, 'min', 0, 40),
  (NULL, 'nobody', 0, 40),
  (0, 'zed', 0, 40);

-- negative and very wide join keys; NULL ids never join
SEQ VT (SELECT o.name, a.amt FROM acct a, owner o WHERE a.id = o.id);

SEQ VT (SELECT o.name, a.amt FROM acct a, owner o WHERE a.id = o.id)
ORDER BY vt_begin, name, amt;

-- negative and NULL group keys, a wide key beside them
SEQ VT (SELECT grp, sum(amt) AS total FROM acct GROUP BY grp);

SEQ VT (SELECT id, count(*) AS n FROM acct GROUP BY id)
ORDER BY vt_begin, id;

-- two int keys whose packed range overflows
SEQ VT (SELECT a.amt, b.amt AS other FROM acct a, acct b
        WHERE a.id = b.id AND a.grp = b.grp AND a.amt < b.amt);

SELECT DISTINCT id, grp FROM acct;

-- negative, NULL-free int keys over a narrow range (the keys a join
-- and a grouping can address directly)
CREATE TABLE band (grp int, label text, b int, e int) PERIOD (b, e);

INSERT INTO band VALUES
  (-2, 'low', 0, 20),
  (-1, 'mid', 5, 30),
  (3, 'high', 0, 40),
  (7, 'top', 10, 25),
  (-2, 'low', 20, 40);

CREATE TABLE rate (grp int, pct int, b int, e int) PERIOD (b, e);

INSERT INTO rate VALUES
  (-2, 5, 0, 40),
  (-1, 7, 0, 15),
  (-1, 8, 15, 40),
  (3, 9, 0, 40),
  (-6, 11, 0, 40);

SEQ VT (SELECT b.label, r.pct FROM band b, rate r WHERE b.grp = r.grp);

SEQ VT (SELECT grp, sum(pct) AS total FROM rate GROUP BY grp);

SEQ VT (SELECT grp FROM band EXCEPT ALL SELECT grp FROM rate);

-- float group keys: -0.0 and 0.0 are one key, NaN-free; ints stored
-- into a float column keep Int 1 and Float 1.0 apart (a boxed column)
CREATE TABLE reading (k float, tag text, v int, b int, e int) PERIOD (b, e);

INSERT INTO reading VALUES
  (-0.0, 'x', 1, 0, 10),
  (0.0, 'y', 2, 5, 15),
  (1, 'x', 3, 0, 4),
  (1.0, 'x', 4, 2, 8),
  (2.5, 'y', 5, 1, 9),
  (-2.5, 'y', 6, 3, 7),
  (NULL, 'x', 7, 0, 3),
  (0.0, 'x', 8, 9, 12);

SEQ VT (SELECT k, count(*) AS c FROM reading GROUP BY k);

SEQ VT (SELECT k, tag FROM reading);

SELECT k, tag, sum(v) AS s FROM reading GROUP BY k, tag;

-- text keys: a join and a group on text, and EXCEPT ALL over mixed rows
SEQ VT (SELECT r.tag, o.name FROM reading r, owner o WHERE r.tag = o.name);

SEQ VT (SELECT tag, max(v) AS top FROM reading GROUP BY tag);

SEQ VT (SELECT k, tag FROM reading
        EXCEPT ALL
        SELECT k, tag FROM reading WHERE v > 4);

SELECT k FROM reading EXCEPT ALL SELECT k FROM reading WHERE tag = 'y';
