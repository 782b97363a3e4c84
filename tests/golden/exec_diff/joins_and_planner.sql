# Join, filter and grouping edge cases. crates/storage/tests/exec_corpus.rs
# runs each statement under both join strategies against its fixed
# regression database, pins the results in expected.txt, and requires Hash
# and NestedLoop to agree on every statement in this file.

# 2^53 and 2^53 + 1 share an f64 image; integer comparison must keep them
# apart.
SELECT id FROM person WHERE grp = 9007199254740992
SELECT id FROM person WHERE grp IN (9007199254740992, 9007199254740993) ORDER BY id ASC

# Self-join on a column holding 2^53-band values and NULLs: hash-join keys
# must not merge distinct integers.
SELECT A.id, B.id FROM person AS A JOIN person AS B ON A.grp = B.grp ORDER BY A.id ASC, B.id ASC

# A cross-table WHERE equality on top of a join.
SELECT count(*) FROM person AS A JOIN visit AS B ON A.id = B.person_id WHERE A.grp = B.vid

# Join against an empty table (tag has no rows in the regression db).
SELECT count(*) FROM person AS A JOIN tag AS C ON A.grp = C.tid

# A column equality ANDed with an arithmetic comparison.
SELECT id FROM person WHERE grp = 3 AND score * 2 > 1.0 ORDER BY id ASC

# An IN-subquery conjunct next to a plain equality.
SELECT id FROM person WHERE grp IN (SELECT person_id FROM visit) AND grp = 1

# Join with a filter on the right-hand table.
SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id WHERE T2.amount > 0.0 ORDER BY T1.id ASC, T2.vid ASC

# Range and BETWEEN predicates, one bound beyond 2^53.
SELECT id FROM person WHERE grp BETWEEN 1 AND 3 ORDER BY id ASC
SELECT id FROM person WHERE grp >= 2 AND grp < 9007199254740993 ORDER BY id ASC

# LIKE with a bare wildcard keeps all non-null names.
SELECT id FROM person WHERE name LIKE '%' ORDER BY id ASC

# GROUP BY with HAVING: 2^53 and 2^53 + 1 are separate groups.
SELECT grp, count(*) FROM person GROUP BY grp HAVING count(*) >= 2 ORDER BY grp ASC

# Correlated EXISTS / NOT EXISTS.
SELECT id FROM person AS A WHERE EXISTS (SELECT 1 FROM visit WHERE visit.person_id = A.id) ORDER BY id ASC
SELECT id FROM person AS A WHERE NOT EXISTS (SELECT 1 FROM visit WHERE visit.person_id = A.id) ORDER BY id ASC

# No outer ORDER BY: the raw join row order is pinned, and LIMIT and
# DISTINCT observe it.
SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id
SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id LIMIT 2
SELECT DISTINCT T1.grp FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id
SELECT T1.grp, count(*) FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id GROUP BY T1.grp
