# NULL / NaN / signed-zero edge cases. crates/storage/tests/exec_corpus.rs
# runs each statement under both join strategies against its fixed
# regression database (see regression_db() there) and pins the results in
# expected.txt bit for bit. One statement per line.

# -0.0 and 0.0 are sql-equal but bitwise distinct; both rows are kept and
# each cell keeps its original bits.
SELECT id, score FROM person WHERE score = 0.0 ORDER BY id ASC

# NaN and -0.0 in the join key: Hash and NestedLoop still disagree here
# (5 rows vs 17), and expected.txt pins both answers.
SELECT T1.id, T2.vid FROM person AS T1 JOIN visit AS T2 ON T1.score = T2.amount ORDER BY T1.id ASC, T2.vid ASC

# NULL join keys never match, on either side.
SELECT count(*) FROM person AS T1 JOIN visit AS T2 ON T1.id = T2.person_id

# IS NULL / IS NOT NULL under three-valued logic.
SELECT id FROM person WHERE score IS NULL
SELECT id FROM person WHERE score IS NOT NULL ORDER BY id DESC

# Aggregates that see NaN and NULLs (avg skips NULLs, propagates NaN).
SELECT count(*), count(score), avg(score), min(score), max(score) FROM person

# Scalar subquery produces NaN; comparisons against it are pinned.
SELECT id FROM person WHERE score > (SELECT avg(amount) FROM visit)

# NULL-heavy set operations (NULL equals NULL under set-op dedup).
SELECT grp FROM person EXCEPT SELECT person_id FROM visit
SELECT score FROM person UNION SELECT amount FROM visit

# NOT over 3VL: NOT(NULL = 1) is NULL, so the row drops.
SELECT id FROM person WHERE NOT (grp = 1) ORDER BY id ASC
