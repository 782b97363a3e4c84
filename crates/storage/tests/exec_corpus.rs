//! Pins the executor's answers on the committed edge-case corpus.
//!
//! `tests/golden/exec_diff/*.sql` at the repo root hold one SQL statement
//! per line (`#` comments and blank lines skipped). They cover the corners
//! where a rewrite of the executor is most likely to drift: NaN, `-0.0`,
//! NULL, duplicate join keys, integers beyond 2^53, and an empty table.
//! Each statement runs on [`regression_db`] under both join strategies, and
//! its result — or its error — must equal the committed entry in
//! `tests/golden/exec_diff/expected.txt` bit for bit: floats render by
//! `to_bits`, so `-0.0` vs `0.0` and NaN payloads cannot drift unseen.
//!
//! Regenerate the expected file after an intended change with
//! `DAIL_UPDATE_GOLDEN=1 cargo test -q -p storage --test exec_corpus`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use storage::schema::{ColType, ColumnDef, DbSchema, ForeignKey, TableSchema};
use storage::{execute_query_with, Database, ExecOptions, JoinStrategy, Value};

const BIG: i64 = 9_007_199_254_740_992; // 2^53: f64 can no longer tell neighbors apart

/// A deterministic database pinning every adversarial cell shape at once:
/// NULLs everywhere, NaN, both zeros, 2^53 neighbors, duplicate join keys,
/// and one completely empty table (`tag`).
fn regression_db() -> Database {
    let schema = DbSchema {
        db_id: "diff".into(),
        tables: vec![
            TableSchema {
                name: "person".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("grp", ColType::Int),
                    ColumnDef::new("score", ColType::Float),
                    ColumnDef::new("name", ColType::Text),
                ],
                primary_key: vec![0],
            },
            TableSchema {
                name: "visit".into(),
                columns: vec![
                    ColumnDef::new("vid", ColType::Int),
                    ColumnDef::new("person_id", ColType::Int),
                    ColumnDef::new("amount", ColType::Float),
                ],
                primary_key: vec![0],
            },
            TableSchema {
                name: "tag".into(),
                columns: vec![
                    ColumnDef::new("tid", ColType::Int),
                    ColumnDef::new("label", ColType::Text),
                ],
                primary_key: vec![0],
            },
        ],
        foreign_keys: vec![ForeignKey {
            from_table: "visit".into(),
            from_column: "person_id".into(),
            to_table: "person".into(),
            to_column: "id".into(),
        }],
    };
    let mut db = Database::new(schema);
    let people: Vec<(i64, Value, Value, Value)> = vec![
        (0, Value::Int(1), Value::Float(0.0), Value::Str("a".into())),
        (
            1,
            Value::Int(1),
            Value::Float(-0.0),
            Value::Str("ab".into()),
        ),
        (
            2,
            Value::Int(2),
            Value::Float(f64::NAN),
            Value::Str("b".into()),
        ),
        (3, Value::Null, Value::Null, Value::Null),
        (
            4,
            Value::Int(BIG),
            Value::Float(1.0),
            Value::Str(String::new()),
        ),
        (
            5,
            Value::Int(BIG + 1),
            Value::Float(1.0 + f64::EPSILON),
            Value::Str("ac".into()),
        ),
        (6, Value::Int(3), Value::Float(0.5), Value::Str("a".into())),
        (7, Value::Int(3), Value::Float(2.0), Value::Null),
    ];
    for (id, grp, score, name) in people {
        db.insert("person", vec![Value::Int(id), grp, score, name])
            .unwrap();
    }
    let visits: Vec<(i64, Value, Value)> = vec![
        (0, Value::Int(1), Value::Float(0.0)),
        (1, Value::Int(1), Value::Float(-0.0)),
        (2, Value::Int(2), Value::Float(f64::NAN)),
        (3, Value::Null, Value::Float(1.0)),
        (4, Value::Int(6), Value::Null),
        (5, Value::Int(99), Value::Float(0.5)),
    ];
    for (vid, pid, amount) in visits {
        db.insert("visit", vec![Value::Int(vid), pid, amount])
            .unwrap();
    }
    db
}

/// One cell, bit-exact: a float renders as its IEEE-754 bits.
fn render_cell(v: &Value) -> String {
    match v {
        Value::Null => "NULL".to_string(),
        Value::Int(i) => format!("int {i}"),
        Value::Float(f) => format!("float {:#018x}", f.to_bits()),
        Value::Str(s) => format!("str {s:?}"),
    }
}

/// Run `sql` under one join strategy and render the outcome as one entry.
fn render_entry(db: &Database, file: &str, sql: &str, join: JoinStrategy) -> String {
    let mut out = format!("== {file} [{join:?}] {sql}\n");
    let q = sqlkit::parse_query(sql).unwrap_or_else(|e| panic!("{file}: unparsable ({e}): {sql}"));
    match execute_query_with(db, &q, ExecOptions { join }) {
        Ok(rs) => {
            let _ = writeln!(out, "columns {:?}", rs.columns);
            for row in &rs.rows {
                let cells: Vec<String> = row.iter().map(render_cell).collect();
                let _ = writeln!(out, "  [{}]", cells.join(", "));
            }
        }
        Err(e) => {
            let _ = writeln!(out, "error {e:?}");
        }
    }
    out
}

fn corpus_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../../tests/golden/exec_diff")
}

/// Every corpus statement as `(file name, sql)`, in file-name order.
fn corpus_statements() -> Vec<(String, String)> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(corpus_dir())
        .expect("corpus dir exists")
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "sql"))
        .collect();
    paths.sort();
    let mut out = Vec::new();
    for path in paths {
        let file = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        for line in text.lines() {
            let sql = line.trim();
            if !sql.is_empty() && !sql.starts_with('#') {
                out.push((file.clone(), sql.to_string()));
            }
        }
    }
    out
}

/// Every corpus statement under both join strategies, in file-name order.
fn render_corpus() -> (String, usize) {
    let db = regression_db();
    let statements = corpus_statements();
    let mut out = String::new();
    for (file, sql) in &statements {
        for join in [JoinStrategy::Hash, JoinStrategy::NestedLoop] {
            out.push_str(&render_entry(&db, file, sql, join));
        }
    }
    (out, statements.len())
}

#[test]
fn corpus_results_match_expected_bit_for_bit() {
    let (got, n) = render_corpus();
    assert!(n >= 10, "corpus unexpectedly small: {n} statements");
    let path = corpus_dir().join("expected.txt");
    if std::env::var_os("DAIL_UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, &got).unwrap();
        return;
    }
    let want = std::fs::read_to_string(&path).expect("expected.txt exists");
    // Entries start at `== ` header lines; compare entry by entry so a
    // failure names the statement that drifted.
    let entries = |s: &str| -> Vec<String> {
        let mut v: Vec<String> = Vec::new();
        for line in s.lines() {
            match v.last_mut() {
                Some(e) if !line.starts_with("== ") => e.push_str(line),
                _ => v.push(line.to_string()),
            }
            v.last_mut().unwrap().push('\n');
        }
        v
    };
    let (got_e, want_e) = (entries(&got), entries(&want));
    for (g, w) in got_e.iter().zip(&want_e) {
        assert_eq!(g, w, "corpus entry drifted from expected.txt");
    }
    assert_eq!(
        got_e.len(),
        want_e.len(),
        "corpus and expected.txt differ in entry count"
    );
}

/// The join strategy is a physical choice: on every statement of the join
/// corpus, Hash and NestedLoop must return the same rows in the same order.
/// (`nulls_nan_zeros.sql` is exempt: its NaN and `-0.0` join keys still
/// diverge between the strategies.)
#[test]
fn hash_and_nested_loop_agree_on_the_join_corpus() {
    let db = regression_db();
    let file = "joins_and_planner.sql";
    let mut n = 0usize;
    for (_, sql) in corpus_statements().iter().filter(|(f, _)| f == file) {
        // An entry is its `== file [strategy] sql` header, then the result.
        let result = |join| {
            let entry = render_entry(&db, file, sql, join);
            entry.split_once('\n').map(|(_, result)| result.to_string())
        };
        assert_eq!(
            result(JoinStrategy::Hash),
            result(JoinStrategy::NestedLoop),
            "Hash and NestedLoop disagree on {file}: {sql}"
        );
        n += 1;
    }
    assert!(n >= 10, "join corpus unexpectedly small: {n} statements");
}
