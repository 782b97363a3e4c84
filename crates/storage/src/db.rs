//! In-memory database: schema plus table contents.

use crate::schema::{DbSchema, TableSchema};
use crate::value::{Row, Value};
use crate::ExecError;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Mutex, OnceLock, PoisonError};

/// A table's contents.
#[derive(Debug, Clone, Default)]
pub struct TableData {
    /// Rows in insertion order.
    pub rows: Vec<Row>,
}

/// An in-memory database instance.
///
/// Tables are row stores; the executor scans them in place. Besides its
/// contents a database carries two caches derived from them, each built on
/// first use and dropped on [`Database::insert`]: exact statistics
/// ([`Database::cached_stats`]) and the EX-verdict memo
/// ([`Database::memo_verdict`]). A clone starts with an empty verdict memo,
/// so work measured on a clone runs cold.
#[derive(Debug, Clone)]
pub struct Database {
    /// The schema.
    pub schema: DbSchema,
    /// Lowercased table name → contents.
    tables: BTreeMap<String, TableData>,
    /// Lazily collected exact statistics; invalidated on insert.
    stats: OnceLock<crate::stats::DbStats>,
    /// Memoized EX verdicts; invalidated on insert, empty in a clone.
    verdicts: VerdictMemo,
}

/// Gold SQL text → predicted SQL text → EX verdict. Nested so a lookup by
/// two `&str` keys allocates nothing.
#[derive(Default)]
struct VerdictMemo(Mutex<HashMap<String, HashMap<String, Option<bool>>>>);

impl Clone for VerdictMemo {
    fn clone(&self) -> VerdictMemo {
        VerdictMemo::default()
    }
}

impl std::fmt::Debug for VerdictMemo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("VerdictMemo")
    }
}

impl Database {
    /// Create an empty database for a schema.
    pub fn new(schema: DbSchema) -> Database {
        let tables = schema
            .tables
            .iter()
            .map(|t| (t.name.to_lowercase(), TableData::default()))
            .collect();
        Database {
            schema,
            tables,
            stats: OnceLock::new(),
            verdicts: VerdictMemo::default(),
        }
    }

    /// Insert a row, validating arity against the schema.
    pub fn insert(&mut self, table: &str, row: Row) -> Result<(), ExecError> {
        let key = table.to_lowercase();
        let schema = self
            .schema
            .table(table)
            .ok_or_else(|| ExecError::UnknownTable(table.to_string()))?;
        if row.len() != schema.columns.len() {
            return Err(ExecError::Arity {
                table: table.to_string(),
                expected: schema.columns.len(),
                got: row.len(),
            });
        }
        let td = self.tables.get_mut(&key).expect("table map mirrors schema");
        td.rows.push(row);
        self.stats = OnceLock::new();
        self.verdicts = VerdictMemo::default();
        Ok(())
    }

    /// Bulk insert.
    pub fn insert_all(&mut self, table: &str, rows: Vec<Row>) -> Result<(), ExecError> {
        for row in rows {
            self.insert(table, row)?;
        }
        Ok(())
    }

    /// The rows of a table (empty slice if unknown — callers validate first).
    pub fn rows(&self, table: &str) -> Option<&[Row]> {
        self.tables
            .get(&table.to_lowercase())
            .map(|t| t.rows.as_slice())
    }

    /// Exact statistics for this database, collected on first use and cached
    /// until the next insert. An analyzed run resolves its plan estimates
    /// through here when the caller supplies no statistics.
    pub fn cached_stats(&self) -> &crate::stats::DbStats {
        self.stats.get_or_init(|| crate::stats::collect(self))
    }

    /// The EX verdict of `pred_sql` against `gold_sql` on this database,
    /// computed by `verdict` on first request and memoized until the next
    /// [`Database::insert`]. The verdict is `None` when the prediction fails
    /// to execute, otherwise whether the two result sets match.
    ///
    /// The memo is keyed on the two SQL texts alone, so `verdict` must be a
    /// pure function of them and this database's contents. A lookup
    /// allocates nothing, and the lock is not held while `verdict` runs:
    /// threads that miss on the same pair concurrently each compute it and
    /// store the same value.
    pub fn memo_verdict(
        &self,
        gold_sql: &str,
        pred_sql: &str,
        verdict: impl FnOnce() -> Option<bool>,
    ) -> Option<bool> {
        let lock = || {
            self.verdicts
                .0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
        };
        if let Some(&v) = lock().get(gold_sql).and_then(|m| m.get(pred_sql)) {
            return v;
        }
        let v = verdict();
        let mut memo = lock();
        let by_pred = match memo.get_mut(gold_sql) {
            Some(m) => m,
            None => memo.entry(gold_sql.to_owned()).or_default(),
        };
        by_pred.insert(pred_sql.to_owned(), v);
        v
    }

    /// Look up a table schema by name.
    pub fn table_schema(&self, table: &str) -> Option<&TableSchema> {
        self.schema.table(table)
    }

    /// Total rows across all tables (used by content-sampling prompts).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.rows.len()).sum()
    }

    /// First `n` rows of a table, for prompt content sampling.
    pub fn sample_rows(&self, table: &str, n: usize) -> Vec<&Row> {
        self.rows(table)
            .map(|rows| rows.iter().take(n).collect())
            .unwrap_or_default()
    }

    /// Distinct values of one column (used by the simulated LLM's value
    /// linking and by generators picking realistic predicates).
    pub fn column_values(&self, table: &str, column: &str) -> Vec<Value> {
        let Some(schema) = self.table_schema(table) else {
            return Vec::new();
        };
        let Some(idx) = schema.column_index(column) else {
            return Vec::new();
        };
        let Some(rows) = self.rows(table) else {
            return Vec::new();
        };
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for r in rows {
            let v = &r[idx];
            if !v.is_null() && seen.insert(v.group_key()) {
                out.push(v.clone());
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef};

    fn db() -> Database {
        let schema = DbSchema {
            db_id: "d".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("name", ColType::Text),
                ],
                primary_key: vec![0],
            }],
            foreign_keys: vec![],
        };
        Database::new(schema)
    }

    #[test]
    fn insert_and_read_back() {
        let mut d = db();
        d.insert("t", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        assert_eq!(d.rows("t").unwrap().len(), 1);
        assert_eq!(d.total_rows(), 1);
    }

    #[test]
    fn insert_rejects_wrong_arity() {
        let mut d = db();
        assert!(matches!(
            d.insert("t", vec![Value::Int(1)]),
            Err(ExecError::Arity { .. })
        ));
    }

    #[test]
    fn insert_rejects_unknown_table() {
        let mut d = db();
        assert!(matches!(
            d.insert("nope", vec![]),
            Err(ExecError::UnknownTable(_))
        ));
    }

    #[test]
    fn memo_verdict_computes_once_and_clears_on_insert() {
        let mut d = db();
        let calls = std::cell::Cell::new(0);
        let verdict = |v| {
            calls.set(calls.get() + 1);
            v
        };
        assert_eq!(d.memo_verdict("g", "p", || verdict(Some(true))), Some(true));
        assert_eq!(
            d.memo_verdict("g", "p", || verdict(Some(false))),
            Some(true)
        );
        assert_eq!(d.memo_verdict("g", "q", || verdict(None)), None);
        assert_eq!(d.memo_verdict("g", "q", || verdict(Some(true))), None);
        assert_eq!(calls.get(), 2);
        d.insert("t", vec![Value::Int(1), Value::Null]).unwrap();
        assert_eq!(
            d.memo_verdict("g", "p", || verdict(Some(false))),
            Some(false)
        );
        assert_eq!(calls.get(), 3);
    }

    #[test]
    fn a_clone_starts_with_an_empty_memo() {
        let d = db();
        assert_eq!(d.memo_verdict("g", "p", || Some(true)), Some(true));
        let c = d.clone();
        assert_eq!(c.memo_verdict("g", "p", || Some(false)), Some(false));
        assert_eq!(d.memo_verdict("g", "p", || Some(false)), Some(true));
    }

    #[test]
    fn column_values_dedup_and_skip_null() {
        let mut d = db();
        d.insert("t", vec![Value::Int(1), Value::Str("a".into())])
            .unwrap();
        d.insert("t", vec![Value::Int(2), Value::Str("a".into())])
            .unwrap();
        d.insert("t", vec![Value::Int(3), Value::Null]).unwrap();
        let vals = d.column_values("t", "name");
        assert_eq!(vals.len(), 1);
    }
}
