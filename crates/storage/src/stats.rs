//! Table and column statistics for `EXPLAIN` cardinality estimates.
//!
//! At current Spider-subset scale every database fits in memory, so the
//! collector computes *exact* statistics in one pass: row counts, exact NDV,
//! min/max, null fractions, and a log2 histogram of value byte-widths per
//! column (reusing [`obskit::Histogram`] so the width distribution shares the
//! fleet's histogram bucketing). The `explain` module consumes these for
//! cardinality estimates; execution-time observations (predicate
//! selectivities, per-operator row counts) are accumulated separately into
//! the current obskit recorder by [`crate::explain::Plan::record_observations`].
//!
//! The JSONL serialization is the committed stats interchange format: one
//! header line identifying the database, then one line per table. The format
//! round-trips byte-exactly (`from_jsonl(to_jsonl(s)) == s` and re-serializing
//! yields identical bytes), which `scripts/check.sh` gates.

use crate::db::Database;
use crate::value::Value;
use obskit::Histogram;
use std::fmt::Write as _;

/// Exact statistics for one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Lowercased column name.
    pub name: String,
    /// Number of distinct non-null values.
    pub ndv: u64,
    /// Number of NULLs.
    pub nulls: u64,
    /// Smallest non-null value (SQL comparison order), if any.
    pub min: Option<Value>,
    /// Largest non-null value, if any.
    pub max: Option<Value>,
    /// Log2 histogram of value byte-widths (NULL counts as width 0).
    pub width: Histogram,
}

/// Statistics for one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableStats {
    /// Lowercased table name.
    pub name: String,
    /// Row count.
    pub rows: u64,
    /// Per-column stats, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Look up a column's stats by (case-insensitive) name.
    pub fn column(&self, name: &str) -> Option<&ColumnStats> {
        let lower = name.to_lowercase();
        self.columns.iter().find(|c| c.name == lower)
    }
}

impl ColumnStats {
    /// Fraction of rows that are NULL in this column, given the table's
    /// row count (0.0 for an empty table).
    pub fn null_fraction(&self, table_rows: u64) -> f64 {
        if table_rows == 0 {
            0.0
        } else {
            self.nulls as f64 / table_rows as f64
        }
    }
}

/// Statistics for a whole database.
#[derive(Debug, Clone, PartialEq)]
pub struct DbStats {
    /// Database id (from the schema).
    pub db_id: String,
    /// Per-table stats, in schema order.
    pub tables: Vec<TableStats>,
}

impl DbStats {
    /// Look up a table's stats by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Option<&TableStats> {
        let lower = name.to_lowercase();
        self.tables.iter().find(|t| t.name == lower)
    }
}

/// Byte width of a value as stored (NULL → 0, numbers → 8, strings → UTF-8
/// length). Feeds the per-column width histograms.
fn value_width(v: &Value) -> u64 {
    match v {
        Value::Null => 0,
        Value::Int(_) | Value::Float(_) => 8,
        Value::Str(s) => s.len() as u64,
    }
}

/// Compute exact statistics for every table and column of `db`, in schema
/// order (deterministic output for a deterministic database).
pub fn collect(db: &Database) -> DbStats {
    let mut tables = Vec::with_capacity(db.schema.tables.len());
    for ts in &db.schema.tables {
        let rows = db.rows(&ts.name).unwrap_or(&[]);
        let mut columns = Vec::with_capacity(ts.columns.len());
        for (ci, col) in ts.columns.iter().enumerate() {
            let mut distinct = std::collections::BTreeSet::new();
            let mut nulls = 0u64;
            let mut min: Option<&Value> = None;
            let mut max: Option<&Value> = None;
            let mut width = Histogram::default();
            for row in rows {
                let v = &row[ci];
                width.record(value_width(v));
                if v.is_null() {
                    nulls += 1;
                    continue;
                }
                distinct.insert(v.group_key());
                min = Some(match min {
                    Some(m) if m.total_cmp(v) != std::cmp::Ordering::Greater => m,
                    _ => v,
                });
                max = Some(match max {
                    Some(m) if m.total_cmp(v) != std::cmp::Ordering::Less => m,
                    _ => v,
                });
            }
            columns.push(ColumnStats {
                name: col.name.to_lowercase(),
                ndv: distinct.len() as u64,
                nulls,
                min: min.cloned(),
                max: max.cloned(),
                width,
            });
        }
        tables.push(TableStats {
            name: ts.name.to_lowercase(),
            rows: rows.len() as u64,
            columns,
        });
    }
    DbStats {
        db_id: db.schema.db_id.clone(),
        tables,
    }
}

// ---- JSONL serialization ----

/// Tagged string encoding for an optional value: `""` = none, else the first
/// two characters are a type tag (`i:` int, `f:` float, `s:` string). Floats
/// use `{:?}` (shortest round-trip representation).
fn encode_value(v: &Option<Value>) -> String {
    match v {
        None => String::new(),
        Some(Value::Int(i)) => format!("i:{i}"),
        Some(Value::Float(f)) => format!("f:{f:?}"),
        Some(Value::Str(s)) => format!("s:{s}"),
        Some(Value::Null) => String::new(),
    }
}

fn decode_value(s: &str) -> Result<Option<Value>, String> {
    if s.is_empty() {
        return Ok(None);
    }
    let (tag, rest) = s.split_at(2.min(s.len()));
    match tag {
        "i:" => rest
            .parse::<i64>()
            .map(|i| Some(Value::Int(i)))
            .map_err(|e| format!("bad int value {rest:?}: {e}")),
        "f:" => rest
            .parse::<f64>()
            .map(|f| Some(Value::Float(f)))
            .map_err(|e| format!("bad float value {rest:?}: {e}")),
        "s:" => Ok(Some(Value::Str(rest.to_string()))),
        _ => Err(format!("bad value tag in {s:?}")),
    }
}

fn escape_json(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn hist_json(h: &Histogram, out: &mut String) {
    let _ = write!(
        out,
        "{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        h.count(),
        h.sum(),
        h.min(),
        h.max()
    );
    for (i, (bucket, n)) in h.occupied().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "[{bucket},{n}]");
    }
    out.push_str("]}");
}

impl DbStats {
    /// Serialize as JSONL: a `{"db":...,"version":1}` header line followed by
    /// one line per table.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        out.push_str("{\"db\":");
        escape_json(&self.db_id, &mut out);
        out.push_str(",\"version\":1}\n");
        for t in &self.tables {
            out.push_str("{\"table\":");
            escape_json(&t.name, &mut out);
            let _ = write!(out, ",\"rows\":{},\"columns\":[", t.rows);
            for (i, c) in t.columns.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str("{\"name\":");
                escape_json(&c.name, &mut out);
                let _ = write!(out, ",\"ndv\":{},\"nulls\":{},\"min\":", c.ndv, c.nulls);
                escape_json(&encode_value(&c.min), &mut out);
                out.push_str(",\"max\":");
                escape_json(&encode_value(&c.max), &mut out);
                out.push_str(",\"width\":");
                hist_json(&c.width, &mut out);
                out.push('}');
            }
            out.push_str("]}\n");
        }
        out
    }

    /// Parse the JSONL form back. Strict: unknown structure is an error, and
    /// a successful parse re-serializes to identical bytes.
    pub fn from_jsonl(text: &str) -> Result<DbStats, String> {
        let mut lines = text.lines().filter(|l| !l.trim().is_empty());
        let header = json::parse(lines.next().ok_or("empty stats input")?)?;
        let db_id = header
            .get("db")
            .and_then(json::Json::as_str)
            .ok_or("header line missing \"db\"")?
            .to_string();
        let mut tables = Vec::new();
        for line in lines {
            let obj = json::parse(line)?;
            let name = obj
                .get("table")
                .and_then(json::Json::as_str)
                .ok_or("table line missing \"table\"")?
                .to_string();
            let rows = obj
                .get("rows")
                .and_then(json::Json::as_u64)
                .ok_or("table line missing \"rows\"")?;
            let mut columns = Vec::new();
            for c in obj
                .get("columns")
                .and_then(json::Json::as_array)
                .ok_or("table line missing \"columns\"")?
            {
                let get_str = |k: &str| {
                    c.get(k)
                        .and_then(json::Json::as_str)
                        .ok_or_else(|| format!("column missing {k:?}"))
                };
                let get_u64 = |k: &str| {
                    c.get(k)
                        .and_then(json::Json::as_u64)
                        .ok_or_else(|| format!("column missing {k:?}"))
                };
                let w = c.get("width").ok_or("column missing \"width\"")?;
                let wu = |k: &str| {
                    w.get(k)
                        .and_then(json::Json::as_u64)
                        .ok_or_else(|| format!("width missing {k:?}"))
                };
                let mut buckets = Vec::new();
                for pair in w
                    .get("buckets")
                    .and_then(json::Json::as_array)
                    .ok_or("width missing \"buckets\"")?
                {
                    let pair = pair.as_array().ok_or("bucket entry must be an array")?;
                    match (
                        pair.first().and_then(json::Json::as_u64),
                        pair.get(1).and_then(json::Json::as_u64),
                    ) {
                        (Some(b), Some(n)) if pair.len() == 2 => buckets.push((b as u32, n)),
                        _ => return Err("bad bucket entry".to_string()),
                    }
                }
                columns.push(ColumnStats {
                    name: get_str("name")?.to_string(),
                    ndv: get_u64("ndv")?,
                    nulls: get_u64("nulls")?,
                    min: decode_value(get_str("min")?)?,
                    max: decode_value(get_str("max")?)?,
                    width: Histogram::from_parts(
                        wu("count")?,
                        wu("sum")?,
                        wu("min")?,
                        wu("max")?,
                        &buckets,
                    ),
                });
            }
            tables.push(TableStats {
                name,
                rows,
                columns,
            });
        }
        Ok(DbStats { db_id, tables })
    }
}

/// Minimal strict JSON parser — just enough for the stats interchange format
/// (objects, arrays, strings, unsigned integers). Numbers keep their raw
/// text so `u64` values round-trip without a float detour.
mod json {
    /// A parsed JSON value.
    #[derive(Debug, Clone, PartialEq)]
    pub enum Json {
        /// A string.
        Str(String),
        /// A number, kept as raw text.
        Num(String),
        /// An array.
        Arr(Vec<Json>),
        /// An object (insertion order preserved).
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        pub fn get(&self, key: &str) -> Option<&Json> {
            match self {
                Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
                _ => None,
            }
        }

        pub fn as_str(&self) -> Option<&str> {
            match self {
                Json::Str(s) => Some(s),
                _ => None,
            }
        }

        pub fn as_u64(&self) -> Option<u64> {
            match self {
                Json::Num(raw) => raw.parse().ok(),
                _ => None,
            }
        }

        pub fn as_array(&self) -> Option<&[Json]> {
            match self {
                Json::Arr(items) => Some(items),
                _ => None,
            }
        }
    }

    pub fn parse(line: &str) -> Result<Json, String> {
        let chars: Vec<char> = line.chars().collect();
        let mut pos = 0usize;
        let v = value(&chars, &mut pos)?;
        skip_ws(&chars, &mut pos);
        if pos != chars.len() {
            return Err(format!("trailing characters at {pos} in {line:?}"));
        }
        Ok(v)
    }

    fn skip_ws(c: &[char], pos: &mut usize) {
        while *pos < c.len() && c[*pos].is_ascii_whitespace() {
            *pos += 1;
        }
    }

    fn expect(c: &[char], pos: &mut usize, ch: char) -> Result<(), String> {
        skip_ws(c, pos);
        if c.get(*pos) == Some(&ch) {
            *pos += 1;
            Ok(())
        } else {
            Err(format!("expected {ch:?} at {pos}", pos = *pos))
        }
    }

    fn value(c: &[char], pos: &mut usize) -> Result<Json, String> {
        skip_ws(c, pos);
        match c.get(*pos) {
            Some('{') => object(c, pos),
            Some('[') => array(c, pos),
            Some('"') => Ok(Json::Str(string(c, pos)?)),
            Some(ch) if ch.is_ascii_digit() || *ch == '-' => Ok(Json::Num(number(c, pos))),
            other => Err(format!("unexpected {other:?} at {pos}", pos = *pos)),
        }
    }

    fn object(c: &[char], pos: &mut usize) -> Result<Json, String> {
        expect(c, pos, '{')?;
        let mut fields = Vec::new();
        skip_ws(c, pos);
        if c.get(*pos) == Some(&'}') {
            *pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            skip_ws(c, pos);
            let key = string(c, pos)?;
            expect(c, pos, ':')?;
            fields.push((key, value(c, pos)?));
            skip_ws(c, pos);
            match c.get(*pos) {
                Some(',') => *pos += 1,
                Some('}') => {
                    *pos += 1;
                    return Ok(Json::Obj(fields));
                }
                other => return Err(format!("expected ',' or '}}', got {other:?}")),
            }
        }
    }

    fn array(c: &[char], pos: &mut usize) -> Result<Json, String> {
        expect(c, pos, '[')?;
        let mut items = Vec::new();
        skip_ws(c, pos);
        if c.get(*pos) == Some(&']') {
            *pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(value(c, pos)?);
            skip_ws(c, pos);
            match c.get(*pos) {
                Some(',') => *pos += 1,
                Some(']') => {
                    *pos += 1;
                    return Ok(Json::Arr(items));
                }
                other => return Err(format!("expected ',' or ']', got {other:?}")),
            }
        }
    }

    fn string(c: &[char], pos: &mut usize) -> Result<String, String> {
        if c.get(*pos) != Some(&'"') {
            return Err(format!("expected string at {pos}", pos = *pos));
        }
        *pos += 1;
        let mut out = String::new();
        while let Some(&ch) = c.get(*pos) {
            *pos += 1;
            match ch {
                '"' => return Ok(out),
                '\\' => {
                    let esc = c.get(*pos).copied().ok_or("truncated escape")?;
                    *pos += 1;
                    match esc {
                        '"' => out.push('"'),
                        '\\' => out.push('\\'),
                        '/' => out.push('/'),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'u' => {
                            let hex: String = c.iter().skip(*pos).take(4).collect();
                            if hex.len() != 4 {
                                return Err("truncated \\u escape".to_string());
                            }
                            *pos += 4;
                            let code = u32::from_str_radix(&hex, 16).map_err(|e| format!("{e}"))?;
                            out.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => return Err(format!("bad escape \\{other}")),
                    }
                }
                other => out.push(other),
            }
        }
        Err("unterminated string".to_string())
    }

    fn number(c: &[char], pos: &mut usize) -> String {
        let start = *pos;
        if c.get(*pos) == Some(&'-') {
            *pos += 1;
        }
        while c
            .get(*pos)
            .is_some_and(|ch| ch.is_ascii_digit() || matches!(ch, '.' | 'e' | 'E' | '+' | '-'))
        {
            *pos += 1;
        }
        c[start..*pos].iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColType, ColumnDef, DbSchema, TableSchema};

    fn db() -> Database {
        let schema = DbSchema {
            db_id: "stats_db".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("name", ColType::Text),
                    ColumnDef::new("score", ColType::Float),
                ],
                primary_key: vec![0],
            }],
            foreign_keys: vec![],
        };
        let mut d = Database::new(schema);
        let rows = [
            (1, Some("alpha"), Some(1.5)),
            (2, Some("beta"), None),
            (3, None, Some(2.5)),
            (4, Some("alpha"), Some(1.5)),
        ];
        for (id, name, score) in rows {
            d.insert(
                "t",
                vec![
                    Value::Int(id),
                    name.map(|s| Value::Str(s.into())).unwrap_or(Value::Null),
                    score.map(Value::Float).unwrap_or(Value::Null),
                ],
            )
            .unwrap();
        }
        d
    }

    #[test]
    fn collect_computes_exact_stats() {
        let s = collect(&db());
        assert_eq!(s.db_id, "stats_db");
        let t = s.table("t").unwrap();
        assert_eq!(t.rows, 4);
        let id = t.column("id").unwrap();
        assert_eq!(id.ndv, 4);
        assert_eq!(id.nulls, 0);
        assert_eq!(id.min, Some(Value::Int(1)));
        assert_eq!(id.max, Some(Value::Int(4)));
        let name = t.column("name").unwrap();
        assert_eq!(name.ndv, 2);
        assert_eq!(name.nulls, 1);
        assert!((name.null_fraction(t.rows) - 0.25).abs() < 1e-12);
        assert_eq!(name.min, Some(Value::Str("alpha".into())));
        assert_eq!(name.max, Some(Value::Str("beta".into())));
        // Width histogram saw every row (NULL recorded as width 0).
        assert_eq!(name.width.count(), 4);
    }

    #[test]
    fn jsonl_round_trips_byte_exactly() {
        let s = collect(&db());
        let text = s.to_jsonl();
        let back = DbStats::from_jsonl(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_jsonl(), text, "re-serialization must be identical");
    }

    #[test]
    fn jsonl_survives_awkward_identifiers() {
        let schema = DbSchema {
            db_id: "we\"ird\\db".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![ColumnDef::new("c", ColType::Text)],
                primary_key: vec![],
            }],
            foreign_keys: vec![],
        };
        let mut d = Database::new(schema);
        d.insert("t", vec![Value::Str("a\"b\\c\nd\te".into())])
            .unwrap();
        let s = collect(&d);
        let text = s.to_jsonl();
        let back = DbStats::from_jsonl(&text).unwrap();
        assert_eq!(back, s);
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn from_jsonl_rejects_garbage() {
        assert!(DbStats::from_jsonl("").is_err());
        assert!(DbStats::from_jsonl("not json\n").is_err());
        assert!(DbStats::from_jsonl("{\"db\":\"x\"}\n{\"rows\":1}\n").is_err());
    }

    #[test]
    fn empty_table_has_empty_stats() {
        let schema = DbSchema {
            db_id: "e".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![ColumnDef::new("c", ColType::Int)],
                primary_key: vec![],
            }],
            foreign_keys: vec![],
        };
        let d = Database::new(schema);
        let s = collect(&d);
        let c = &s.tables[0].columns[0];
        assert_eq!((c.ndv, c.nulls), (0, 0));
        assert_eq!(c.min, None);
        assert_eq!(c.null_fraction(0), 0.0);
        let text = s.to_jsonl();
        assert_eq!(DbStats::from_jsonl(&text).unwrap().to_jsonl(), text);
    }
}
