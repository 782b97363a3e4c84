//! Property tests for executor invariants on randomly populated databases.

use proptest::prelude::*;
use sqlkit::parse_query;
use storage::schema::{ColType, ColumnDef, DbSchema, ForeignKey, TableSchema};
use storage::{execute_query, execute_query_with, Database, ExecOptions, JoinStrategy, Value};

/// Fixed two-table schema; rows are generated.
fn schema() -> DbSchema {
    DbSchema {
        db_id: "prop".into(),
        tables: vec![
            TableSchema {
                name: "person".into(),
                columns: vec![
                    ColumnDef::new("id", ColType::Int),
                    ColumnDef::new("name", ColType::Text),
                    ColumnDef::new("age", ColType::Int),
                ],
                primary_key: vec![0],
            },
            TableSchema {
                name: "order_item".into(),
                columns: vec![
                    ColumnDef::new("oid", ColType::Int),
                    ColumnDef::new("person_id", ColType::Int),
                    ColumnDef::new("amount", ColType::Float),
                ],
                primary_key: vec![0],
            },
        ],
        foreign_keys: vec![ForeignKey {
            from_table: "order_item".into(),
            from_column: "person_id".into(),
            to_table: "person".into(),
            to_column: "id".into(),
        }],
    }
}

fn value_row() -> impl Strategy<Value = (i64, String, Option<i64>)> {
    (
        0i64..50,
        "[a-e]{1,4}",
        proptest::option::weighted(0.9, 0i64..90),
    )
}

fn db_strategy() -> impl Strategy<Value = Database> {
    (
        proptest::collection::vec(value_row(), 0..25),
        proptest::collection::vec((0i64..40, 0i64..50, 0u32..100_000), 0..25),
    )
        .prop_map(|(people, orders)| {
            let mut db = Database::new(schema());
            for (i, (id, name, age)) in people.into_iter().enumerate() {
                db.insert(
                    "person",
                    vec![
                        Value::Int(id + i as i64 * 100), // unique-ish ids
                        Value::Str(name),
                        age.map(Value::Int).unwrap_or(Value::Null),
                    ],
                )
                .unwrap();
            }
            for (i, (oid, pid, cents)) in orders.into_iter().enumerate() {
                db.insert(
                    "order_item",
                    vec![
                        Value::Int(oid + i as i64 * 100),
                        Value::Int(pid),
                        Value::Float(cents as f64 / 100.0),
                    ],
                )
                .unwrap();
            }
            db
        })
}

fn threshold() -> impl Strategy<Value = i64> {
    0i64..90
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// DISTINCT is idempotent: applying it to an already-distinct projection
    /// changes nothing.
    #[test]
    fn distinct_idempotent(db in db_strategy()) {
        let q1 = parse_query("SELECT DISTINCT name FROM person").unwrap();
        let r1 = execute_query(&db, &q1).unwrap();
        let mut seen = std::collections::HashSet::new();
        for row in &r1.rows {
            prop_assert!(seen.insert(format!("{:?}", row)), "duplicate after DISTINCT");
        }
    }

    /// Adding a conjunct can only shrink the result.
    #[test]
    fn where_is_monotone(db in db_strategy(), t in threshold()) {
        let q_all = parse_query(&format!("SELECT id FROM person WHERE age > {t}")).unwrap();
        let q_narrow = parse_query(&format!("SELECT id FROM person WHERE age > {t} AND name LIKE 'a%'")).unwrap();
        let all = execute_query(&db, &q_all).unwrap();
        let narrow = execute_query(&db, &q_narrow).unwrap();
        prop_assert!(narrow.rows.len() <= all.rows.len());
    }

    /// UNION is commutative under set semantics.
    #[test]
    fn union_commutative(db in db_strategy(), t in threshold()) {
        let ab = parse_query(&format!(
            "SELECT name FROM person WHERE age > {t} UNION SELECT name FROM person WHERE age <= {t}"
        )).unwrap();
        let ba = parse_query(&format!(
            "SELECT name FROM person WHERE age <= {t} UNION SELECT name FROM person WHERE age > {t}"
        )).unwrap();
        let r1 = execute_query(&db, &ab).unwrap();
        let r2 = execute_query(&db, &ba).unwrap();
        prop_assert!(storage::results_match(&r1, &r2, false));
    }

    /// INTERSECT of disjoint predicates is empty; EXCEPT removes everything
    /// when subtracting the full set.
    #[test]
    fn set_op_identities(db in db_strategy(), t in threshold()) {
        let inter = parse_query(&format!(
            "SELECT id FROM person WHERE age > {t} INTERSECT SELECT id FROM person WHERE age <= {t}"
        )).unwrap();
        prop_assert!(execute_query(&db, &inter).unwrap().rows.is_empty());

        let except = parse_query("SELECT id FROM person EXCEPT SELECT id FROM person").unwrap();
        prop_assert!(execute_query(&db, &except).unwrap().rows.is_empty());
    }

    /// LIMIT n yields at most n rows and is a prefix of the unlimited result.
    #[test]
    fn limit_bounds(db in db_strategy(), n in 0u64..10) {
        let q_lim = parse_query(&format!("SELECT id FROM person ORDER BY id ASC LIMIT {n}")).unwrap();
        let q_all = parse_query("SELECT id FROM person ORDER BY id ASC").unwrap();
        let lim = execute_query(&db, &q_lim).unwrap();
        let all = execute_query(&db, &q_all).unwrap();
        prop_assert!(lim.rows.len() <= n as usize);
        prop_assert_eq!(&all.rows[..lim.rows.len()], &lim.rows[..]);
    }

    /// Hash join and nested-loop join always agree.
    #[test]
    fn join_strategies_agree(db in db_strategy()) {
        let q = parse_query(
            "SELECT T1.name, count(*) FROM person AS T1 JOIN order_item AS T2 ON T1.id = T2.person_id \
             GROUP BY T1.id ORDER BY T1.name ASC, count(*) DESC"
        ).unwrap();
        let h = execute_query_with(&db, &q, ExecOptions { join: JoinStrategy::Hash }).unwrap();
        let n = execute_query_with(&db, &q, ExecOptions { join: JoinStrategy::NestedLoop }).unwrap();
        prop_assert!(storage::results_match(&h, &n, true));
    }

    /// COUNT(*) equals the number of rows the same WHERE returns.
    #[test]
    fn count_consistent_with_filter(db in db_strategy(), t in threshold()) {
        let qc = parse_query(&format!("SELECT count(*) FROM person WHERE age > {t}")).unwrap();
        let qr = parse_query(&format!("SELECT id FROM person WHERE age > {t}")).unwrap();
        let c = execute_query(&db, &qc).unwrap();
        let r = execute_query(&db, &qr).unwrap();
        match &c.rows[0][0] {
            Value::Int(n) => prop_assert_eq!(*n as usize, r.rows.len()),
            other => prop_assert!(false, "count returned {other:?}"),
        }
    }

    /// Aggregates respect NULL semantics: count(age) <= count(*).
    #[test]
    fn count_col_le_count_star(db in db_strategy()) {
        let q = parse_query("SELECT count(age), count(*) FROM person").unwrap();
        let r = execute_query(&db, &q).unwrap();
        let (a, b) = (&r.rows[0][0], &r.rows[0][1]);
        if let (Value::Int(a), Value::Int(b)) = (a, b) {
            prop_assert!(a <= b);
        } else {
            prop_assert!(false, "unexpected types");
        }
    }
}
