//! Scoring: execution accuracy (EX), exact-set match (EM), validity.

use spider_gen::ExampleItem;
use sqlkit::{exact_set_match, parse_query, Query};
use storage::{execute_query, results_match, Database};

/// Scores for one (gold, prediction) pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ItemScore {
    /// The prediction parsed and executed without error.
    pub valid: bool,
    /// Execution accuracy: result sets match.
    pub ex: bool,
    /// Exact-set match (values masked, Spider-standard).
    pub em: bool,
}

/// Score one predicted SQL string against an item's gold query.
///
/// EM is computed on every call. The EX verdict (does the prediction
/// execute, and do the gold and predicted result sets match?) is memoized
/// on `db` through [`Database::memo_verdict`], keyed on `item.gold_sql` and
/// `pred_sql`: a pair scored before against the same database contents is
/// not executed again. The memo lives as long as `db`'s contents; an insert
/// clears it, and a clone of `db` starts without it.
///
/// On a memo miss, query execution runs in an `eval.execution` span and the
/// result comparison in an `eval.comparison` span; a hit runs neither. Each
/// call adds one to the `eval.verdict_memo.hits` or
/// `eval.verdict_memo.misses` counter.
pub fn score_item(db: &Database, item: &ExampleItem, pred_sql: &str) -> ItemScore {
    let Ok(pred) = parse_query(pred_sql) else {
        return ItemScore::default();
    };
    let em = exact_set_match(&item.gold, &pred);
    let mut missed = false;
    let verdict = db.memo_verdict(&item.gold_sql, pred_sql, || {
        missed = true;
        let (pred_rs, gold_rs) = {
            let _span = obskit::span("eval.execution");
            let pred_rs = execute_query(db, &pred).ok()?;
            let gold_rs = execute_query(db, &item.gold).expect("gold queries always execute");
            (pred_rs, gold_rs)
        };
        let ordered = has_top_level_order(&item.gold);
        let _span = obskit::span("eval.comparison");
        Some(results_match(&gold_rs, &pred_rs, ordered))
    });
    obskit::current().add_counter(
        if missed {
            "eval.verdict_memo.misses"
        } else {
            "eval.verdict_memo.hits"
        },
        1,
    );
    match verdict {
        Some(ex) => ItemScore {
            valid: true,
            ex,
            em,
        },
        // EM can hold even for un-executable predictions in principle, but
        // Spider counts such predictions as failures on both metrics.
        None => ItemScore::default(),
    }
}

fn has_top_level_order(q: &Query) -> bool {
    match q {
        Query::Select(s) => !s.order_by.is_empty(),
        Query::Compound { .. } => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spider_gen::{Benchmark, BenchmarkConfig};

    fn setup() -> Benchmark {
        Benchmark::generate(BenchmarkConfig::tiny())
    }

    #[test]
    fn gold_scores_perfectly_against_itself() {
        let b = setup();
        for item in &b.dev[..10.min(b.dev.len())] {
            let s = score_item(b.db(item), item, &item.gold_sql);
            assert!(s.valid && s.ex && s.em, "{}", item.gold_sql);
        }
    }

    #[test]
    fn garbage_scores_zero() {
        let b = setup();
        let item = &b.dev[0];
        let s = score_item(b.db(item), item, "not sql at all");
        assert!(!s.valid && !s.ex && !s.em);
    }

    #[test]
    fn unknown_table_is_invalid() {
        let b = setup();
        let item = &b.dev[0];
        let s = score_item(b.db(item), item, "SELECT x FROM nonexistent_table");
        assert!(!s.valid);
    }

    /// A dev item whose gold is a bare single-block SELECT (no WHERE, no
    /// grouping) so a `WHERE <tautology>` variant stays comparable.
    fn bare_item(b: &Benchmark) -> &spider_gen::ExampleItem {
        b.dev
            .iter()
            .find(|e| {
                matches!(&e.gold, sqlkit::Query::Select(s)
                    if s.where_cond.is_none()
                        && s.group_by.is_empty()
                        && s.order_by.is_empty()
                        && s.limit.is_none()
                        && !s.distinct)
            })
            .expect("tiny bench has a bare select")
    }

    #[test]
    fn semantically_equal_but_differently_written_passes_ex() {
        let b = setup();
        let item = bare_item(&b);
        // A WHERE-true variant returns the same result but fails EM.
        let variant = format!("{} WHERE 1 = 1", item.gold_sql);
        let s = score_item(b.db(item), item, &variant);
        assert!(s.valid, "{variant}");
        assert!(s.ex, "same result set: {variant}");
        assert!(!s.em, "different clause structure");
    }

    /// Predictions covering every verdict: correct, wrong result,
    /// unparsable, and failing to execute.
    fn probes(item: &spider_gen::ExampleItem) -> [String; 4] {
        [
            item.gold_sql.clone(),
            format!("{} WHERE 1 = 0", item.gold_sql),
            "not sql at all".to_string(),
            "SELECT x FROM nonexistent_table".to_string(),
        ]
    }

    #[test]
    fn memoized_scores_equal_cold_scores() {
        let b = setup();
        let fresh = b.clone();
        for item in &b.dev {
            for pred in probes(item) {
                let cold = score_item(b.db(item), item, &pred);
                let warm = score_item(b.db(item), item, &pred);
                let clone = score_item(fresh.db(item), item, &pred);
                assert_eq!(cold, warm, "{pred}");
                assert_eq!(cold, clone, "{pred}");
            }
        }
    }

    #[test]
    fn memo_counts_hits_and_misses_and_skips_execution_on_a_hit() {
        let b = setup();
        let item = bare_item(&b);
        let rec = obskit::Recorder::enabled();
        {
            let _scope = rec.enter();
            let _score = rec.span("score");
            score_item(b.db(item), item, &item.gold_sql);
            score_item(b.db(item), item, &item.gold_sql);
        }
        let counters = rec.metrics().counters;
        assert_eq!(counters.get("eval.verdict_memo.misses"), Some(&1));
        assert_eq!(counters.get("eval.verdict_memo.hits"), Some(&1));
        let executions = rec
            .events()
            .iter()
            .filter(
                |e| matches!(e, obskit::Event::SpanStart { name, .. } if name == "eval.execution"),
            )
            .count();
        assert_eq!(executions, 1, "a memo hit executes nothing");
    }

    #[test]
    fn insert_clears_the_memo() {
        use storage::{ColType, ColumnDef, DbSchema, TableSchema, Value};
        let mut db = Database::new(DbSchema {
            db_id: "memo".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![ColumnDef::new("x", ColType::Int)],
                primary_key: vec![0],
            }],
            foreign_keys: vec![],
        });
        db.insert("t", vec![Value::Int(1)]).unwrap();
        let mut item = setup().dev[0].clone();
        item.db_id = "memo".into();
        item.gold_sql = "SELECT count(*) FROM t".into();
        item.gold = parse_query(&item.gold_sql).unwrap();
        // One row holding 1: count(*) and max(x) agree.
        let pred = "SELECT max(x) FROM t";
        assert!(score_item(&db, &item, pred).ex);
        db.insert("t", vec![Value::Int(5)]).unwrap();
        // Two rows, max 5: the verdict must follow the new contents.
        assert!(!score_item(&db, &item, pred).ex);
    }

    #[test]
    fn concurrent_scoring_of_one_pair_agrees() {
        let b = setup();
        for item in &b.dev[..8] {
            for pred in probes(item) {
                let barrier = std::sync::Barrier::new(2);
                let [x, y] = std::thread::scope(|s| {
                    let score = || {
                        barrier.wait();
                        score_item(b.db(item), item, &pred)
                    };
                    let h = [s.spawn(score), s.spawn(score)];
                    h.map(|h| h.join().unwrap())
                });
                assert_eq!(x, y, "{pred}");
                assert_eq!(x, score_item(b.clone().db(item), item, &pred), "{pred}");
            }
        }
    }

    #[test]
    fn wrong_result_fails_ex_but_may_be_valid() {
        let b = setup();
        let item = bare_item(&b);
        let variant = format!("{} WHERE 1 = 0", item.gold_sql);
        let s = score_item(b.db(item), item, &variant);
        assert!(s.valid && !s.ex, "{variant}");
    }
}
