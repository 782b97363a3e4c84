//! Volcano-style tree-walking executor for the Spider SQL subset.
//!
//! The executor materializes intermediate relations (the Spider databases are
//! small) and supports correlated subqueries via a stack of outer row scopes.
//! A named-table scan borrows the row store in place, so a base row is cloned
//! only when it survives WHERE or enters a join result, and WHERE predicates
//! compare borrowed cells. Join strategy is configurable (nested-loop vs
//! hash) so the `ablate_join` bench can compare them.

use crate::db::Database;
use crate::error::{ExecError, ExecResult};
use crate::explain::{Plan, Probe, SelectIds};
use crate::value::{Row, Value};
use sqlkit::ast::*;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::HashMap;

/// The result of executing a query.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    /// Output column labels.
    pub columns: Vec<String>,
    /// Output rows.
    pub rows: Vec<Row>,
}

/// Join algorithm choice.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JoinStrategy {
    /// Build a hash table on equi-join keys (default).
    #[default]
    Hash,
    /// Quadratic nested-loop join.
    NestedLoop,
}

/// Executor configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecOptions {
    /// Join strategy.
    pub join: JoinStrategy,
}

/// Execute a query against a database with default options.
pub fn execute_query(db: &Database, q: &Query) -> ExecResult<ResultSet> {
    execute_query_with(db, q, ExecOptions::default())
}

/// Execute with explicit options.
pub fn execute_query_with(db: &Database, q: &Query, opts: ExecOptions) -> ExecResult<ResultSet> {
    let ex = Executor {
        db,
        opts,
        rows_scanned: std::cell::Cell::new(0),
        probe: None,
    };
    let out = ex.run(q);
    let g = obskit::current();
    g.add_counter("storage.statements", 1);
    g.add_counter("storage.rows_scanned", ex.rows_scanned.get());
    if out.is_err() {
        g.add_counter("storage.errors", 1);
    }
    out
}

/// Result of an analyzed execution: the rows plus the annotated plan tree.
#[derive(Debug, Clone)]
pub struct Analyzed {
    /// The query result (identical to [`execute_query_with`] output).
    pub result: ResultSet,
    /// Plan tree with actual row counts, invocations and exact self-times.
    pub plan: Plan,
}

/// Execute with per-operator instrumentation (EXPLAIN ANALYZE).
///
/// Rows are identical to [`execute_query_with`] by construction — same code
/// path, plus probe bookkeeping. On success, the plan's operator self-times
/// partition the statement's wall-clock exactly (`plan.total_self_ns()` *is*
/// the measured total), and under an enabled recorder a
/// `storage.exec` span is emitted with exactly that duration, plus
/// per-operator observation metrics ([`Plan::record_observations`]).
/// Pass [`crate::stats::DbStats`] to sharpen the plan's cardinality
/// estimates.
pub fn execute_query_analyzed(
    db: &Database,
    q: &Query,
    opts: ExecOptions,
    stats: Option<&crate::stats::DbStats>,
) -> ExecResult<Analyzed> {
    let stats = stats.unwrap_or_else(|| db.cached_stats());
    let (mut nodes, root, map) = crate::explain::build_plan(db, q, opts, Some(stats));
    let probe = Probe::new(map, nodes.len());
    let (out, rows_scanned) = {
        let ex = Executor {
            db,
            opts,
            rows_scanned: std::cell::Cell::new(0),
            probe: Some(&probe),
        };
        probe.enter(root);
        let out = ex.run(q);
        probe.exit();
        if let Ok(rs) = &out {
            // The synthetic root passes the final result through unchanged.
            probe.rows(root, rs.rows.len() as u64, rs.rows.len() as u64);
        }
        (out, ex.rows_scanned.get())
    };
    for (node, st) in nodes.iter_mut().zip(probe.into_stats()) {
        node.stats = st;
    }
    let plan = Plan { nodes, root };
    let g = obskit::current();
    if g.is_enabled() {
        g.add_counter("storage.statements", 1);
        g.add_counter("storage.rows_scanned", rows_scanned);
        if out.is_err() {
            g.add_counter("storage.errors", 1);
        } else {
            g.record_span("storage.exec", plan.total_self_ns());
            plan.record_observations(&g);
        }
    }
    Ok(Analyzed { result: out?, plan })
}

/// An intermediate relation: labelled columns plus rows. A named-table
/// scan borrows its rows from the row store; every other operator owns the
/// rows it produces.
#[derive(Debug, Clone)]
struct Relation<'a> {
    /// (binding, column) labels, both lowercase.
    cols: Vec<(String, String)>,
    rows: Cow<'a, [Row]>,
}

/// One outer scope for correlated subqueries.
#[derive(Clone, Copy)]
struct OuterScope<'a> {
    cols: &'a [(String, String)],
    row: &'a Row,
}

/// Evaluation context: a single row or a group of rows (aggregate context).
enum Ctx<'a> {
    Row {
        cols: &'a [(String, String)],
        row: &'a Row,
    },
    Group {
        cols: &'a [(String, String)],
        rows: &'a [Row],
    },
}

impl<'a> Ctx<'a> {
    fn cols(&self) -> &'a [(String, String)] {
        match self {
            Ctx::Row { cols, .. } | Ctx::Group { cols, .. } => cols,
        }
    }

    /// The representative row for bare-column evaluation (SQLite picks an
    /// arbitrary row of the group; we pick the first).
    fn repr_row(&self) -> Option<&'a Row> {
        match self {
            Ctx::Row { row, .. } => Some(row),
            Ctx::Group { rows, .. } => rows.first(),
        }
    }
}

struct Executor<'a> {
    db: &'a Database,
    opts: ExecOptions,
    /// Base-table rows read by scans (telemetry only).
    rows_scanned: std::cell::Cell<u64>,
    /// Per-operator probe for analyzed runs; `None` on the normal path, in
    /// which case every probe hook is a single branch.
    probe: Option<&'a Probe>,
}

/// RAII guard for a probe `enter`: exits on drop, so early `?` returns keep
/// the probe stack balanced (the time partition stays exact even when a
/// statement errors out mid-operator).
struct ProbeGuard<'p>(Option<&'p Probe>);

impl Drop for ProbeGuard<'_> {
    fn drop(&mut self) {
        if let Some(p) = self.0 {
            p.exit();
        }
    }
}

impl<'a> Executor<'a> {
    fn run(&self, q: &Query) -> ExecResult<ResultSet> {
        self.exec_query(q, &[])
    }

    // ---- probe hooks (no-ops unless this is an analyzed run) ----

    fn pg(&self, id: Option<usize>) -> ProbeGuard<'a> {
        match (self.probe, id) {
            (Some(p), Some(id)) => {
                p.enter(id);
                ProbeGuard(Some(p))
            }
            _ => ProbeGuard(None),
        }
    }

    fn prows(&self, id: Option<usize>, rows_in: usize, rows_out: usize) {
        if let (Some(p), Some(id)) = (self.probe, id) {
            p.rows(id, rows_in as u64, rows_out as u64);
        }
    }

    fn sel_ids(&self, s: &Select) -> SelectIds {
        self.probe
            .and_then(|p| p.map.select_ids(s))
            .unwrap_or_default()
    }

    fn scan_pid(&self, t: &TableRef) -> Option<usize> {
        self.probe.and_then(|p| p.map.scan_id(t))
    }

    fn join_pid(&self, j: &Join) -> Option<usize> {
        self.probe.and_then(|p| p.map.join_id(j))
    }

    fn setop_pid(&self, q: &Query) -> Option<usize> {
        self.probe.and_then(|p| p.map.setop_id(q))
    }

    fn subq_pid(&self, q: &Query) -> Option<usize> {
        self.probe.and_then(|p| p.map.subq_id(q))
    }

    fn exec_query(&self, q: &Query, outers: &[OuterScope<'_>]) -> ExecResult<ResultSet> {
        match q {
            Query::Select(s) => self.exec_select(s, outers),
            Query::Compound { op, left, right } => {
                let l = self.exec_query(left, outers)?;
                let r = self.exec_query(right, outers)?;
                if l.columns.len() != r.columns.len() {
                    return Err(ExecError::SetOpArity(l.columns.len(), r.columns.len()));
                }
                let pid = self.setop_pid(q);
                let (lin, rin) = (l.rows.len(), r.rows.len());
                let out = {
                    let _g = self.pg(pid);
                    apply_set_op(*op, l, r)
                };
                self.prows(pid, lin + rin, out.rows.len());
                Ok(out)
            }
        }
    }

    fn exec_select(&self, s: &Select, outers: &[OuterScope<'_>]) -> ExecResult<ResultSet> {
        let pids = self.sel_ids(s);

        // 1. FROM. Named tables are borrowed from the row store.
        let rel = match &s.from {
            Some(from) => self.exec_from(from, outers)?,
            None => Relation {
                cols: Vec::new(),
                rows: Cow::Owned(vec![Vec::new()]),
            },
        };

        // 2. WHERE: only surviving rows are cloned.
        let Relation {
            cols: rel_cols,
            rows: filtered,
        } = match &s.where_cond {
            Some(cond) => {
                let g = self.pg(pids.filter);
                let mut kept: Vec<Row> = Vec::new();
                for row in rel.rows.iter() {
                    let ctx = Ctx::Row {
                        cols: &rel.cols,
                        row,
                    };
                    if self.eval_cond(cond, &ctx, outers)? == Some(true) {
                        kept.push(row.clone());
                    }
                }
                drop(g);
                self.prows(pids.filter, rel.rows.len(), kept.len());
                Relation {
                    cols: rel.cols,
                    rows: Cow::Owned(kept),
                }
            }
            None => rel,
        };

        let is_aggregate = !s.group_by.is_empty()
            || s.items.iter().any(|i| i.expr.contains_aggregate())
            || s.order_by.iter().any(|k| k.expr.contains_aggregate())
            || s.having.is_some();

        // 3. Project (+ group / having) producing rows with sort keys.
        let mut columns: Vec<String> = Vec::with_capacity(s.items.len());
        let mut first = true;
        let mut keyed: Vec<(Vec<Value>, Row)> = Vec::new();

        if is_aggregate {
            let n_in = filtered.len();
            let groups = {
                let _g = self.pg(pids.group);
                self.build_groups(s, &rel_cols, filtered, outers)?
            };
            self.prows(pids.group, n_in, groups.len());
            let mut n_kept = 0usize;
            for group in &groups {
                let ctx = Ctx::Group {
                    cols: &rel_cols,
                    rows: group,
                };
                if let Some(h) = &s.having {
                    let keep = {
                        let _g = self.pg(pids.having);
                        self.eval_cond(h, &ctx, outers)?
                    };
                    if keep != Some(true) {
                        continue;
                    }
                }
                n_kept += 1;
                let (names, row) = {
                    let _g = self.pg(pids.project);
                    self.project(s, &ctx, outers)?
                };
                if first {
                    columns = names;
                    first = false;
                }
                let keys = {
                    let _g = self.pg(pids.sort);
                    self.sort_keys(s, &ctx, outers, &columns, &row)?
                };
                keyed.push((keys, row));
            }
            self.prows(pids.having, groups.len(), n_kept);
            self.prows(pids.project, n_kept, keyed.len());
            if first {
                // No surviving groups: derive column names from a probe
                // against an empty group so arity is still correct.
                let empty: Vec<Row> = Vec::new();
                let ctx = Ctx::Group {
                    cols: &rel_cols,
                    rows: &empty,
                };
                if let Ok((names, _)) = self.project(s, &ctx, outers) {
                    columns = names;
                }
            }
        } else {
            for row in filtered.iter() {
                let ctx = Ctx::Row {
                    cols: &rel_cols,
                    row,
                };
                let (names, prow) = {
                    let _g = self.pg(pids.project);
                    self.project(s, &ctx, outers)?
                };
                if first {
                    columns = names;
                    first = false;
                }
                let keys = {
                    let _g = self.pg(pids.sort);
                    self.sort_keys(s, &ctx, outers, &columns, &prow)?
                };
                keyed.push((keys, prow));
            }
            self.prows(pids.project, filtered.len(), keyed.len());
            if first {
                // Zero rows: probe column names on a row of NULLs.
                let null_row: Row = vec![Value::Null; rel_cols.len()];
                let ctx = Ctx::Row {
                    cols: &rel_cols,
                    row: &null_row,
                };
                if let Ok((names, _)) = self.project(s, &ctx, outers) {
                    columns = names;
                }
            }
        }

        // 4. ORDER BY (stable sort; keys computed above).
        if !s.order_by.is_empty() {
            let n = keyed.len();
            let g = self.pg(pids.sort);
            let dirs: Vec<SortDir> = s.order_by.iter().map(|k| k.dir).collect();
            keyed.sort_by(|(ka, _), (kb, _)| {
                for (i, dir) in dirs.iter().enumerate() {
                    let ord = ka[i].total_cmp(&kb[i]);
                    let ord = match dir {
                        SortDir::Asc => ord,
                        SortDir::Desc => ord.reverse(),
                    };
                    if ord != Ordering::Equal {
                        return ord;
                    }
                }
                Ordering::Equal
            });
            drop(g);
            self.prows(pids.sort, n, n);
        }

        let mut rows: Vec<Row> = keyed.into_iter().map(|(_, r)| r).collect();

        // 5. DISTINCT
        if s.distinct {
            let n = rows.len();
            let g = self.pg(pids.distinct);
            let mut seen = std::collections::HashSet::new();
            rows.retain(|r| seen.insert(row_key(r)));
            drop(g);
            self.prows(pids.distinct, n, rows.len());
        }

        // 6. LIMIT
        if let Some(n) = s.limit {
            let before = rows.len();
            let g = self.pg(pids.limit);
            rows.truncate(n as usize);
            drop(g);
            self.prows(pids.limit, before, rows.len());
        }

        Ok(ResultSet { columns, rows })
    }

    // ---- FROM / joins ----

    fn exec_from(&self, from: &FromClause, outers: &[OuterScope<'_>]) -> ExecResult<Relation<'a>> {
        let mut rel = self.scan(&from.base, outers)?;
        for join in &from.joins {
            let right = self.scan(&join.table, outers)?;
            let pid = self.join_pid(join);
            let (lin, rin) = (rel.rows.len(), right.rows.len());
            rel = {
                let _g = self.pg(pid);
                self.join(rel, right, join.on.as_ref(), outers)?
            };
            self.prows(pid, lin + rin, rel.rows.len());
        }
        Ok(rel)
    }

    fn scan(&self, t: &TableRef, outers: &[OuterScope<'_>]) -> ExecResult<Relation<'a>> {
        let pid = self.scan_pid(t);
        let _g = self.pg(pid);
        match t {
            TableRef::Named { name, alias } => {
                let schema = self
                    .db
                    .table_schema(name)
                    .ok_or_else(|| ExecError::UnknownTable(name.clone()))?;
                let binding = alias.as_deref().unwrap_or(name).to_lowercase();
                let cols = schema
                    .columns
                    .iter()
                    .map(|c| (binding.clone(), c.name.to_lowercase()))
                    .collect();
                let rows = self.db.rows(name).unwrap_or(&[]);
                self.rows_scanned
                    .set(self.rows_scanned.get() + rows.len() as u64);
                self.prows(pid, 0, rows.len());
                Ok(Relation {
                    cols,
                    rows: Cow::Borrowed(rows),
                })
            }
            TableRef::Derived { query, alias } => {
                // The inner query's operators nest under this scan node on
                // the probe stack and account for their own time.
                let rs = self.exec_query(query, outers)?;
                self.prows(pid, rs.rows.len(), rs.rows.len());
                let binding = alias
                    .as_deref()
                    .map(str::to_lowercase)
                    .unwrap_or_else(|| "<derived>".to_string());
                let cols = rs
                    .columns
                    .iter()
                    .map(|c| (binding.clone(), c.to_lowercase()))
                    .collect();
                Ok(Relation {
                    cols,
                    rows: Cow::Owned(rs.rows),
                })
            }
        }
    }

    fn join(
        &self,
        left: Relation<'a>,
        right: Relation<'a>,
        on: Option<&Cond>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Relation<'a>> {
        let mut cols = left.cols.clone();
        cols.extend(right.cols.iter().cloned());

        // Hash join fast path: single `a = b` equi-predicate resolvable to
        // one side each.
        if self.opts.join == JoinStrategy::Hash {
            if let Some(Cond::Cmp {
                left: Expr::Col(ca),
                op: CmpOp::Eq,
                right: Operand::Expr(Expr::Col(cb)),
            }) = on
            {
                let la = resolve(&left.cols, ca);
                let ra = resolve(&right.cols, cb);
                let lb = resolve(&left.cols, cb);
                let rb = resolve(&right.cols, ca);
                let pair = match (la, ra, lb, rb) {
                    (Ok(l), Ok(r), _, _) => Some((l, r)),
                    (_, _, Ok(l), Ok(r)) => Some((l, r)),
                    _ => None,
                };
                if let Some((li, ri)) = pair {
                    let mut index: HashMap<String, Vec<&Row>> = HashMap::new();
                    for rrow in right.rows.iter() {
                        if !rrow[ri].is_null() {
                            index.entry(rrow[ri].group_key()).or_default().push(rrow);
                        }
                    }
                    let mut rows = Vec::new();
                    for lrow in left.rows.iter() {
                        if lrow[li].is_null() {
                            continue;
                        }
                        if let Some(matches) = index.get(&lrow[li].group_key()) {
                            for rrow in matches {
                                let mut combined = lrow.clone();
                                combined.extend(rrow.iter().cloned());
                                rows.push(combined);
                            }
                        }
                    }
                    return Ok(Relation {
                        cols,
                        rows: Cow::Owned(rows),
                    });
                }
            }
        }

        // General nested loop.
        let mut rows = Vec::new();
        for lrow in left.rows.iter() {
            for rrow in right.rows.iter() {
                let mut combined = lrow.clone();
                combined.extend(rrow.iter().cloned());
                match on {
                    Some(cond) => {
                        let ctx = Ctx::Row {
                            cols: &cols,
                            row: &combined,
                        };
                        if self.eval_cond(cond, &ctx, outers)? == Some(true) {
                            rows.push(combined);
                        }
                    }
                    None => rows.push(combined),
                }
            }
        }
        Ok(Relation {
            cols,
            rows: Cow::Owned(rows),
        })
    }

    // ---- grouping ----

    fn build_groups<'r>(
        &self,
        s: &Select,
        cols: &[(String, String)],
        rows: Cow<'r, [Row]>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Vec<Cow<'r, [Row]>>> {
        if s.group_by.is_empty() {
            // Global aggregate: a single group, possibly empty.
            return Ok(vec![rows]);
        }
        let mut order: Vec<String> = Vec::new();
        let mut groups: HashMap<String, Vec<Row>> = HashMap::new();
        for row in rows.into_owned() {
            let ctx = Ctx::Row { cols, row: &row };
            let mut key = String::new();
            for g in &s.group_by {
                let v = self.eval_col(g, &ctx, outers)?;
                key.push_str(&v.group_key());
                key.push('\u{1}');
            }
            if !groups.contains_key(&key) {
                order.push(key.clone());
            }
            groups.entry(key).or_default().push(row);
        }
        Ok(order
            .into_iter()
            .map(|k| Cow::Owned(groups.remove(&k).expect("key present")))
            .collect())
    }

    // ---- projection ----

    fn project(
        &self,
        s: &Select,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<(Vec<String>, Row)> {
        let mut names = Vec::with_capacity(s.items.len());
        let mut row = Vec::with_capacity(s.items.len());
        for item in &s.items {
            match &item.expr {
                Expr::Star => {
                    let repr = ctx.repr_row();
                    for (i, (_, cname)) in ctx.cols().iter().enumerate() {
                        names.push(cname.clone());
                        row.push(repr.map(|r| r[i].clone()).unwrap_or(Value::Null));
                    }
                }
                Expr::Col(c) if c.column == "*" => {
                    let binding = c
                        .table
                        .as_deref()
                        .ok_or(ExecError::InvalidStar)?
                        .to_lowercase();
                    let repr = ctx.repr_row();
                    let mut any = false;
                    for (i, (b, cname)) in ctx.cols().iter().enumerate() {
                        if *b == binding {
                            names.push(cname.clone());
                            row.push(repr.map(|r| r[i].clone()).unwrap_or(Value::Null));
                            any = true;
                        }
                    }
                    if !any {
                        return Err(ExecError::UnknownTable(binding));
                    }
                }
                expr => {
                    names.push(
                        item.alias
                            .clone()
                            .unwrap_or_else(|| expr.to_string().to_lowercase()),
                    );
                    row.push(self.eval_expr(expr, ctx, outers)?);
                }
            }
        }
        Ok((names, row))
    }

    fn sort_keys(
        &self,
        s: &Select,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
        columns: &[String],
        projected: &Row,
    ) -> ExecResult<Vec<Value>> {
        let mut keys = Vec::with_capacity(s.order_by.len());
        for k in &s.order_by {
            // An unqualified ORDER BY column may name a select alias.
            if let Expr::Col(c) = &k.expr {
                if c.table.is_none() {
                    if let Some(idx) = columns
                        .iter()
                        .position(|n| n.eq_ignore_ascii_case(&c.column))
                    {
                        // Only use the projected value when the name does not
                        // resolve in the relation (alias takes lower priority
                        // than a real column, matching SQLite).
                        if resolve(ctx.cols(), c).is_err() {
                            keys.push(projected[idx].clone());
                            continue;
                        }
                    }
                }
            }
            keys.push(self.eval_expr(&k.expr, ctx, outers)?);
        }
        Ok(keys)
    }

    // ---- expression evaluation ----

    fn eval_expr(&self, e: &Expr, ctx: &Ctx<'_>, outers: &[OuterScope<'_>]) -> ExecResult<Value> {
        match e {
            Expr::Lit(l) => Ok(Value::from_literal(l)),
            Expr::Col(c) => self.eval_col(c, ctx, outers).map(Cow::into_owned),
            Expr::Star => Err(ExecError::InvalidStar),
            Expr::Agg {
                func,
                distinct,
                arg,
            } => match ctx {
                Ctx::Group { cols, rows } => {
                    self.eval_agg(*func, *distinct, arg, cols, rows, outers)
                }
                Ctx::Row { .. } => Err(ExecError::InvalidAggregate(e.to_string())),
            },
            Expr::Arith { op, left, right } => {
                let l = self.eval_expr(left, ctx, outers)?;
                let r = self.eval_expr(right, ctx, outers)?;
                Ok(eval_arith(*op, &l, &r))
            }
            Expr::Neg(inner) => {
                let v = self.eval_expr(inner, ctx, outers)?;
                Ok(match v {
                    Value::Int(i) => Value::Int(-i),
                    Value::Float(f) => Value::Float(-f),
                    _ => Value::Null,
                })
            }
        }
    }

    /// The cell a column reference names, borrowed from the current row or
    /// an outer scope's row (NULL for an empty group).
    fn eval_col<'c>(
        &self,
        c: &ColumnRef,
        ctx: &Ctx<'c>,
        outers: &[OuterScope<'c>],
    ) -> ExecResult<Cow<'c, Value>> {
        match resolve(ctx.cols(), c) {
            Ok(idx) => Ok(match ctx.repr_row() {
                Some(r) => Cow::Borrowed(&r[idx]),
                None => Cow::Owned(Value::Null),
            }),
            Err(e @ ExecError::AmbiguousColumn(_)) => Err(e),
            Err(_) => {
                // Correlated reference: walk outer scopes, innermost first.
                for scope in outers.iter().rev() {
                    if let Ok(idx) = resolve(scope.cols, c) {
                        return Ok(Cow::Borrowed(&scope.row[idx]));
                    }
                }
                Err(unknown_column_error(c, ctx.cols(), outers))
            }
        }
    }

    /// [`Executor::eval_expr`], borrowing the cell when `e` is a column
    /// reference — what predicates use, since they only compare values.
    fn eval_cell<'c>(
        &self,
        e: &Expr,
        ctx: &Ctx<'c>,
        outers: &[OuterScope<'c>],
    ) -> ExecResult<Cow<'c, Value>> {
        match e {
            Expr::Col(c) => self.eval_col(c, ctx, outers),
            e => self.eval_expr(e, ctx, outers).map(Cow::Owned),
        }
    }

    fn eval_agg(
        &self,
        func: AggFunc,
        distinct: bool,
        arg: &Expr,
        cols: &[(String, String)],
        rows: &[Row],
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Value> {
        // COUNT(*) counts rows directly.
        if matches!(arg, Expr::Star) {
            if func != AggFunc::Count {
                return Err(ExecError::InvalidStar);
            }
            return Ok(Value::Int(rows.len() as i64));
        }
        let mut vals: Vec<Value> = Vec::with_capacity(rows.len());
        for row in rows {
            let ctx = Ctx::Row { cols, row };
            let v = self.eval_expr(arg, &ctx, outers)?;
            if !v.is_null() {
                vals.push(v);
            }
        }
        if distinct {
            let mut seen = std::collections::HashSet::new();
            vals.retain(|v| seen.insert(v.group_key()));
        }
        Ok(match func {
            AggFunc::Count => Value::Int(vals.len() as i64),
            AggFunc::Sum => {
                if vals.is_empty() {
                    Value::Null
                } else if vals.iter().all(|v| matches!(v, Value::Int(_))) {
                    Value::Int(
                        vals.iter()
                            .map(|v| if let Value::Int(i) = v { *i } else { 0 })
                            .sum(),
                    )
                } else {
                    Value::Float(vals.iter().filter_map(Value::as_f64).sum())
                }
            }
            AggFunc::Avg => {
                let nums: Vec<f64> = vals.iter().filter_map(Value::as_f64).collect();
                if nums.is_empty() {
                    Value::Null
                } else {
                    Value::Float(nums.iter().sum::<f64>() / nums.len() as f64)
                }
            }
            AggFunc::Min => vals
                .into_iter()
                .min_by(|a, b| a.total_cmp(b))
                .unwrap_or(Value::Null),
            AggFunc::Max => vals
                .into_iter()
                .max_by(|a, b| a.total_cmp(b))
                .unwrap_or(Value::Null),
        })
    }

    // ---- condition evaluation (three-valued logic) ----

    fn eval_cond(
        &self,
        c: &Cond,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Option<bool>> {
        match c {
            Cond::Cmp { left, op, right } => {
                let l = self.eval_cell(left, ctx, outers)?;
                let r = match right {
                    Operand::Expr(e) => self.eval_cell(e, ctx, outers)?,
                    Operand::Subquery(q) => Cow::Owned(self.scalar_subquery(q, ctx, outers)?),
                };
                Ok(l.sql_cmp(&r).map(|ord| match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Neq => ord != Ordering::Equal,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Le => ord != Ordering::Greater,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Ge => ord != Ordering::Less,
                }))
            }
            Cond::Between {
                expr,
                negated,
                low,
                high,
            } => {
                let v = self.eval_cell(expr, ctx, outers)?;
                let lo = self.eval_cell(low, ctx, outers)?;
                let hi = self.eval_cell(high, ctx, outers)?;
                let res = match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                    (Some(a), Some(b)) => Some(a != Ordering::Less && b != Ordering::Greater),
                    _ => None,
                };
                Ok(negate_if(res, *negated))
            }
            Cond::In {
                expr,
                negated,
                source,
            } => {
                let v = self.eval_cell(expr, ctx, outers)?;
                if v.is_null() {
                    return Ok(None);
                }
                let candidates: Vec<Value> = match source {
                    InSource::List(lits) => lits.iter().map(Value::from_literal).collect(),
                    InSource::Subquery(q) => {
                        let rs = self.subquery(q, ctx, outers)?;
                        if rs.columns.len() != 1 {
                            return Err(ExecError::SubqueryArity(rs.columns.len()));
                        }
                        rs.rows.into_iter().map(|mut r| r.remove(0)).collect()
                    }
                };
                let mut saw_null = false;
                let mut found = false;
                for cand in &candidates {
                    match v.sql_cmp(cand) {
                        Some(Ordering::Equal) => {
                            found = true;
                            break;
                        }
                        None => saw_null = true,
                        _ => {}
                    }
                }
                let res = if found {
                    Some(true)
                } else if saw_null {
                    None
                } else {
                    Some(false)
                };
                Ok(negate_if(res, *negated))
            }
            Cond::Like {
                expr,
                negated,
                pattern,
            } => {
                let v = self.eval_cell(expr, ctx, outers)?;
                let res = match v.as_ref() {
                    Value::Null => None,
                    Value::Str(s) => Some(like_match(pattern, s)),
                    other => Some(like_match(pattern, &other.to_string())),
                };
                Ok(negate_if(res, *negated))
            }
            Cond::IsNull { expr, negated } => {
                let v = self.eval_cell(expr, ctx, outers)?;
                Ok(Some(v.is_null() != *negated))
            }
            Cond::Exists { negated, query } => {
                let rs = self.subquery(query, ctx, outers)?;
                Ok(Some(rs.rows.is_empty() == *negated))
            }
            Cond::And(l, r) => {
                let a = self.eval_cond(l, ctx, outers)?;
                if a == Some(false) {
                    return Ok(Some(false));
                }
                let b = self.eval_cond(r, ctx, outers)?;
                Ok(match (a, b) {
                    (Some(true), Some(true)) => Some(true),
                    (_, Some(false)) => Some(false),
                    _ => None,
                })
            }
            Cond::Or(l, r) => {
                let a = self.eval_cond(l, ctx, outers)?;
                if a == Some(true) {
                    return Ok(Some(true));
                }
                let b = self.eval_cond(r, ctx, outers)?;
                Ok(match (a, b) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                })
            }
            Cond::Not(inner) => Ok(self.eval_cond(inner, ctx, outers)?.map(|b| !b)),
        }
    }

    /// Run a subquery with the current row pushed as an outer scope.
    fn subquery(
        &self,
        q: &Query,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<ResultSet> {
        let mut scopes: Vec<OuterScope<'_>> = outers.to_vec();
        if let Some(row) = ctx.repr_row() {
            scopes.push(OuterScope {
                cols: ctx.cols(),
                row,
            });
        }
        let pid = self.subq_pid(q);
        let _g = self.pg(pid);
        let rs = self.exec_query(q, &scopes)?;
        self.prows(pid, rs.rows.len(), rs.rows.len());
        Ok(rs)
    }

    fn scalar_subquery(
        &self,
        q: &Query,
        ctx: &Ctx<'_>,
        outers: &[OuterScope<'_>],
    ) -> ExecResult<Value> {
        let rs = self.subquery(q, ctx, outers)?;
        if rs.columns.len() != 1 {
            return Err(ExecError::SubqueryArity(rs.columns.len()));
        }
        Ok(rs.rows.first().map(|r| r[0].clone()).unwrap_or(Value::Null))
    }
}

/// Build an `UnknownColumn` error enriched with a near-miss suggestion.
///
/// Only called at the terminal failure site in [`Executor::eval_col`] (after
/// outer scopes were exhausted), so the speculative `resolve` probes used by
/// the hash-join fast path stay allocation-free. Candidates are drawn from the
/// current relation and every outer scope; a wrong-table qualifier (exact
/// column name under another binding) wins over a close spelling
/// (edit distance at most 2 and strictly less than the name length).
fn unknown_column_error(
    c: &ColumnRef,
    cols: &[(String, String)],
    outers: &[OuterScope<'_>],
) -> ExecError {
    let name = c.column.to_lowercase();
    let mut visible: Vec<&(String, String)> = cols.iter().collect();
    for scope in outers {
        visible.extend(scope.cols.iter());
    }
    // Wrong-table qualifier: the column exists, just under another binding.
    if c.table.is_some() {
        if let Some((b, n)) = visible.iter().find(|(_, n)| *n == name) {
            return ExecError::UnknownColumn(format!("{c} (did you mean {b}.{n}?)"));
        }
    }
    // Close spelling: best Levenshtein candidate, deterministic tie-break on
    // (distance, binding, name).
    let mut best: Option<(usize, &String, &String)> = None;
    for (b, n) in &visible {
        let d = textkit::edit_distance(&name, n);
        if d == 0 || d > 2 || d >= name.chars().count() {
            continue;
        }
        let better = match &best {
            None => true,
            Some((bd, bb, bn)) => (d, b, n) < (*bd, bb, bn),
        };
        if better {
            best = Some((d, b, n));
        }
    }
    match best {
        Some((_, b, n)) => ExecError::UnknownColumn(format!("{c} (did you mean {b}.{n}?)")),
        None => ExecError::UnknownColumn(format!("{c}")),
    }
}

/// Resolve a column reference against relation labels.
fn resolve(cols: &[(String, String)], c: &ColumnRef) -> ExecResult<usize> {
    let name = &c.column;
    match &c.table {
        Some(t) => cols
            .iter()
            .position(|(b, n)| label_eq(b, t) && label_eq(n, name))
            .ok_or_else(|| {
                ExecError::UnknownColumn(format!("{}.{}", t.to_lowercase(), name.to_lowercase()))
            }),
        None => {
            let mut it = cols
                .iter()
                .enumerate()
                .filter(|(_, (_, n))| label_eq(n, name));
            match (it.next(), it.next()) {
                (Some((i, _)), None) => Ok(i),
                (Some((i, (b1, _))), Some((_, (b2, _)))) => {
                    if b1 == b2 {
                        // Same binding twice cannot happen; different bindings
                        // with the same column name is genuinely ambiguous,
                        // but SQLite resolves join-duplicated key columns to
                        // the first occurrence in practice for Spider gold
                        // queries. Prefer the first occurrence.
                        Ok(i)
                    } else {
                        Ok(i)
                    }
                }
                _ => Err(ExecError::UnknownColumn(name.to_lowercase())),
            }
        }
    }
}

/// `label == name.to_lowercase()` for a label that is already lowercase,
/// without allocating when `name` is ASCII (every label is lowercase, so an
/// ASCII case-insensitive match is then exactly that equality).
fn label_eq(label: &str, name: &str) -> bool {
    if name.is_ascii() {
        label.eq_ignore_ascii_case(name)
    } else {
        *label == name.to_lowercase()
    }
}

fn negate_if(v: Option<bool>, neg: bool) -> Option<bool> {
    if neg {
        v.map(|b| !b)
    } else {
        v
    }
}

fn eval_arith(op: ArithOp, l: &Value, r: &Value) -> Value {
    if l.is_null() || r.is_null() {
        return Value::Null;
    }
    match (l, r) {
        (Value::Int(a), Value::Int(b)) => match op {
            ArithOp::Add => a
                .checked_add(*b)
                .map(Value::Int)
                .unwrap_or(Value::Float(*a as f64 + *b as f64)),
            ArithOp::Sub => a
                .checked_sub(*b)
                .map(Value::Int)
                .unwrap_or(Value::Float(*a as f64 - *b as f64)),
            ArithOp::Mul => a
                .checked_mul(*b)
                .map(Value::Int)
                .unwrap_or(Value::Float(*a as f64 * *b as f64)),
            // SQLite integer division truncates; x / 0 is NULL.
            ArithOp::Div => {
                if *b == 0 {
                    Value::Null
                } else {
                    Value::Int(a / b)
                }
            }
        },
        _ => {
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Value::Null;
            };
            match op {
                ArithOp::Add => Value::Float(a + b),
                ArithOp::Sub => Value::Float(a - b),
                ArithOp::Mul => Value::Float(a * b),
                ArithOp::Div => {
                    if b == 0.0 {
                        Value::Null
                    } else {
                        Value::Float(a / b)
                    }
                }
            }
        }
    }
}

/// SQL LIKE with `%` and `_`, ASCII case-insensitive (SQLite default:
/// case folding applies to the 26 ASCII letters only, so `'İ'` does not
/// fold and `'Σ'` never matches `'σ'`).
///
/// Iterative two-pointer matcher with single-point backtracking to the
/// most recent `%`: worst case `O(|pattern| · |text|)`, unlike the naive
/// recursive formulation which is exponential in the number of `%`
/// wildcards (`'%a%a%a%a%'` against a long non-matching string).
pub fn like_match(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.chars().map(|c| c.to_ascii_lowercase()).collect();
    let t: Vec<char> = text.chars().map(|c| c.to_ascii_lowercase()).collect();
    let (mut pi, mut ti) = (0usize, 0usize);
    // Position just after the last `%` seen, and the text index it is
    // currently anchored to.
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && p[pi] == '%' {
            star = Some((pi + 1, ti));
            pi += 1;
        } else if pi < p.len() && (p[pi] == '_' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if let Some((sp, st)) = star {
            // Mismatch after a `%`: let the wildcard absorb one more
            // character and retry from just past it.
            pi = sp;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    // Only trailing `%` wildcards may remain unconsumed.
    while pi < p.len() && p[pi] == '%' {
        pi += 1;
    }
    pi == p.len()
}

fn apply_set_op(op: SetOp, l: ResultSet, r: ResultSet) -> ResultSet {
    // SQLite set operations use set semantics (dedup).
    use std::collections::HashSet;
    let rkeys: HashSet<String> = r.rows.iter().map(row_key).collect();
    let mut out: Vec<Row> = Vec::new();
    let mut seen: HashSet<String> = HashSet::new();
    match op {
        SetOp::Union => {
            for row in l.rows.into_iter().chain(r.rows) {
                if seen.insert(row_key(&row)) {
                    out.push(row);
                }
            }
        }
        SetOp::Intersect => {
            for row in l.rows {
                let k = row_key(&row);
                if rkeys.contains(&k) && seen.insert(k) {
                    out.push(row);
                }
            }
        }
        SetOp::Except => {
            for row in l.rows {
                let k = row_key(&row);
                if !rkeys.contains(&k) && seen.insert(k) {
                    out.push(row);
                }
            }
        }
    }
    ResultSet {
        columns: l.columns,
        rows: out,
    }
}

/// Canonical key of a row for dedup / set ops.
pub(crate) fn row_key<R: AsRef<[Value]>>(row: R) -> String {
    let row = row.as_ref();
    let mut s = String::with_capacity(row.len() * 8);
    for v in row {
        s.push_str(&v.group_key());
        s.push('\u{1}');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::OpKind;
    use crate::schema::{ColType, ColumnDef, DbSchema, ForeignKey, TableSchema};
    use sqlkit::parse_query;

    /// A small concert_singer-like database used across executor tests.
    fn db() -> Database {
        let schema = DbSchema {
            db_id: "concert_singer".into(),
            tables: vec![
                TableSchema {
                    name: "singer".into(),
                    columns: vec![
                        ColumnDef::new("singer_id", ColType::Int),
                        ColumnDef::new("name", ColType::Text),
                        ColumnDef::new("country", ColType::Text),
                        ColumnDef::new("age", ColType::Int),
                    ],
                    primary_key: vec![0],
                },
                TableSchema {
                    name: "song".into(),
                    columns: vec![
                        ColumnDef::new("song_id", ColType::Int),
                        ColumnDef::new("singer_id", ColType::Int),
                        ColumnDef::new("title", ColType::Text),
                        ColumnDef::new("sales", ColType::Float),
                    ],
                    primary_key: vec![0],
                },
            ],
            foreign_keys: vec![ForeignKey {
                from_table: "song".into(),
                from_column: "singer_id".into(),
                to_table: "singer".into(),
                to_column: "singer_id".into(),
            }],
        };
        let mut d = Database::new(schema);
        let singers = [
            (1, "Joe", "US", 52),
            (2, "Amy", "France", 43),
            (3, "Bob", "US", 31),
            (4, "Cleo", "France", 27),
            (5, "Dan", "UK", 31),
        ];
        for (id, name, country, age) in singers {
            d.insert(
                "singer",
                vec![
                    Value::Int(id),
                    Value::Str(name.into()),
                    Value::Str(country.into()),
                    Value::Int(age),
                ],
            )
            .unwrap();
        }
        let songs = [
            (1, 1, "Sun", 700_000.0),
            (2, 1, "Moon", 150_000.0),
            (3, 2, "Sea", 320_000.0),
            (4, 3, "Sky", 45_000.0),
            (5, 5, "Rain", 5_000.0),
        ];
        for (id, sid, title, sales) in songs {
            d.insert(
                "song",
                vec![
                    Value::Int(id),
                    Value::Int(sid),
                    Value::Str(title.into()),
                    Value::Float(sales),
                ],
            )
            .unwrap();
        }
        d
    }

    fn run(sql: &str) -> ResultSet {
        let q = parse_query(sql).unwrap();
        execute_query(&db(), &q).unwrap_or_else(|e| panic!("exec failed for {sql}: {e}"))
    }

    fn run_err(sql: &str) -> ExecError {
        let q = parse_query(sql).unwrap();
        execute_query(&db(), &q).unwrap_err()
    }

    fn ints(rs: &ResultSet) -> Vec<i64> {
        rs.rows
            .iter()
            .map(|r| match &r[0] {
                Value::Int(v) => *v,
                other => panic!("expected int, got {other:?}"),
            })
            .collect()
    }

    fn strs(rs: &ResultSet) -> Vec<String> {
        rs.rows.iter().map(|r| r[0].to_string()).collect()
    }

    #[test]
    fn scan_and_project() {
        let rs = run("SELECT name FROM singer");
        assert_eq!(rs.rows.len(), 5);
        assert_eq!(rs.columns, vec!["name"]);
    }

    #[test]
    fn star_expands_all_columns() {
        let rs = run("SELECT * FROM singer");
        assert_eq!(rs.columns.len(), 4);
        assert_eq!(rs.rows.len(), 5);
    }

    #[test]
    fn where_filters() {
        let rs = run("SELECT name FROM singer WHERE age > 40");
        assert_eq!(strs(&rs), vec!["Joe", "Amy"]);
    }

    #[test]
    fn where_and_or() {
        let rs = run("SELECT name FROM singer WHERE country = 'US' AND age > 40");
        assert_eq!(strs(&rs), vec!["Joe"]);
        let rs = run("SELECT name FROM singer WHERE age = 52 OR age = 27");
        assert_eq!(strs(&rs), vec!["Joe", "Cleo"]);
    }

    #[test]
    fn count_star() {
        let rs = run("SELECT count(*) FROM singer");
        assert_eq!(ints(&rs), vec![5]);
    }

    #[test]
    fn aggregates_on_empty_input() {
        let rs = run("SELECT count(*) FROM singer WHERE age > 100");
        assert_eq!(ints(&rs), vec![0]);
        let rs = run("SELECT max(age) FROM singer WHERE age > 100");
        assert!(rs.rows[0][0].is_null());
        let rs = run("SELECT sum(age) FROM singer WHERE age > 100");
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn avg_min_max_sum() {
        let rs = run("SELECT avg(age), min(age), max(age), sum(age) FROM singer");
        let r = &rs.rows[0];
        assert!((r[0].as_f64().unwrap() - 36.8).abs() < 1e-9);
        assert!(matches!(r[1], Value::Int(27)));
        assert!(matches!(r[2], Value::Int(52)));
        assert!(matches!(r[3], Value::Int(184)));
    }

    #[test]
    fn count_distinct() {
        let rs = run("SELECT count(DISTINCT country) FROM singer");
        assert_eq!(ints(&rs), vec![3]);
    }

    #[test]
    fn group_by_with_count() {
        let rs = run("SELECT country, count(*) FROM singer GROUP BY country ORDER BY count(*) DESC, country ASC");
        let got: Vec<(String, i64)> = rs
            .rows
            .iter()
            .map(|r| {
                (
                    r[0].to_string(),
                    if let Value::Int(v) = r[1] { v } else { -1 },
                )
            })
            .collect();
        assert_eq!(
            got,
            vec![
                ("France".to_string(), 2),
                ("US".to_string(), 2),
                ("UK".to_string(), 1)
            ]
        );
    }

    #[test]
    fn having_filters_groups() {
        let rs = run(
            "SELECT country FROM singer GROUP BY country HAVING count(*) > 1 ORDER BY country ASC",
        );
        assert_eq!(strs(&rs), vec!["France", "US"]);
    }

    #[test]
    fn order_by_and_limit() {
        let rs = run("SELECT name FROM singer ORDER BY age DESC LIMIT 2");
        assert_eq!(strs(&rs), vec!["Joe", "Amy"]);
        let rs = run("SELECT name FROM singer ORDER BY age ASC LIMIT 1");
        assert_eq!(strs(&rs), vec!["Cleo"]);
    }

    #[test]
    fn order_by_ties_are_stable() {
        let rs = run("SELECT name FROM singer ORDER BY age ASC");
        // Bob (31) comes before Dan (31) because of input order stability.
        assert_eq!(strs(&rs), vec!["Cleo", "Bob", "Dan", "Amy", "Joe"]);
    }

    #[test]
    fn join_with_on() {
        let rs = run(
            "SELECT T2.title FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id WHERE T1.name = 'Joe' ORDER BY T2.title ASC",
        );
        assert_eq!(strs(&rs), vec!["Moon", "Sun"]);
    }

    #[test]
    fn hash_and_nested_loop_join_agree() {
        let q = parse_query(
            "SELECT T1.name, count(*) FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id GROUP BY T1.singer_id ORDER BY T1.name ASC",
        )
        .unwrap();
        let d = db();
        let a = execute_query_with(
            &d,
            &q,
            ExecOptions {
                join: JoinStrategy::Hash,
            },
        )
        .unwrap();
        let b = execute_query_with(
            &d,
            &q,
            ExecOptions {
                join: JoinStrategy::NestedLoop,
            },
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn comma_join_with_where() {
        let rs = run(
            "SELECT song.title FROM singer, song WHERE singer.singer_id = song.singer_id AND singer.name = 'Amy'",
        );
        assert_eq!(strs(&rs), vec!["Sea"]);
    }

    #[test]
    fn in_list_and_not_in() {
        let rs = run("SELECT name FROM singer WHERE age IN (31, 27) ORDER BY name ASC");
        assert_eq!(strs(&rs), vec!["Bob", "Cleo", "Dan"]);
        let rs = run("SELECT name FROM singer WHERE age NOT IN (31, 27) ORDER BY name ASC");
        assert_eq!(strs(&rs), vec!["Amy", "Joe"]);
    }

    #[test]
    fn in_subquery() {
        let rs = run(
            "SELECT name FROM singer WHERE singer_id IN (SELECT singer_id FROM song WHERE sales > 100000) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Amy", "Joe"]);
    }

    #[test]
    fn not_in_subquery() {
        let rs = run(
            "SELECT name FROM singer WHERE singer_id NOT IN (SELECT singer_id FROM song) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Cleo"]);
    }

    #[test]
    fn scalar_subquery_comparison() {
        let rs = run(
            "SELECT name FROM singer WHERE age > (SELECT avg(age) FROM singer) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Amy", "Joe"]);
    }

    #[test]
    fn correlated_exists() {
        let rs = run(
            "SELECT name FROM singer WHERE EXISTS (SELECT 1 FROM song WHERE song.singer_id = singer.singer_id) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Amy", "Bob", "Dan", "Joe"]);
    }

    #[test]
    fn like_patterns() {
        let rs = run("SELECT name FROM singer WHERE name LIKE '%o%' ORDER BY name ASC");
        assert_eq!(strs(&rs), vec!["Bob", "Cleo", "Joe"]);
        let rs = run("SELECT name FROM singer WHERE name LIKE '_o_'");
        assert_eq!(strs(&rs), vec!["Joe", "Bob"]);
        let rs = run("SELECT name FROM singer WHERE name LIKE 'JOE'");
        assert_eq!(strs(&rs), vec!["Joe"], "LIKE is case-insensitive");
    }

    /// Regression: the old matcher lowercased with full Unicode rules,
    /// so `'İ'` expanded to two chars (`i` + combining dot) and no longer
    /// matched a single `_`; SQLite folds ASCII only.
    #[test]
    fn like_folds_ascii_only() {
        assert!(like_match("_", "İ"), "'İ' is one character under LIKE");
        assert!(!like_match("σ", "Σ"), "non-ASCII letters do not case-fold");
        assert!(like_match("a_C", "AbC"), "ASCII folding still applies");
        assert!(like_match("%ß%", "straße"));
    }

    /// Regression: the old recursive matcher was exponential in the number
    /// of `%` wildcards; this pattern/text pair effectively never finished.
    /// The iterative matcher must answer (false) in bounded time.
    #[test]
    fn like_pathological_pattern_is_fast() {
        let pattern = "%a%a%a%a%a%a%a%a%a%a%b";
        let text = "a".repeat(300);
        let start = std::time::Instant::now();
        assert!(!like_match(pattern, &text));
        assert!(like_match("%a%a%a%a%a%a%a%a%a%a%", &text));
        assert!(
            start.elapsed() < std::time::Duration::from_secs(5),
            "pathological LIKE took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn like_wildcard_edge_cases() {
        assert!(like_match("", ""));
        assert!(!like_match("", "a"));
        assert!(like_match("%", ""));
        assert!(like_match("%%", "anything"));
        assert!(!like_match("_", ""));
        assert!(like_match("a%", "a"));
        assert!(like_match("%a", "ba"));
        assert!(!like_match("a%b", "acbd"));
        assert!(like_match("a%b%", "acbd"));
        assert!(like_match("_%_", "ab"));
        assert!(!like_match("_%_", "a"));
    }

    #[test]
    fn between() {
        let rs = run("SELECT name FROM singer WHERE age BETWEEN 30 AND 45 ORDER BY name ASC");
        assert_eq!(strs(&rs), vec!["Amy", "Bob", "Dan"]);
    }

    #[test]
    fn distinct_dedups() {
        let rs = run("SELECT DISTINCT country FROM singer ORDER BY country ASC");
        assert_eq!(strs(&rs), vec!["France", "UK", "US"]);
    }

    #[test]
    fn union_intersect_except() {
        let rs = run(
            "SELECT country FROM singer WHERE age > 40 UNION SELECT country FROM singer WHERE age < 30",
        );
        let mut got = strs(&rs);
        got.sort();
        assert_eq!(got, vec!["France", "US"]);

        let rs = run(
            "SELECT country FROM singer WHERE age > 40 INTERSECT SELECT country FROM singer WHERE age < 30",
        );
        assert_eq!(strs(&rs), vec!["France"]);

        let rs = run("SELECT country FROM singer EXCEPT SELECT country FROM singer WHERE age < 35");
        assert_eq!(strs(&rs), Vec::<String>::new());

        let rs = run("SELECT country FROM singer EXCEPT SELECT country FROM singer WHERE age > 50");
        let mut got = strs(&rs);
        got.sort();
        assert_eq!(got, vec!["France", "UK"]);
    }

    #[test]
    fn derived_table() {
        let rs = run(
            "SELECT T.c FROM (SELECT country AS c, count(*) AS n FROM singer GROUP BY country) AS T WHERE T.n > 1 ORDER BY T.c ASC",
        );
        assert_eq!(strs(&rs), vec!["France", "US"]);
    }

    #[test]
    fn order_by_aggregate_in_group() {
        let rs = run("SELECT country FROM singer GROUP BY country ORDER BY avg(age) DESC LIMIT 1");
        assert_eq!(strs(&rs), vec!["US"]);
    }

    #[test]
    fn order_by_select_alias() {
        let rs = run(
            "SELECT country, count(*) AS n FROM singer GROUP BY country ORDER BY n DESC LIMIT 1",
        );
        assert!(matches!(rs.rows[0][1], Value::Int(2)));
    }

    #[test]
    fn arithmetic_in_projection() {
        let rs = run("SELECT age + 10 FROM singer WHERE name = 'Joe'");
        assert_eq!(ints(&rs), vec![62]);
        let rs = run("SELECT age / 2 FROM singer WHERE name = 'Bob'");
        assert_eq!(ints(&rs), vec![15], "integer division truncates");
    }

    #[test]
    fn division_by_zero_is_null() {
        let rs = run("SELECT age / 0 FROM singer WHERE name = 'Joe'");
        assert!(rs.rows[0][0].is_null());
    }

    #[test]
    fn unknown_table_and_column_error() {
        assert!(matches!(
            run_err("SELECT a FROM nope"),
            ExecError::UnknownTable(_)
        ));
        assert!(matches!(
            run_err("SELECT nope FROM singer"),
            ExecError::UnknownColumn(_)
        ));
    }

    #[test]
    fn set_op_arity_mismatch_errors() {
        assert!(matches!(
            run_err("SELECT name, age FROM singer UNION SELECT name FROM singer"),
            ExecError::SetOpArity(2, 1)
        ));
    }

    #[test]
    fn aggregate_in_where_errors() {
        assert!(matches!(
            run_err("SELECT name FROM singer WHERE count(*) > 1"),
            ExecError::InvalidAggregate(_)
        ));
    }

    #[test]
    fn null_handling_in_filters() {
        let schema = DbSchema {
            db_id: "n".into(),
            tables: vec![TableSchema {
                name: "t".into(),
                columns: vec![ColumnDef::new("x", ColType::Int)],
                primary_key: vec![],
            }],
            foreign_keys: vec![],
        };
        let mut d = Database::new(schema);
        d.insert("t", vec![Value::Int(1)]).unwrap();
        d.insert("t", vec![Value::Null]).unwrap();
        let q = parse_query("SELECT x FROM t WHERE x > 0").unwrap();
        let rs = execute_query(&d, &q).unwrap();
        assert_eq!(rs.rows.len(), 1, "NULL is not > 0");
        let q = parse_query("SELECT x FROM t WHERE x IS NULL").unwrap();
        let rs = execute_query(&d, &q).unwrap();
        assert_eq!(rs.rows.len(), 1);
        let q = parse_query("SELECT count(x) FROM t").unwrap();
        let rs = execute_query(&d, &q).unwrap();
        assert_eq!(
            rs.rows[0][0].group_key(),
            Value::Int(1).group_key(),
            "count ignores NULL"
        );
    }

    #[test]
    fn qualified_star() {
        let rs = run(
            "SELECT T1.* FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id LIMIT 1",
        );
        assert_eq!(rs.columns.len(), 4);
    }

    #[test]
    fn select_without_from() {
        let rs = run("SELECT 1");
        assert_eq!(ints(&rs), vec![1]);
    }

    #[test]
    fn limit_zero() {
        let rs = run("SELECT name FROM singer LIMIT 0");
        assert!(rs.rows.is_empty());
    }

    #[test]
    fn group_by_preserves_first_seen_order_before_sort() {
        let rs = run("SELECT country FROM singer GROUP BY country");
        assert_eq!(strs(&rs), vec!["US", "France", "UK"]);
    }

    #[test]
    fn nested_set_op_in_subquery() {
        let rs = run(
            "SELECT name FROM singer WHERE country IN (SELECT country FROM singer WHERE age > 50 UNION SELECT country FROM singer WHERE age < 28) ORDER BY name ASC",
        );
        assert_eq!(strs(&rs), vec!["Amy", "Bob", "Cleo", "Joe"]);
    }

    fn analyze(sql: &str) -> Analyzed {
        let q = parse_query(sql).unwrap();
        execute_query_analyzed(&db(), &q, ExecOptions::default(), None)
            .unwrap_or_else(|e| panic!("analyze failed for {sql}: {e}"))
    }

    /// Assert the rows-flow invariant on every node: a parent's `rows_in`
    /// equals the sum of `rows_out` over its leading `inputs` children.
    fn assert_rows_flow(plan: &crate::explain::Plan) {
        for (i, n) in plan.nodes.iter().enumerate() {
            if n.inputs == 0 || i == plan.root {
                continue;
            }
            let fed: u64 = n.children[..n.inputs]
                .iter()
                .map(|&c| plan.nodes[c].stats.rows_out)
                .sum();
            assert_eq!(
                n.stats.rows_in, fed,
                "node {i} ({}) rows_in != sum of input children rows_out",
                n.label
            );
        }
    }

    #[test]
    fn analyze_matches_plain_execution() {
        for sql in [
            "SELECT name FROM singer WHERE age > 40",
            "SELECT country, count(*) FROM singer GROUP BY country HAVING count(*) > 1 ORDER BY count(*) DESC",
            "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id",
            "SELECT DISTINCT country FROM singer ORDER BY country LIMIT 2",
            "SELECT name FROM singer WHERE age > (SELECT avg(age) FROM singer)",
            "SELECT country FROM singer UNION SELECT country FROM singer WHERE age < 30",
        ] {
            let q = parse_query(sql).unwrap();
            let plain = execute_query(&db(), &q).unwrap();
            let an = analyze(sql);
            assert_eq!(an.result.columns, plain.columns, "{sql}");
            assert_eq!(an.result.rows, plain.rows, "{sql}");
            let root = &an.plan.nodes[an.plan.root];
            assert_eq!(
                root.stats.rows_out,
                an.result.rows.len() as u64,
                "root node reports the final result cardinality: {sql}"
            );
        }
    }

    #[test]
    fn analyze_self_times_partition_the_run() {
        let an = analyze(
            "SELECT T1.country, count(*) FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id WHERE T2.sales > 10000 GROUP BY T1.country ORDER BY count(*) DESC",
        );
        let total: u64 = an.plan.nodes.iter().map(|n| n.stats.self_ns).sum();
        assert_eq!(total, an.plan.total_self_ns());
        // The synthetic exec root is entered for the whole run, so the sum is
        // the full wall-clock partition, never zero for a non-trivial query.
        assert!(an.plan.nodes[an.plan.root].stats.invocations == 1);
    }

    #[test]
    fn analyze_rows_flow_invariant_holds() {
        for sql in [
            "SELECT name FROM singer WHERE age > 40",
            "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id",
            "SELECT country, count(*) FROM singer GROUP BY country HAVING count(*) > 1",
            "SELECT DISTINCT country FROM singer ORDER BY country LIMIT 2",
            "SELECT country FROM singer INTERSECT SELECT country FROM singer WHERE age < 30",
            "SELECT name FROM (SELECT name, age FROM singer WHERE age > 30) AS t WHERE age < 50",
        ] {
            let an = analyze(sql);
            assert_rows_flow(&an.plan);
        }
    }

    #[test]
    fn analyze_counts_filter_rows() {
        // The scan emits every row of the table; the filter node above it
        // receives them all and keeps the matches.
        let an = analyze("SELECT name FROM singer WHERE age > 40");
        let node = |kind| {
            an.plan
                .nodes
                .iter()
                .find(|n| n.kind == kind)
                .unwrap_or_else(|| panic!("{kind:?} node"))
        };
        let (scan, filter) = (node(OpKind::Scan), node(OpKind::Filter));
        assert_eq!(scan.stats.rows_out, 5);
        assert_eq!(filter.stats.rows_in, 5);
        assert_eq!(filter.stats.rows_out, 2);
        assert_eq!(an.plan.rows_scanned(), 5);

        // Over a join, the filter's rows_in is the joined row count.
        let an = analyze(
            "SELECT T1.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id WHERE T2.sales > 100000",
        );
        let join = an
            .plan
            .nodes
            .iter()
            .find(|n| n.kind == OpKind::Join)
            .unwrap();
        let filter = an
            .plan
            .nodes
            .iter()
            .find(|n| n.kind == OpKind::Filter)
            .unwrap();
        assert_eq!(join.stats.rows_out, 5);
        assert_eq!(filter.stats.rows_in, 5);
        assert_eq!(filter.stats.rows_out, 3);
        assert_eq!(an.plan.rows_scanned(), 10);
    }

    #[test]
    fn canonical_render_is_deterministic_and_timeless() {
        let an1 = analyze("SELECT name FROM singer WHERE age > 40 ORDER BY name LIMIT 1");
        let an2 = analyze("SELECT name FROM singer WHERE age > 40 ORDER BY name LIMIT 1");
        let r1 = an1.plan.render(true, true);
        assert_eq!(r1, an2.plan.render(true, true));
        for line in r1.lines().filter(|l| l.contains("self=")) {
            assert!(
                line.contains("self=0ns"),
                "canonical render must zero times: {line}"
            );
        }
        assert!(r1.contains("act="), "analyze render keeps actual rows");
        assert!(r1.contains("total self-time: 0ns"));
    }

    #[test]
    fn unknown_column_suggests_wrong_table_qualifier() {
        let e = run_err(
            "SELECT T2.name FROM singer AS T1 JOIN song AS T2 ON T1.singer_id = T2.singer_id",
        );
        let msg = e.to_string();
        assert!(
            msg.contains("did you mean t1.name?"),
            "message should point at the right binding: {msg}"
        );
    }

    #[test]
    fn unknown_column_suggests_close_spelling() {
        let e = run_err("SELECT nmae FROM singer");
        let msg = e.to_string();
        assert!(
            msg.contains("did you mean singer.name?"),
            "message should suggest near-miss: {msg}"
        );
    }

    #[test]
    fn unknown_column_without_candidate_is_plain() {
        let e = run_err("SELECT completely_unrelated FROM singer");
        let msg = e.to_string();
        assert!(!msg.contains("did you mean"), "{msg}");
    }
}
