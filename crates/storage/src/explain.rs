//! EXPLAIN/ANALYZE: a per-operator plan tree over the tree-walking executor.
//!
//! The executor stays a direct AST interpreter; this module derives an
//! *operator tree* from the same AST (one node per scan, join, filter,
//! group, having, project, sort, distinct, limit, set-op and subquery, under
//! a synthetic `exec` root) together with a [`PlanMap`] keyed by AST node
//! addresses, so the executor can find "its" plan node in O(1) without a
//! fragile parallel walk. During an analyzed run a [`Probe`] maintains a
//! stack-based exact time partition: every enter/exit tick attributes the
//! elapsed time to the operator on top of the stack, so operator self-times
//! sum to the whole statement's wall-clock *by construction* — the
//! `storage.exec` span is emitted with exactly that sum.
//!
//! Cardinality estimates are deliberately crude (textbook selectivity
//! constants, exact NDV from [`crate::stats`] when supplied): they exist so
//! `EXPLAIN` output shows estimated vs. actual rows.

use crate::db::Database;
use crate::exec::{ExecOptions, JoinStrategy};
use crate::stats::DbStats;
use sqlkit::ast::*;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Operator kinds in a plan tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Synthetic root covering the whole statement (executor overhead).
    Exec,
    /// Base-table or derived-table scan.
    Scan,
    /// Binary join.
    Join,
    /// WHERE filter.
    Filter,
    /// GROUP BY / global aggregation.
    Group,
    /// HAVING filter over groups.
    Having,
    /// Projection (also computes sort keys).
    Project,
    /// ORDER BY sort.
    Sort,
    /// DISTINCT deduplication.
    Distinct,
    /// LIMIT truncation.
    Limit,
    /// UNION / INTERSECT / EXCEPT.
    SetOp,
    /// A condition subquery (scalar, IN, EXISTS); re-entered per outer row
    /// when correlated.
    Subquery,
}

impl OpKind {
    /// Stable lowercase label, used in metric names.
    pub fn as_str(self) -> &'static str {
        match self {
            OpKind::Exec => "exec",
            OpKind::Scan => "scan",
            OpKind::Join => "join",
            OpKind::Filter => "filter",
            OpKind::Group => "group",
            OpKind::Having => "having",
            OpKind::Project => "project",
            OpKind::Sort => "sort",
            OpKind::Distinct => "distinct",
            OpKind::Limit => "limit",
            OpKind::SetOp => "setop",
            OpKind::Subquery => "subquery",
        }
    }
}

/// Runtime counters for one operator, filled in by an analyzed run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpStats {
    /// Times the operator's code ran (per-row operators count iterations).
    pub invocations: u64,
    /// Rows received from input children (0 for base scans).
    pub rows_in: u64,
    /// Rows produced.
    pub rows_out: u64,
    /// Exact self-time: wall-clock attributed to this operator alone.
    pub self_ns: u64,
}

/// One node of a plan tree.
#[derive(Debug, Clone)]
pub struct PlanNode {
    /// Operator kind.
    pub kind: OpKind,
    /// Human-readable label (table names, predicates, sort keys).
    pub label: String,
    /// Estimated output cardinality.
    pub est_rows: u64,
    /// Child node indices: the first [`PlanNode::inputs`] are row inputs,
    /// the rest are attached condition subqueries.
    pub children: Vec<usize>,
    /// How many leading children feed rows into this operator.
    pub inputs: usize,
    /// Runtime counters (zeroed for a plain EXPLAIN).
    pub stats: OpStats,
}

/// A complete plan tree.
#[derive(Debug, Clone)]
pub struct Plan {
    /// All nodes; `children` indices point into this vector.
    pub nodes: Vec<PlanNode>,
    /// Index of the root node.
    pub root: usize,
}

impl Plan {
    /// Sum of operator self-times. For a successful analyzed run this equals
    /// the statement's wall-clock and the emitted `storage.exec` span.
    pub fn total_self_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats.self_ns).sum()
    }

    /// Base-table rows scanned: the `rows_out` of every base scan.
    /// Derived-table scans pass rows through and are excluded — their inner
    /// scans are already counted.
    pub fn rows_scanned(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.kind == OpKind::Scan && n.children.is_empty())
            .map(|n| n.stats.rows_out)
            .sum()
    }

    /// Render the plan as a deterministic text tree.
    ///
    /// With `analyze`, each line also shows actual rows, invocations and
    /// self-time, plus a footer with the self-time total. `canonical` zeroes
    /// every time field (row counts and invocations are deterministic, times
    /// are not) so output is byte-stable for goldens and thread-count
    /// comparisons.
    pub fn render(&self, analyze: bool, canonical: bool) -> String {
        let mut out = String::new();
        self.render_node(self.root, "", "", analyze, canonical, &mut out);
        if analyze {
            let total = if canonical { 0 } else { self.total_self_ns() };
            let _ = writeln!(out, "total self-time: {total}ns (= storage.exec span)");
        }
        out
    }

    fn render_node(
        &self,
        id: usize,
        lead: &str,
        child_prefix: &str,
        analyze: bool,
        canonical: bool,
        out: &mut String,
    ) {
        let n = &self.nodes[id];
        let _ = write!(out, "{lead}{}  est={}", n.label, n.est_rows);
        if analyze {
            let s = &n.stats;
            let self_ns = if canonical { 0 } else { s.self_ns };
            let _ = write!(
                out,
                " act={} in={} calls={} self={}ns",
                s.rows_out, s.rows_in, s.invocations, self_ns
            );
        }
        out.push('\n');
        for (i, &c) in n.children.iter().enumerate() {
            let last = i + 1 == n.children.len();
            let (l2, p2) = if last {
                (format!("{child_prefix}└─ "), format!("{child_prefix}   "))
            } else {
                (format!("{child_prefix}├─ "), format!("{child_prefix}│  "))
            };
            self.render_node(c, &l2, &p2, analyze, canonical, out);
        }
    }

    /// Accumulate execution-time observations into `rec`: per-operator-kind
    /// row/invocation counters and self-time histograms, plus observed
    /// selectivities (percent) for filters and joins.
    pub fn record_observations(&self, rec: &obskit::Recorder) {
        for n in &self.nodes {
            let k = n.kind.as_str();
            rec.add_counter(&format!("storage.op.{k}.rows_out"), n.stats.rows_out);
            rec.add_counter(&format!("storage.op.{k}.invocations"), n.stats.invocations);
            rec.observe(&format!("storage.op.{k}.self_ns"), n.stats.self_ns);
            match n.kind {
                OpKind::Filter if n.stats.rows_in > 0 => {
                    rec.observe(
                        "storage.sel.filter_pct",
                        n.stats.rows_out * 100 / n.stats.rows_in,
                    );
                }
                OpKind::Join if n.inputs == 2 => {
                    // Selectivity relative to the cross product of the inputs.
                    let l = self.nodes[n.children[0]].stats.rows_out;
                    let r = self.nodes[n.children[1]].stats.rows_out;
                    if let Some(pct) = (n.stats.rows_out * 100).checked_div(l * r) {
                        rec.observe("storage.sel.join_pct", pct);
                    }
                }
                _ => {}
            }
        }
    }
}

// ---- AST-address keyed plan map ----

/// Plan-node ids for the clauses of one `SELECT`.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct SelectIds {
    pub filter: Option<usize>,
    pub group: Option<usize>,
    pub having: Option<usize>,
    pub project: Option<usize>,
    pub sort: Option<usize>,
    pub distinct: Option<usize>,
    pub limit: Option<usize>,
}

/// AST-node-address → plan-node-id map. Keys are the addresses of nodes
/// inside the one `Query` the plan was built from; the executor runs over
/// that same `Query`, so lookups are exact and need no tree alignment.
#[derive(Debug, Default)]
pub(crate) struct PlanMap {
    select: HashMap<usize, SelectIds>,
    scan: HashMap<usize, usize>,
    join: HashMap<usize, usize>,
    setop: HashMap<usize, usize>,
    subq: HashMap<usize, usize>,
}

fn addr<T>(r: &T) -> usize {
    r as *const T as usize
}

impl PlanMap {
    pub fn select_ids(&self, s: &Select) -> Option<SelectIds> {
        self.select.get(&addr(s)).copied()
    }
    pub fn scan_id(&self, t: &TableRef) -> Option<usize> {
        self.scan.get(&addr(t)).copied()
    }
    pub fn join_id(&self, j: &Join) -> Option<usize> {
        self.join.get(&addr(j)).copied()
    }
    pub fn setop_id(&self, q: &Query) -> Option<usize> {
        self.setop.get(&addr(q)).copied()
    }
    pub fn subq_id(&self, q: &Query) -> Option<usize> {
        self.subq.get(&addr(q)).copied()
    }
}

// ---- runtime probe ----

struct ProbeCells {
    stats: Vec<OpStats>,
    stack: Vec<usize>,
    last: Instant,
}

/// Exact-partition runtime probe for an analyzed run.
///
/// `enter`/`exit` maintain a stack of open operators; each call first
/// attributes the time elapsed since the previous call to the operator on
/// top of the stack. With the root entered for the whole run, every
/// nanosecond of the statement is attributed to exactly one operator, so
/// `Σ self_ns == wall-clock` exactly.
pub(crate) struct Probe {
    pub map: PlanMap,
    cells: RefCell<ProbeCells>,
}

impl Probe {
    pub fn new(map: PlanMap, n_nodes: usize) -> Probe {
        Probe {
            map,
            cells: RefCell::new(ProbeCells {
                stats: vec![OpStats::default(); n_nodes],
                stack: Vec::with_capacity(16),
                last: Instant::now(),
            }),
        }
    }

    fn tick(c: &mut ProbeCells) {
        let now = Instant::now();
        if let Some(&top) = c.stack.last() {
            c.stats[top].self_ns += now.duration_since(c.last).as_nanos() as u64;
        }
        c.last = now;
    }

    pub fn enter(&self, id: usize) {
        let mut c = self.cells.borrow_mut();
        Self::tick(&mut c);
        c.stack.push(id);
        c.stats[id].invocations += 1;
    }

    pub fn exit(&self) {
        let mut c = self.cells.borrow_mut();
        Self::tick(&mut c);
        c.stack.pop();
    }

    pub fn rows(&self, id: usize, rows_in: u64, rows_out: u64) {
        let mut c = self.cells.borrow_mut();
        c.stats[id].rows_in += rows_in;
        c.stats[id].rows_out += rows_out;
    }

    pub fn into_stats(self) -> Vec<OpStats> {
        self.cells.into_inner().stats
    }
}

// ---- plan construction ----

/// One visible column at plan time: its binding, name, and — when it traces
/// back to a base table — the physical (table, column) for stats lookups.
#[derive(Clone)]
struct ScopeCol {
    binding: String,
    name: String,
    src: Option<(String, String)>,
}

/// Plan-time column scope. `None` when the shape is statically unknown
/// (e.g. a derived table projecting `*`): estimates then fall back to
/// constants and the join-strategy tag is omitted.
type Scope = Option<Vec<ScopeCol>>;

fn scope_resolve<'s>(scope: &'s [ScopeCol], c: &ColumnRef) -> Option<&'s ScopeCol> {
    let name = c.column.to_lowercase();
    match &c.table {
        Some(t) => {
            let t = t.to_lowercase();
            scope.iter().find(|sc| sc.binding == t && sc.name == name)
        }
        None => scope.iter().find(|sc| sc.name == name),
    }
}

struct Planner<'a> {
    db: &'a Database,
    stats: Option<&'a DbStats>,
    opts: ExecOptions,
    nodes: Vec<PlanNode>,
    map: PlanMap,
}

/// Multiply a cardinality by a selectivity, rounding up and clamping.
fn est_mul(rows: u64, sel: f64) -> u64 {
    ((rows as f64 * sel).ceil() as u64).min(rows)
}

impl<'a> Planner<'a> {
    fn node(
        &mut self,
        kind: OpKind,
        label: String,
        est_rows: u64,
        children: Vec<usize>,
        inputs: usize,
    ) -> usize {
        self.nodes.push(PlanNode {
            kind,
            label,
            est_rows,
            children,
            inputs,
            stats: OpStats::default(),
        });
        self.nodes.len() - 1
    }

    fn est(&self, id: usize) -> u64 {
        self.nodes[id].est_rows
    }

    fn plan_query(&mut self, q: &Query) -> usize {
        match q {
            Query::Select(s) => self.plan_select(s),
            Query::Compound { op, left, right } => {
                let l = self.plan_query(left);
                let r = self.plan_query(right);
                let (le, re) = (self.est(l), self.est(r));
                let est = match op {
                    SetOp::Union => le.saturating_add(re),
                    SetOp::Intersect => le.min(re),
                    SetOp::Except => le,
                };
                let label = op.as_str().to_lowercase();
                let id = self.node(OpKind::SetOp, label, est, vec![l, r], 2);
                self.map.setop.insert(addr(q), id);
                id
            }
        }
    }

    fn plan_select(&mut self, s: &Select) -> usize {
        let mut ids = SelectIds::default();

        // FROM: a left-to-right join chain over the scans.
        let mut scope: Scope = Some(Vec::new());
        let mut cur: Option<usize> = None;
        if let Some(from) = &s.from {
            let (base_id, base_cols) = self.plan_scan(&from.base);
            cur = Some(base_id);
            scope = base_cols;
            for join in &from.joins {
                let (right_id, right_cols) = self.plan_scan(&join.table);
                let left_id = cur.expect("join follows a base scan");
                let (le, re) = (self.est(left_id), self.est(right_id));
                let (label, est) = self.join_label_and_est(
                    join.on.as_ref(),
                    scope.as_deref(),
                    right_cols.as_deref(),
                    le,
                    re,
                );
                scope = match (scope, right_cols) {
                    (Some(mut l), Some(r)) => {
                        l.extend(r);
                        Some(l)
                    }
                    _ => None,
                };
                let mut children = vec![left_id, right_id];
                if let Some(on) = &join.on {
                    children.extend(self.plan_cond_subqueries(on));
                }
                let id = self.node(OpKind::Join, label, est, children, 2);
                self.map.join.insert(addr(join), id);
                cur = Some(id);
            }
        }
        // No FROM: the executor synthesizes one empty row.
        let mut in_est = cur.map(|id| self.est(id)).unwrap_or(1);

        // WHERE.
        if let Some(cond) = &s.where_cond {
            let sel = self.selectivity(cond, scope.as_deref());
            let est = est_mul(in_est, sel);
            let mut children: Vec<usize> = cur.into_iter().collect();
            let inputs = children.len();
            children.extend(self.plan_cond_subqueries(cond));
            let id = self.node(
                OpKind::Filter,
                format!("filter {cond}"),
                est,
                children,
                inputs,
            );
            ids.filter = Some(id);
            cur = Some(id);
            in_est = est;
        }

        // GROUP BY / aggregation (mirrors the executor's aggregate test).
        let is_aggregate = !s.group_by.is_empty()
            || s.items.iter().any(|i| i.expr.contains_aggregate())
            || s.order_by.iter().any(|k| k.expr.contains_aggregate())
            || s.having.is_some();
        if is_aggregate {
            let est = self.group_est(s, scope.as_deref(), in_est);
            let label = if s.group_by.is_empty() {
                "aggregate".to_string()
            } else {
                let keys: Vec<String> = s.group_by.iter().map(|c| c.to_string()).collect();
                format!("group by {}", keys.join(", "))
            };
            let children: Vec<usize> = cur.into_iter().collect();
            let inputs = children.len();
            let id = self.node(OpKind::Group, label, est, children, inputs);
            ids.group = Some(id);
            cur = Some(id);
            in_est = est;

            if let Some(h) = &s.having {
                let est = est_mul(in_est, 0.5);
                let mut children = vec![cur.expect("having follows group")];
                children.extend(self.plan_cond_subqueries(h));
                let id = self.node(OpKind::Having, format!("having {h}"), est, children, 1);
                ids.having = Some(id);
                cur = Some(id);
                in_est = est;
            }
        }

        // Projection.
        {
            let items: Vec<String> = s
                .items
                .iter()
                .map(|i| match &i.alias {
                    Some(a) => format!("{} AS {a}", i.expr),
                    None => i.expr.to_string(),
                })
                .collect();
            let children: Vec<usize> = cur.into_iter().collect();
            let inputs = children.len();
            let id = self.node(
                OpKind::Project,
                format!("project [{}]", items.join(", ")),
                in_est,
                children,
                inputs,
            );
            ids.project = Some(id);
            cur = Some(id);
        }

        // ORDER BY.
        if !s.order_by.is_empty() {
            let keys: Vec<String> = s
                .order_by
                .iter()
                .map(|k| {
                    let dir = match k.dir {
                        SortDir::Asc => "ASC",
                        SortDir::Desc => "DESC",
                    };
                    format!("{} {dir}", k.expr)
                })
                .collect();
            let id = self.node(
                OpKind::Sort,
                format!("sort [{}]", keys.join(", ")),
                in_est,
                vec![cur.expect("sort follows project")],
                1,
            );
            ids.sort = Some(id);
            cur = Some(id);
        }

        // DISTINCT.
        if s.distinct {
            let est = if in_est == 0 { 0 } else { (in_est / 2).max(1) };
            let id = self.node(
                OpKind::Distinct,
                "distinct".to_string(),
                est,
                vec![cur.expect("distinct follows project")],
                1,
            );
            ids.distinct = Some(id);
            cur = Some(id);
            in_est = est;
        }

        // LIMIT.
        if let Some(n) = s.limit {
            let est = in_est.min(n);
            let id = self.node(
                OpKind::Limit,
                format!("limit {n}"),
                est,
                vec![cur.expect("limit follows project")],
                1,
            );
            ids.limit = Some(id);
            cur = Some(id);
        }

        self.map.select.insert(addr(s), ids);
        cur.expect("a select always has at least a project node")
    }

    fn plan_scan(&mut self, t: &TableRef) -> (usize, Scope) {
        match t {
            TableRef::Named { name, alias } => {
                let lower = name.to_lowercase();
                let binding = alias.as_deref().unwrap_or(name).to_lowercase();
                let est = match self.stats.and_then(|st| st.table(&lower)) {
                    Some(ts) => ts.rows,
                    None => self.db.rows(name).map(|r| r.len() as u64).unwrap_or(0),
                };
                let cols: Scope = self.db.table_schema(name).map(|schema| {
                    schema
                        .columns
                        .iter()
                        .map(|c| ScopeCol {
                            binding: binding.clone(),
                            name: c.name.to_lowercase(),
                            src: Some((lower.clone(), c.name.to_lowercase())),
                        })
                        .collect()
                });
                let label = if binding == lower {
                    format!("scan {lower}")
                } else {
                    format!("scan {lower} as {binding}")
                };
                let id = self.node(OpKind::Scan, label, est, Vec::new(), 0);
                self.map.scan.insert(addr(t), id);
                (id, cols)
            }
            TableRef::Derived { query, alias } => {
                let child = self.plan_query(query);
                let binding = alias
                    .as_deref()
                    .map(str::to_lowercase)
                    .unwrap_or_else(|| "<derived>".to_string());
                let cols = derived_cols(query, &binding);
                let est = self.est(child);
                let id = self.node(
                    OpKind::Scan,
                    format!("scan <derived> as {binding}"),
                    est,
                    vec![child],
                    1,
                );
                self.map.scan.insert(addr(t), id);
                (id, cols)
            }
        }
    }

    /// Label (with a `[hash]`/`[loop]` tag when the strategy is statically
    /// certain, mirroring the executor's fast-path test) and output estimate
    /// for a join.
    fn join_label_and_est(
        &self,
        on: Option<&Cond>,
        left: Option<&[ScopeCol]>,
        right: Option<&[ScopeCol]>,
        le: u64,
        re: u64,
    ) -> (String, u64) {
        let Some(on) = on else {
            return ("join (cross)".to_string(), le.saturating_mul(re));
        };
        let mut tag = "";
        let mut est = le.max(re);
        if let Cond::Cmp {
            left: Expr::Col(ca),
            op: CmpOp::Eq,
            right: Operand::Expr(Expr::Col(cb)),
        } = on
        {
            if let (Some(l), Some(r)) = (left, right) {
                let pair = match (
                    scope_resolve(l, ca),
                    scope_resolve(r, cb),
                    scope_resolve(l, cb),
                    scope_resolve(r, ca),
                ) {
                    (Some(a), Some(b), _, _) => Some((a, b)),
                    (_, _, Some(a), Some(b)) => Some((a, b)),
                    _ => None,
                };
                match pair {
                    Some((a, b)) => {
                        if self.opts.join == JoinStrategy::Hash {
                            tag = " [hash]";
                        } else {
                            tag = " [loop]";
                        }
                        // Equi-join estimate: cross product over the larger
                        // key NDV, when stats know both sides.
                        if let (Some(na), Some(nb)) = (self.ndv_of(a), self.ndv_of(b)) {
                            let d = na.max(nb).max(1);
                            est = (le.saturating_mul(re) / d)
                                .max(1)
                                .min(le.saturating_mul(re));
                        }
                    }
                    None => tag = " [loop]",
                }
            }
        }
        (format!("join on {on}{tag}"), est)
    }

    fn ndv_of(&self, sc: &ScopeCol) -> Option<u64> {
        let (t, c) = sc.src.as_ref()?;
        Some(self.stats?.table(t)?.column(c)?.ndv)
    }

    fn col_ndv(&self, scope: Option<&[ScopeCol]>, c: &ColumnRef) -> Option<u64> {
        self.ndv_of(scope_resolve(scope?, c)?)
    }

    fn col_null_frac(&self, scope: Option<&[ScopeCol]>, c: &ColumnRef) -> Option<f64> {
        let sc = scope_resolve(scope?, c)?;
        let (t, cn) = sc.src.as_ref()?;
        let ts = self.stats?.table(t)?;
        Some(ts.column(cn)?.null_fraction(ts.rows))
    }

    fn group_est(&self, s: &Select, scope: Option<&[ScopeCol]>, in_est: u64) -> u64 {
        if s.group_by.is_empty() {
            return 1; // global aggregate: always exactly one group
        }
        if in_est == 0 {
            return 0;
        }
        let mut product: u64 = 1;
        for g in &s.group_by {
            match self.col_ndv(scope, g) {
                Some(ndv) => product = product.saturating_mul(ndv.max(1)),
                None => return (in_est / 3).max(1), // no stats: crude fallback
            }
        }
        product.clamp(1, in_est)
    }

    /// Textbook selectivity constants, sharpened with exact NDV / null
    /// fractions when stats are available.
    fn selectivity(&self, c: &Cond, scope: Option<&[ScopeCol]>) -> f64 {
        let eq_sel = |col: &Expr| -> f64 {
            if let Expr::Col(cr) = col {
                if let Some(ndv) = self.col_ndv(scope, cr) {
                    if ndv > 0 {
                        return 1.0 / ndv as f64;
                    }
                }
            }
            0.1
        };
        match c {
            Cond::Cmp { left, op, right } => match (op, right) {
                (CmpOp::Eq, Operand::Expr(_)) => eq_sel(left),
                (CmpOp::Neq, Operand::Expr(_)) => 1.0 - eq_sel(left),
                _ => 1.0 / 3.0,
            },
            Cond::Between { negated, .. } => flip(0.25, *negated),
            Cond::In {
                negated, source, ..
            } => {
                let s = match source {
                    InSource::List(lits) => (lits.len() as f64 * 0.1).min(1.0),
                    InSource::Subquery(_) => 0.3,
                };
                flip(s, *negated)
            }
            Cond::Like { negated, .. } => flip(0.25, *negated),
            Cond::IsNull { expr, negated } => {
                let frac = match expr {
                    Expr::Col(cr) => self.col_null_frac(scope, cr).unwrap_or(0.05),
                    _ => 0.05,
                };
                flip(frac, *negated)
            }
            Cond::Exists { negated, .. } => flip(0.5, *negated),
            Cond::And(l, r) => self.selectivity(l, scope) * self.selectivity(r, scope),
            Cond::Or(l, r) => {
                let (a, b) = (self.selectivity(l, scope), self.selectivity(r, scope));
                a + b - a * b
            }
            Cond::Not(inner) => 1.0 - self.selectivity(inner, scope),
        }
    }

    /// Create `Subquery` wrapper nodes for every subquery reachable from a
    /// condition, in evaluation order, and register them in the map.
    fn plan_cond_subqueries(&mut self, c: &Cond) -> Vec<usize> {
        let mut out = Vec::new();
        self.walk_cond_subqueries(c, &mut out);
        out
    }

    fn walk_cond_subqueries(&mut self, c: &Cond, out: &mut Vec<usize>) {
        let wrap = |me: &mut Self, q: &Query, out: &mut Vec<usize>| {
            let child = me.plan_query(q);
            let est = me.est(child);
            let id = me.node(
                OpKind::Subquery,
                "subquery".to_string(),
                est,
                vec![child],
                1,
            );
            me.map.subq.insert(addr(q), id);
            out.push(id);
        };
        match c {
            Cond::Cmp {
                right: Operand::Subquery(q),
                ..
            } => wrap(self, q, out),
            Cond::In {
                source: InSource::Subquery(q),
                ..
            } => wrap(self, q, out),
            Cond::Exists { query, .. } => wrap(self, query, out),
            Cond::And(l, r) | Cond::Or(l, r) => {
                self.walk_cond_subqueries(l, out);
                self.walk_cond_subqueries(r, out);
            }
            Cond::Not(inner) => self.walk_cond_subqueries(inner, out),
            _ => {}
        }
    }
}

fn flip(s: f64, negated: bool) -> f64 {
    if negated {
        1.0 - s
    } else {
        s
    }
}

/// Best-effort static output columns of a derived table; `None` when a `*`
/// makes the shape unknowable without executing.
fn derived_cols(q: &Query, binding: &str) -> Scope {
    let s = q.head_select();
    let mut cols = Vec::with_capacity(s.items.len());
    for item in &s.items {
        match &item.expr {
            Expr::Star => return None,
            Expr::Col(c) if c.column == "*" => return None,
            expr => cols.push(ScopeCol {
                binding: binding.to_string(),
                name: item
                    .alias
                    .clone()
                    .unwrap_or_else(|| expr.to_string().to_lowercase()),
                src: None,
            }),
        }
    }
    Some(cols)
}

/// Build the plan tree (with a synthetic `exec` root) and the AST-address
/// map for a query.
pub(crate) fn build_plan(
    db: &Database,
    q: &Query,
    opts: ExecOptions,
    stats: Option<&DbStats>,
) -> (Vec<PlanNode>, usize, PlanMap) {
    let mut p = Planner {
        db,
        stats,
        opts,
        nodes: Vec::with_capacity(16),
        map: PlanMap::default(),
    };
    // Reserve index 0 for the root so it renders first.
    let root = p.node(OpKind::Exec, "exec".to_string(), 0, Vec::new(), 1);
    let top = p.plan_query(q);
    p.nodes[root].children = vec![top];
    p.nodes[root].est_rows = p.nodes[top].est_rows;
    (p.nodes, root, p.map)
}

/// Build a plan for `q` without executing it (estimates only; all runtime
/// counters zero). Pass [`DbStats`] to sharpen cardinality estimates with
/// exact NDVs and null fractions.
pub fn explain_query(db: &Database, q: &Query, opts: ExecOptions, stats: Option<&DbStats>) -> Plan {
    let (nodes, root, _map) = build_plan(db, q, opts, stats);
    Plan { nodes, root }
}
