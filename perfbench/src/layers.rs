//! Per-layer timing for the traced run.
//!
//! The traced run rebuilds DAIL-SQL prediction and EX scoring out of the
//! layers' public functions and times every call the benchmark makes into
//! one. Each call is timed once, by the innermost layer that owns it: the
//! prompt-build time excludes the selection it calls, so no time is
//! counted twice. `core.predict` is the exception — it times the whole
//! prediction and so includes its children.
//!
//! Both rebuilt paths are checked against the library's own
//! (`DailSql::predict`, `eval::score_item`) item by item, so a drift
//! between them shows as failed ops rather than as silently different
//! numbers.

use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dail_core::{PredictCtx, Prediction, Predictor};
use eval::ItemScore;
use promptkit::{render_examples, render_prompt, PromptConfig, QuestionRepr};
use simllm::{extract_sql, GenOptions, SimLlm};
use spider_gen::ExampleItem;
use sqlkit::{exact_set_match, parse_query, Query};
use storage::{execute_query, results_match, Database, ExecResult, ResultSet};
use textkit::DomainMasker;

use crate::report::Metrics;

/// Calls into one public function and the time spent in them.
#[derive(Debug, Default)]
pub struct Stat {
    calls: AtomicU64,
    busy_ns: AtomicU64,
}

impl Stat {
    /// Run `f` as one timed call.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        let out = f();
        self.add(started.elapsed());
        out
    }

    /// Record one call that took `busy`.
    pub fn add(&self, busy: Duration) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.busy_ns
            .fetch_add(busy.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Busy time recorded, in milliseconds.
    pub fn busy_ms(&self) -> f64 {
        self.busy_ns.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// Timers for every layer function the traced run calls. Shared across
/// serving worker threads.
#[derive(Debug, Default)]
pub struct Layers {
    /// `promptkit::ExampleSelector::select`.
    pub select: Stat,
    /// Prompt assembly (`promptkit` rendering, `textkit` masking and token
    /// counting), excluding the selection it calls.
    pub build_prompt: Stat,
    /// `simllm::SimLlm::complete`.
    pub complete: Stat,
    /// `sqlkit::parse_query`.
    pub parse_query: Stat,
    /// `sqlkit::exact_set_match`.
    pub exact_set_match: Stat,
    /// `storage::execute_query`.
    pub execute_query: Stat,
    /// `storage::results_match`.
    pub results_match: Stat,
    /// One whole prediction (includes its children).
    pub predict: Stat,
    /// Distinct `(database, statement)` pairs executed.
    statements: Mutex<HashSet<(String, String)>>,
}

impl Layers {
    /// `storage::execute_query`, timed, noting which statement ran.
    fn execute(&self, db_id: &str, db: &Database, q: &Query) -> ExecResult<ResultSet> {
        let out = self.execute_query.time(|| execute_query(db, q));
        self.statements
            .lock()
            .expect("statement set poisoned")
            .insert((db_id.to_string(), q.to_string()));
        out
    }

    /// Share of `execute_query` calls that ran a statement for the first
    /// time (1 = no statement repeats).
    pub fn distinct_share(&self) -> f64 {
        let calls = self.execute_query.calls();
        if calls == 0 {
            return 0.0;
        }
        self.statements
            .lock()
            .expect("statement set poisoned")
            .len() as f64
            / calls as f64
    }

    /// Write every per-function metric into `m`.
    pub fn write(&self, m: &mut Metrics) {
        let stats = [
            ("promptkit.select", &self.select),
            ("promptkit.build_prompt", &self.build_prompt),
            ("simllm.complete", &self.complete),
            ("sqlkit.parse_query", &self.parse_query),
            ("sqlkit.exact_set_match", &self.exact_set_match),
            ("storage.execute_query", &self.execute_query),
            ("storage.results_match", &self.results_match),
            ("core.predict", &self.predict),
        ];
        for (name, stat) in stats {
            m.set(&format!("{name}.calls"), stat.calls() as f64, "count");
            m.set(&format!("{name}.busy_ms"), stat.busy_ms(), "ms");
        }
        m.set(
            "storage.execute_query.distinct_share",
            self.distinct_share(),
            "ratio",
        );
    }
}

/// DAIL-SQL (greedy, paper defaults) rebuilt from public layer calls with
/// a timer around each. Produces the same SQL as `DailSql::predict`.
pub struct TracedDail<'l> {
    /// The backbone model.
    pub model: SimLlm,
    /// In-context examples in the main prompt.
    pub shots: usize,
    /// Where the timings go.
    pub layers: &'l Layers,
}

impl TracedDail<'_> {
    /// Predict SQL for one item: a zero-shot preliminary pass seeds the
    /// skeleton-aware DAIL selection of the main prompt.
    pub fn predict_sql(&self, ctx: &PredictCtx<'_>, item: &ExampleItem) -> String {
        let started = Instant::now();
        let zero_shot = PromptConfig::zero_shot(QuestionRepr::CodeRepr);
        let draft = self.complete(ctx, &self.build_prompt(&zero_shot, ctx, item, None));
        let preliminary = self.layers.parse_query.time(|| parse_query(&draft)).ok();
        let main = PromptConfig::dail_sql(self.shots);
        let sql = self.complete(
            ctx,
            &self.build_prompt(&main, ctx, item, preliminary.as_ref()),
        );
        self.layers.predict.add(started.elapsed());
        sql
    }

    fn complete(&self, ctx: &PredictCtx<'_>, prompt: &str) -> String {
        let opts = GenOptions {
            seed: ctx.seed,
            ..Default::default()
        };
        let out = self
            .layers
            .complete
            .time(|| self.model.complete(prompt, &opts));
        extract_sql(&out, prompt.trim_end().ends_with("SELECT"))
    }

    /// `promptkit::build_prompt` from its public parts, with the selection
    /// timed separately: mask the question, select examples, render, and
    /// drop the least similar examples until the prompt fits its budget.
    fn build_prompt(
        &self,
        cfg: &PromptConfig,
        ctx: &PredictCtx<'_>,
        item: &ExampleItem,
        preliminary: Option<&Query>,
    ) -> String {
        let started = Instant::now();
        let question = if ctx.realistic {
            &item.question_realistic
        } else {
            &item.question
        };
        let masked = ctx.selector.mask_target(&item.db_id, question, || {
            DomainMasker::new(ctx.bench.spec(item).domain_terms()).mask(question)
        });
        let select_started = Instant::now();
        let mut examples = ctx.selector.select(
            cfg.selection,
            question,
            &masked,
            preliminary,
            cfg.shots,
            ctx.seed ^ item.id as u64,
        );
        let select_time = select_started.elapsed();
        self.layers.select.add(select_time);
        let db = ctx.bench.db(item);
        let target = render_prompt(cfg.repr, &db.schema, Some(db), question, cfg.opts);
        let text = loop {
            let shown = render_examples(cfg.organization, cfg.repr, ctx.bench, &examples, cfg.opts);
            let text = format!("{shown}{target}");
            if ctx.tokenizer.count(&text) <= cfg.max_tokens || examples.is_empty() {
                break text;
            }
            examples.pop();
        };
        self.layers
            .build_prompt
            .add(started.elapsed().saturating_sub(select_time));
        text
    }
}

impl Predictor for TracedDail<'_> {
    fn name(&self) -> String {
        format!("DAIL-SQL({}) traced", self.model.profile.name)
    }

    fn predict(&self, ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction {
        Prediction {
            sql: self.predict_sql(ctx, item),
            prompt_tokens: 0,
            completion_tokens: 0,
            api_calls: 2,
        }
    }
}

/// `eval::score_item` from its public parts, each call timed.
pub fn traced_score(layers: &Layers, db: &Database, item: &ExampleItem, sql: &str) -> ItemScore {
    let Ok(pred) = layers.parse_query.time(|| parse_query(sql)) else {
        return ItemScore::default();
    };
    let em = layers
        .exact_set_match
        .time(|| exact_set_match(&item.gold, &pred));
    let Ok(pred_rs) = layers.execute(&item.db_id, db, &pred) else {
        return ItemScore::default();
    };
    let gold_rs = layers
        .execute(&item.db_id, db, &item.gold)
        .expect("gold queries always execute");
    let ordered = matches!(&item.gold, Query::Select(s) if !s.order_by.is_empty());
    let ex = layers
        .results_match
        .time(|| results_match(&gold_rs, &pred_rs, ordered));
    ItemScore {
        valid: true,
        ex,
        em,
    }
}

/// Whether two scores agree on every field.
pub fn same_score(a: &ItemScore, b: &ItemScore) -> bool {
    (a.valid, a.ex, a.em) == (b.valid, b.ex, b.em)
}
