//! The prediction interface shared by DAIL-SQL and the baselines.

use promptkit::ExampleSelector;
use spider_gen::{Benchmark, ExampleItem};
use textkit::Tokenizer;

/// Shared context for one evaluation run.
///
/// `Copy`, so per-request variants can be minted cheaply from a shared
/// base.
#[derive(Clone, Copy)]
pub struct PredictCtx<'a> {
    /// The benchmark (databases + splits).
    pub bench: &'a Benchmark,
    /// Precomputed example selector over the training pool.
    pub selector: &'a ExampleSelector<'a>,
    /// Tokenizer for prompt accounting.
    pub tokenizer: &'a Tokenizer,
    /// Run seed.
    pub seed: u64,
    /// Evaluate on Spider-Realistic questions instead of standard ones.
    pub realistic: bool,
    /// Request context the prediction runs under: [`Predictor::predict`]
    /// enters it, so a caller handing the prediction to another thread
    /// keeps its spans in the request's tree.
    /// [`obskit::TraceContext::disabled`] (the usual value) records into
    /// the calling thread's scope. Never affects predictions.
    pub trace: obskit::TraceContext,
}

/// One prediction with its cost accounting.
#[derive(Debug, Clone)]
pub struct Prediction {
    /// The predicted SQL text (post-extraction).
    pub sql: String,
    /// Total prompt tokens across all API calls made for this item.
    pub prompt_tokens: usize,
    /// Total completion tokens across all API calls.
    pub completion_tokens: usize,
    /// Number of model calls (preliminary passes, self-consistency samples,
    /// correction rounds all count).
    pub api_calls: usize,
}

/// A Text-to-SQL solution under benchmark.
pub trait Predictor {
    /// Display name for report tables.
    fn name(&self) -> String;

    /// Predict SQL for one dev item, inside [`PredictCtx::trace`].
    fn predict(&self, ctx: &PredictCtx<'_>, item: &ExampleItem) -> Prediction;
}
