//! The chart stages after the model: VQL parse, execution and the
//! Vega-Lite build, each inside a span. An answer "renders" when all three
//! succeed.

use crate::common::Setting;
use crate::trace::span;
use nl2vis::data::Database;
use nl2vis::eval::runner::EvalReport;
use nl2vis::llm::extract_vql;
use nl2vis::query::ast::VqlQuery;
use nl2vis::query::{execute, parse};
use nl2vis::vega::to_vega_lite;
use std::hint::black_box;

/// Parses a completion's VQL the way the pipeline does.
pub fn parse_answer(completion: &str) -> Option<VqlQuery> {
    let _s = span("query.parse", 0);
    extract_vql(completion).and_then(|text| parse(text).ok())
}

/// Executes a query and builds its Vega-Lite spec.
pub fn render_query(query: &VqlQuery, db: &Database) -> bool {
    let data = {
        let _s = span("query.exec", 0);
        execute(query, db)
    };
    let Ok(data) = data else { return false };
    let _s = span("vega.build", 0);
    black_box(to_vega_lite(query, &data));
    true
}

/// Parses, executes and renders a completion.
pub fn render_completion(completion: &str, db: &Database) -> bool {
    parse_answer(completion).is_some_and(|q| render_query(&q, db))
}

/// Share of scored answers in the reports that render: LLM answers from
/// their completion text, baseline answers from their predicted query.
pub fn render_reports(s: &Setting, reports: &[EvalReport]) -> f64 {
    let (mut ok, mut total) = (0u64, 0u64);
    for r in reports.iter().flat_map(|r| r.results.iter()) {
        if !r.scored() {
            continue;
        }
        let db = s.database(
            &s.corpus
                .example(r.id)
                .expect("results name corpus examples")
                .db,
        );
        total += 1;
        let rendered = match &r.completion {
            Some(text) => render_completion(text, db),
            None => r
                .outcome
                .predicted
                .as_ref()
                .is_some_and(|q| render_query(q, db)),
        };
        ok += u64::from(rendered);
    }
    if total == 0 {
        0.0
    } else {
        ok as f64 / total as f64
    }
}
