//! Wrappers the benchmark puts around the program's public layers, so the
//! traced run can time each layer without changing the program.

use crate::trace::span;
use nl2vis::baselines::Nl2VisModel;
use nl2vis::data::Database;
use nl2vis::llm::prompt_parse::parse_prompt;
use nl2vis::llm::sim::copyable_demo;
use nl2vis::llm::understand::{ground, parse_question};
use nl2vis::llm::{CompletionOutcome, GenOptions, LlmClient, SimLlm};
use nl2vis::query::ast::VqlQuery;
use std::cell::RefCell;
use std::hint::black_box;
use std::sync::Arc;

/// An in-process simulated model whose completions open `llm.complete`.
/// When tracing, each completion is followed by a replay of the model's
/// public stages on the same prompt (see [`replay_sim_stages`]).
pub struct TracedSim<'a>(pub &'a SimLlm);

impl LlmClient for TracedSim<'_> {
    fn name(&self) -> &str {
        self.0.profile.name
    }

    fn try_complete_with(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        let out = {
            let _s = span("llm.complete", 0);
            self.0.complete_with(prompt, opts)
        };
        if crate::trace::enabled() {
            replay_sim_stages(self.0, prompt, &out);
        }
        Ok(out)
    }
}

/// Times `SimLlm`'s public stages on a prompt it has just completed:
/// `parse_prompt`, then `parse_question` and `ground` unless the answer
/// skipped them (a copied demonstration or the wrong-formalism reply).
/// The replays run after the completion, as siblings of `llm.complete`,
/// so generation self time is that span minus these three.
pub fn replay_sim_stages(llm: &SimLlm, prompt: &str, completion: &str) {
    let view = {
        let _s = span("llm.parse_prompt", 0);
        parse_prompt(prompt)
    };
    let Some(view) = view else { return };
    if completion.starts_with("SELECT * FROM")
        || copyable_demo(&view).as_deref() == Some(completion)
    {
        return;
    }
    let intent = {
        let _s = span("llm.parse_question", 0);
        parse_question(&view.question)
    };
    let knows = llm.knowledge_gate();
    let _s = span("llm.ground", 0);
    black_box(ground(&intent, &view.test_schema, &knows));
}

/// A baseline whose predictions open a per-model span.
pub struct TracedModel<'a> {
    pub model: &'a (dyn Nl2VisModel + Sync),
    pub span: &'static str,
}

impl Nl2VisModel for TracedModel<'_> {
    fn name(&self) -> &str {
        self.model.name()
    }

    fn predict(&self, question: &str, db: &Database) -> Option<VqlQuery> {
        let _s = span(self.span, 0);
        self.model.predict(question, db)
    }
}

/// Opens a named span around another client's completions.
pub struct Spanned<C> {
    pub name: &'static str,
    pub inner: C,
}

impl<C: LlmClient> LlmClient for Spanned<C> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn try_complete_with(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        let _s = span(self.name, 0);
        self.inner.try_complete_with(prompt, opts)
    }
}

thread_local! {
    static LAST: RefCell<Option<CompletionOutcome>> = const { RefCell::new(None) };
}

/// Keeps the latest completion on the calling thread, so the output check
/// sees the model's text even when the pipeline fails after the
/// completion (a query that does not parse or execute).
pub struct Recording<C>(pub C);

impl<C: LlmClient> LlmClient for Recording<C> {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn try_complete_with(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        let out = self.0.try_complete_with(prompt, opts);
        LAST.with(|l| *l.borrow_mut() = Some(out.clone()));
        out
    }
}

/// Takes the completion the calling thread's last [`Recording`] call saw.
pub fn take_last() -> Option<CompletionOutcome> {
    LAST.with(|l| l.borrow_mut().take())
}

/// One client chain shared by the pipeline and the traced decomposition.
#[derive(Clone)]
pub struct Shared(pub Arc<dyn LlmClient + Send + Sync>);

impl LlmClient for Shared {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn try_complete_with(&self, prompt: &str, opts: &GenOptions) -> CompletionOutcome {
        self.0.try_complete_with(prompt, opts)
    }
}
