//! The `table3` workload: the paper's Table 3 grid at full corpus scale,
//! in process. Seven baselines (six trained per split, one zero-shot) and
//! four simulated LLMs at 20-shot Table2SQL are scored on the cross-domain
//! and in-domain test splits with two eval workers.
//!
//! The untraced run calls `evaluate_model` / `evaluate_llm` (through their
//! `_with_progress` forms, whose callback times each example). The traced
//! run performs the same per-example public calls itself, inside spans;
//! both must reproduce every Table 3 cell of [`crate::golden::TABLE3`].

use crate::common::{
    count_prompt, leak, mean_prompt_bytes, repeat_setup, thread_cpu_s, Report, Setting, PAPER_SEED,
};
use crate::layers::{TracedModel, TracedSim};
use crate::trace::{self, span};
use crate::{golden, render, stats};
use nl2vis::baselines::{
    Chat2Vis, NcNet, Nl2VisModel, RgVisNet, Seq2Vis, T5Model, T5Size, TransformerModel,
};
use nl2vis::corpus::{Corpus, Example};
use nl2vis::data::rng::Rng;
use nl2vis::eval::runner::{
    evaluate_llm_with_progress, evaluate_model_with_progress, pick_demos_pooled, EvalReport,
    ExampleResult, LlmEvalConfig,
};
use nl2vis::eval::{score_completion, score_query, Accuracy, EvalOutcome};
use nl2vis::llm::{LlmClient, ModelProfile, SimLlm};
use nl2vis::prompt::select::DemoPool;
use nl2vis::prompt::{build_prompt, PromptOptions};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Evaluation worker threads, sized for a two-core machine.
const WORKERS: usize = 2;

type Train = fn(&Corpus, &[usize]) -> Box<dyn Nl2VisModel + Sync>;

enum Kind {
    Trained(Train),
    ZeroShot,
    Llm(ModelProfile),
}

/// One row of Table 3: the model's name as the paper prints it, its metric
/// slug, how it is built and the names of its spans.
struct Entry {
    name: &'static str,
    slug: &'static str,
    kind: Kind,
    train_span: &'static str,
    predict_span: &'static str,
}

impl Entry {
    fn new(name: &'static str, slug: &'static str, kind: Kind) -> Entry {
        Entry {
            name,
            slug,
            kind,
            train_span: leak(format!("baselines.{slug}.train")),
            predict_span: leak(format!("baselines.{slug}.predict")),
        }
    }
}

fn rows() -> Vec<Entry> {
    let trained = |name, slug, train: Train| Entry::new(name, slug, Kind::Trained(train));
    let mut rows = vec![
        trained("Seq2Vis", "seq2vis", |c, ids| {
            Box::new(Seq2Vis::train(c, ids))
        }),
        trained("Transformer", "transformer", |c, ids| {
            Box::new(TransformerModel::train(c, ids))
        }),
        trained("ncNet", "ncnet", |c, ids| Box::new(NcNet::train(c, ids))),
        trained("RGVisNet", "rgvisnet", |c, ids| {
            Box::new(RgVisNet::train(c, ids))
        }),
        Entry::new("Chat2Vis", "chat2vis", Kind::ZeroShot),
        trained("T5-Small", "t5-small", |c, ids| {
            Box::new(T5Model::train(c, ids, T5Size::Small, PAPER_SEED ^ 0x75))
        }),
        trained("T5-Base", "t5-base", |c, ids| {
            Box::new(T5Model::train(c, ids, T5Size::Base, PAPER_SEED ^ 0x76))
        }),
    ];
    for profile in ModelProfile::all_inference() {
        rows.push(Entry::new(profile.name, profile.name, Kind::Llm(profile)));
    }
    rows
}

fn llm_config(profile: &ModelProfile) -> LlmEvalConfig {
    LlmEvalConfig {
        shots: 20,
        token_budget: profile.context_tokens,
        workers: Some(WORKERS),
        ..Default::default()
    }
}

/// The test ids of a split in a seeded order. Scores do not depend on the
/// order, so every seed must reproduce the same table.
pub fn permuted(ids: &[usize], seed: u64) -> Vec<usize> {
    let mut ids = ids.to_vec();
    Rng::new(seed ^ 0x7AB1E3).shuffle(&mut ids);
    ids
}

/// One grid run: a report per cell (cross-domain, then in-domain, per row).
struct Grid {
    cells: Vec<(&'static str, [f64; 4])>,
    reports: Vec<EvalReport>,
    wall_s: f64,
    train_ms: BTreeMap<&'static str, Vec<f64>>,
}

fn run_grid(
    s: &Setting,
    cross_ids: &[usize],
    in_ids: &[usize],
    traced: bool,
    latencies: &Mutex<Vec<f64>>,
) -> Grid {
    let started = Instant::now();
    let mut grid = Grid {
        cells: Vec::new(),
        reports: Vec::new(),
        wall_s: 0.0,
        train_ms: BTreeMap::new(),
    };
    let chat2vis = Chat2Vis::new(PAPER_SEED ^ 0xC2);
    for entry in rows() {
        let mut cell = [0.0; 4];
        for (side, (train_ids, test_ids)) in [
            (&s.cross_split.train, cross_ids),
            (&s.in_split.train, in_ids),
        ]
        .into_iter()
        .enumerate()
        {
            let report = match &entry.kind {
                Kind::Trained(train) => {
                    let t = Instant::now();
                    let model = {
                        let _s = span(entry.train_span, 0);
                        train(&s.corpus, train_ids)
                    };
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    grid.train_ms.entry(entry.slug).or_default().push(ms);
                    eval_model(
                        s,
                        model.as_ref(),
                        entry.predict_span,
                        test_ids,
                        traced,
                        latencies,
                    )
                }
                Kind::ZeroShot => eval_model(
                    s,
                    &chat2vis,
                    entry.predict_span,
                    test_ids,
                    traced,
                    latencies,
                ),
                Kind::Llm(profile) => {
                    let llm = SimLlm::new(profile.clone(), PAPER_SEED ^ 0x11);
                    eval_llm(s, &llm, train_ids, test_ids, traced, latencies)
                }
            };
            let overall = report.overall();
            cell[2 * side] = overall.exact();
            cell[2 * side + 1] = overall.exec();
            grid.reports.push(report);
        }
        grid.cells.push((entry.name, cell));
    }
    grid.wall_s = started.elapsed().as_secs_f64();
    grid
}

thread_local! {
    /// (evaluation call, this thread's CPU time when it last finished an
    /// example).
    static LAST_DONE: Cell<Option<(u64, f64)>> = const { Cell::new(None) };
}

/// A progress callback recording the CPU time a worker spends between two
/// examples finishing on it, which is the later example's CPU time. Time
/// the worker waits for a core, or that the host steals, is not in it; the
/// grid's wall time is in `ops_per_s`. Each worker's first example in a
/// call has no such interval and is skipped.
fn example_timer(latencies: &Mutex<Vec<f64>>) -> impl Fn(usize, usize) + Sync + '_ {
    static CALLS: AtomicU64 = AtomicU64::new(1);
    let call = CALLS.fetch_add(1, Ordering::Relaxed);
    move |_, _| {
        let now = thread_cpu_s();
        if let Some((c, prev)) = LAST_DONE.with(|l| l.replace(Some((call, now)))) {
            if c == call {
                let ms = (now - prev) * 1e3;
                latencies.lock().expect("latency store").push(ms);
            }
        }
    }
}

fn eval_model(
    s: &Setting,
    model: &(dyn Nl2VisModel + Sync),
    predict_span: &'static str,
    ids: &[usize],
    traced: bool,
    latencies: &Mutex<Vec<f64>>,
) -> EvalReport {
    if !traced {
        return evaluate_model_with_progress(model, &s.corpus, ids, None, example_timer(latencies));
    }
    let model = TracedModel {
        model,
        span: predict_span,
    };
    traced_map(s, ids, |test| {
        let db = s.database(&test.db);
        let predicted = model.predict(&test.nl, db);
        let _s = span("eval.score", 0);
        let outcome = match predicted {
            Some(pred) => score_query(&pred, &test.vql, db),
            None => EvalOutcome {
                predicted: None,
                exact: false,
                exec: false,
                components_wrong: Vec::new(),
                parse_failed: true,
            },
        };
        (outcome, None)
    })
}

fn eval_llm(
    s: &Setting,
    llm: &SimLlm,
    train_ids: &[usize],
    ids: &[usize],
    traced: bool,
    latencies: &Mutex<Vec<f64>>,
) -> EvalReport {
    let config = llm_config(&llm.profile);
    if !traced {
        return evaluate_llm_with_progress(
            llm,
            &s.corpus,
            train_ids,
            ids,
            &config,
            None,
            example_timer(latencies),
        );
    }
    let candidates: Vec<&Example> = train_ids
        .iter()
        .filter_map(|id| s.corpus.example(*id))
        .collect();
    let pool = {
        let _s = span("prompt.pool_build", 0);
        DemoPool::new(&candidates)
    };
    let options = PromptOptions {
        format: config.format,
        answer: config.answer,
        token_budget: config.token_budget,
        chain_of_thought: config.chain_of_thought,
        role_play: config.role_play,
    };
    let client = TracedSim(llm);
    traced_map(s, ids, |test| {
        let db = s.database(&test.db);
        let demos = {
            let _s = span("prompt.select", 0);
            pick_demos_pooled(&pool, test, &config)
        };
        let prompt = {
            let _s = span("prompt.build", 0);
            build_prompt(&options, db, &test.nl, &demos, |d| s.database(&d.db))
        };
        count_prompt(prompt.text.len());
        let completion = client
            .try_complete_with(&prompt.text, &config.gen)
            .expect("an in-process model has no transport to fail");
        let outcome = {
            let _s = span("eval.score", 0);
            score_completion(&completion, &test.vql, db)
        };
        (outcome, Some(completion))
    })
}

/// The traced counterpart of the runner's parallel map: [`WORKERS`]
/// threads claim examples from a shared counter, each example one
/// `eval.example` span and request; results keep input order. `score`
/// returns the outcome and, for an LLM, the completion.
fn traced_map(
    s: &Setting,
    ids: &[usize],
    score: impl Fn(&Example) -> (EvalOutcome, Option<String>) + Sync,
) -> EvalReport {
    static REQUESTS: AtomicU64 = AtomicU64::new(1);
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<ExampleResult>>> = ids.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..WORKERS {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(test) = ids.get(i).and_then(|id| s.corpus.example(*id)) else {
                    if i >= ids.len() {
                        break;
                    }
                    continue;
                };
                let _root = span("eval.example", REQUESTS.fetch_add(1, Ordering::Relaxed));
                let (outcome, completion) = score(test);
                *slots[i].lock().expect("result slot") = Some(ExampleResult {
                    id: test.id,
                    outcome,
                    is_join: test.is_join,
                    hardness: test.hardness,
                    completion,
                    transport_error: None,
                    trace_id: 0,
                });
            });
        }
    });
    EvalReport {
        results: slots
            .into_iter()
            .filter_map(|slot| slot.into_inner().expect("result slot"))
            .collect(),
        ..Default::default()
    }
}

/// Compares a grid with the golden table. Returns how many examples sit in
/// a split whose cell differs (each counts as a failed operation) and
/// whether every row is present.
fn check(grid: &Grid, cross: u64, ind: u64) -> (u64, bool) {
    let mut bad = 0u64;
    for ((name, got), (gold_name, gold)) in grid.cells.iter().zip(golden::TABLE3.iter()) {
        assert_eq!(name, gold_name, "grid rows follow the golden table");
        for (side, examples) in [cross, ind].into_iter().enumerate() {
            let (g, w) = (&got[2 * side..2 * side + 2], &gold[2 * side..2 * side + 2]);
            if g.iter().zip(w).any(|(a, b)| a.to_bits() != b.to_bits()) {
                eprintln!("table3: {name} gives {g:?}, the golden table has {w:?}");
                bad += examples;
            }
        }
    }
    (bad, grid.cells.len() == golden::TABLE3.len())
}

/// Prints sent, succeeded and failed for every cell of a grid, each cell
/// being one phase of the run.
fn log_cells(label: &str, grid: &Grid, cross_ids: &[usize], in_ids: &[usize]) {
    for (i, report) in grid.reports.iter().enumerate() {
        let (side, sent) = if i % 2 == 0 {
            ("cross-domain", cross_ids.len())
        } else {
            ("in-domain", in_ids.len())
        };
        let ok = report.results.iter().filter(|r| r.scored()).count();
        println!(
            "phase {label} {} {side}: sent {sent} ok {ok} failed {}",
            grid.cells[i / 2].0,
            sent - ok
        );
    }
    println!("phase {label} grid: {:.3} s", grid.wall_s);
}

/// Scored examples in a grid.
fn scored(grid: &Grid) -> u64 {
    grid.reports
        .iter()
        .flat_map(|r| r.results.iter())
        .filter(|r| r.scored())
        .count() as u64
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Report {
    let (s, setup_s) = repeat_setup(Setting::build);
    let cross_ids = permuted(&s.cross_split.test, seed);
    let in_ids = permuted(&s.in_split.test, seed);
    let per_row = (cross_ids.len() + in_ids.len()) as u64;
    let latencies = Mutex::new(Vec::new());

    // Every grid must reproduce the table; each is checked as it ends.
    let (mut attempted, mut done, mut bad, mut complete) = (0, 0, 0, true);
    let mut tally = |label: &str, g: &Grid| {
        log_cells(label, g, &cross_ids, &in_ids);
        let (b, c) = check(g, cross_ids.len() as u64, in_ids.len() as u64);
        bad += b;
        complete &= c;
        attempted += per_row * g.cells.len() as u64;
        done += scored(g);
    };

    // The accuracies and the render check of one grid.
    let summarize = |g: &Grid| {
        let mut acc = Accuracy::default();
        for r in g.reports.iter().flat_map(|r| r.results.iter()) {
            if r.scored() {
                acc.record(&r.outcome);
            }
        }
        (acc, render::render_reports(&s, &g.reports))
    };

    // Untraced grids repeat until `seconds` have passed, at least once; a
    // traced run makes one, the twin that prices its tracing. The summary
    // describes the first grid, or the traced grid when there is one.
    let started = Instant::now();
    let (mut plains, mut plain_wall_s, mut plain_scored) = (0, 0.0, 0);
    let mut summary = None;
    while plains == 0 || (!traced && started.elapsed().as_secs_f64() < seconds) {
        let g = run_grid(&s, &cross_ids, &in_ids, false, &latencies);
        plains += 1;
        plain_wall_s += g.wall_s;
        plain_scored += scored(&g);
        tally(&format!("untraced {plains}"), &g);
        if !traced && summary.is_none() {
            summary = Some(summarize(&g));
        }
    }
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    report.set("corpus.build_ms", s.build_ms);
    report.set("corpus.split_ms", s.split_ms);

    let traced_grid = traced.then(|| {
        trace::enable();
        let grid = run_grid(&s, &cross_ids, &in_ids, true, &Mutex::new(Vec::new()));
        trace::disable();
        tally("traced", &grid);
        trace::enable();
        summary = Some(summarize(&grid));
        trace::disable();
        grid
    });
    let (acc, rendered) = summary.expect("at least one grid is summarized");
    let missing = attempted - done;

    report.attempted = attempted;
    report.failed = (missing + bad).min(attempted);
    report.correct = bad == 0 && complete && missing == 0;
    report.set("exact_acc", acc.exact());
    report.set("exec_acc", acc.exec());
    report.set("chart_ok_frac", rendered);
    report.set(
        "ok_frac",
        (attempted - report.failed) as f64 / attempted as f64,
    );
    report.set("failed_frac", report.failed as f64 / attempted as f64);
    report.set("ops_per_s", plain_scored as f64 / plain_wall_s);
    let lat = latencies.into_inner().expect("latency store");
    let sorted = stats::sorted(lat.clone());
    report.set("p50_ms", stats::quantile(&sorted, 0.5));
    report.set("p90_ms", stats::quantile(&sorted, 0.9));
    report.set(
        "p99_ms",
        stats::quantile(&sorted, stats::tail_quantile(sorted.len()).min(0.99)),
    );
    report.set("samples", lat.len() as f64);

    if let Some(traced_grid) = &traced_grid {
        let plain_mean_s = plain_wall_s / plains as f64;
        report.set(
            "trace.overhead_frac",
            traced_grid.wall_s / plain_mean_s - 1.0,
        );
        for (slug, ms) in &traced_grid.train_ms {
            report.set(format!("baselines.{slug}.train_ms"), stats::mean(ms));
        }
        report.set("prompt.bytes", mean_prompt_bytes());
        let spans = trace::take();
        crate::report_layers(&mut report, &spans);
        crate::write_spans("table3", seed, &spans);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_reorder_the_test_split_without_changing_it() {
        let ids: Vec<usize> = (0..500).collect();
        let a = permuted(&ids, 1);
        let b = permuted(&ids, 2);
        assert_ne!(a, b, "a second seed changes the inputs");
        assert_eq!(a, permuted(&ids, 1), "a seed always gives the same inputs");
        let (mut sa, mut sb) = (a.clone(), b.clone());
        sa.sort_unstable();
        sb.sort_unstable();
        assert_eq!(sa, ids);
        assert_eq!(sb, ids);
    }

    #[test]
    fn grid_rows_follow_the_golden_table() {
        let names: Vec<&str> = rows().iter().map(|e| e.name).collect();
        let gold: Vec<&str> = golden::TABLE3.iter().map(|(n, _)| *n).collect();
        assert_eq!(names, gold);
    }
}
