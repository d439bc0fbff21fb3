//! The chart workloads: question → chart over HTTP against the shipped
//! completion server with its default configuration.
//!
//! - `chart-open`: 0-shot `Pipeline::run`, questions drawn uniformly from
//!   the whole corpus, open loop at fixed rates, no client cache.
//! - `chart-20shot-zipf`: `Pipeline::run_with_demos` with 20 similarity-
//!   selected demonstrations chosen at set-up, Zipf(1.1) draws over the
//!   in-domain test questions, closed loop, a bounded completion cache
//!   well below the number of distinct questions.
//!
//! One process generates all load with [`THREADS`] threads sharing one
//! keep-alive `HttpLlmClient` (so at most [`THREADS`] connections). Every
//! HTTP completion is checked against the in-process `SimLlm` on the same
//! prompt once the timed phases are over.

use crate::common::{count_prompt, mean_prompt_bytes, repeat_setup, Report, Setting, PAPER_SEED};
use crate::layers::{replay_sim_stages, take_last, Recording, Shared, Spanned};
use crate::loadgen::{self, closed_loop, open_loop, Phase};
use crate::render::{parse_answer, render_query};
use crate::trace::{self, span};
use crate::{stats, write_spans};
use nl2vis::cache::{CachedLlmClient, CompletionCache};
use nl2vis::data::rng::Rng;
use nl2vis::data::Json;
use nl2vis::eval::score_completion;
use nl2vis::llm::http::{CompletionServer, HttpLlmClient};
use nl2vis::llm::{GenOptions, LlmClient, ModelProfile, SimLlm};
use nl2vis::prompt::select::DemoPool;
use nl2vis::prompt::{build_prompt, Prompt, PromptOptions};
use nl2vis::Pipeline;
use std::collections::HashMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Load-generator threads, each with at most one connection in use.
const THREADS: usize = 2;
/// The model every chart request asks for.
const MODEL: &str = "gpt-4";
/// Demonstrations per prompt on the 20-shot workload.
const SHOTS: usize = 20;
/// Zipf exponent of the 20-shot workload's question draw.
const ZIPF_S: f64 = 1.1;
/// Completion-cache entries on the 20-shot workload, against 522 distinct
/// in-domain test questions.
const CACHE_CAPACITY: usize = 64;
/// The open loop's nominal rate, where its latency is reported.
const NOMINAL_RPS: f64 = 800.0;
/// Share of an untraced `chart-open` run spent at the nominal rate; the
/// ladder search takes the rest.
const NOMINAL_SHARE: f64 = 0.4;
/// Ladder rungs one search runs: enough to bisect [`ladder`].
const RUNGS_PER_SEARCH: usize = 6;
/// Consecutive windows of the measured phase whose p50s, p90s and
/// completion rates are reduced to their medians for `p50_ms`, `p90_ms` and
/// the closed loop's `ops_per_s`.
const WINDOWS: usize = 10;
/// Latency limit on the tail percentile of an open-loop phase. A rung
/// also fails, and stops early, once the generator lags by this much.
const LIMIT_MS: f64 = 50.0;

/// The fixed ladder of open-loop rates: 600/s rising in steps of 5% to
/// about 5,900/s.
fn ladder() -> Vec<f64> {
    (0..48).map(|k| (600.0 * 1.05f64.powi(k)).round()).collect()
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Open,
    Zipf,
}

impl Shape {
    fn name(self) -> &'static str {
        match self {
            Shape::Open => "chart-open",
            Shape::Zipf => "chart-20shot-zipf",
        }
    }
}

/// Everything one chart run talks to. Built in the timed set-up.
pub struct Rig {
    setting: Setting,
    server: CompletionServer,
    /// The model the server hosts, for the output check.
    reference: SimLlm,
    options: PromptOptions,
    /// Corpus ids of the questions that may be asked.
    questions: Vec<usize>,
    /// Demonstration ids per question (empty at 0-shot).
    demos: Vec<Vec<usize>>,
    /// Cumulative Zipf weights over `questions` (empty: uniform draws).
    zipf: Vec<f64>,
    cache: Option<Arc<CompletionCache>>,
    chain: Shared,
    pipeline: Pipeline,
    start_ms: f64,
    pool_build_ms: f64,
}

/// The completion chain the pipeline and the traced path share,
/// `Recording(cache?(client.http))` with a span at each boundary, and the
/// pipeline over it. The cache sits where `Pipeline::with_completion_cache`
/// puts it, directly around the client.
fn connect(
    addr: SocketAddr,
    cache: Option<&Arc<CompletionCache>>,
    options: &PromptOptions,
) -> (Shared, Pipeline) {
    let http = Spanned {
        name: "client.http",
        inner: HttpLlmClient::new(addr, MODEL),
    };
    let chain = match cache {
        Some(cache) => Shared(Arc::new(Recording(Spanned {
            name: "cache",
            inner: CachedLlmClient::with_cache(http, Arc::clone(cache)),
        }))),
        None => Shared(Arc::new(Recording(http))),
    };
    let mut pipeline = Pipeline::with_client(Box::new(chain.clone()));
    pipeline.options = options.clone();
    (chain, pipeline)
}

fn model() -> SimLlm {
    SimLlm::new(
        ModelProfile::by_name(MODEL).expect("the model profile exists"),
        PAPER_SEED ^ 0x11,
    )
}

impl Rig {
    /// Builds the corpus and starts a default server hosting the model.
    pub fn new(shape: Shape) -> Rig {
        let started = Instant::now();
        let server = CompletionServer::start(model()).expect("a loopback server starts");
        let start_ms = started.elapsed().as_secs_f64() * 1e3;
        Rig::over(shape, Setting::build(), server, start_ms)
    }

    /// Builds the rig over a given corpus and running server.
    pub fn over(shape: Shape, setting: Setting, server: CompletionServer, start_ms: f64) -> Rig {
        let reference = model();
        let options = PromptOptions {
            token_budget: reference.profile.context_tokens,
            ..PromptOptions::default()
        };
        let (mut demos, mut zipf, mut pool_build_ms) = (Vec::new(), Vec::new(), 0.0);
        let questions = match shape {
            Shape::Open => setting.corpus.examples.iter().map(|e| e.id).collect(),
            Shape::Zipf => {
                // Which question holds which Zipf rank is fixed, so every
                // seed meets the same popular questions and the same cache
                // shard layout; the seed draws the request sequence.
                let mut questions = setting.in_split.test.clone();
                Rng::new(PAPER_SEED ^ 0xC4A27).shuffle(&mut questions);
                let candidates: Vec<_> = setting
                    .in_split
                    .train
                    .iter()
                    .filter_map(|id| setting.corpus.example(*id))
                    .collect();
                let started = Instant::now();
                let pool = DemoPool::new(&candidates);
                pool_build_ms = started.elapsed().as_secs_f64() * 1e3;
                demos = questions
                    .iter()
                    .map(|id| {
                        let q = setting.corpus.example(*id).expect("split ids exist");
                        let picked = pool.select_similar(&q.nl, SHOTS, q.id);
                        picked.iter().map(|d| d.id).collect()
                    })
                    .collect();
                let mut total = 0.0;
                zipf = (1..=questions.len())
                    .map(|rank| {
                        total += (rank as f64).powf(-ZIPF_S);
                        total
                    })
                    .collect();
                questions
            }
        };
        let cache =
            (shape == Shape::Zipf).then(|| Arc::new(CompletionCache::in_memory(CACHE_CAPACITY)));
        let (chain, pipeline) = connect(server.address(), cache.as_ref(), &options);
        Rig {
            setting,
            server,
            reference,
            options,
            questions,
            demos,
            zipf,
            cache,
            chain,
            pipeline,
            start_ms,
            pool_build_ms,
        }
    }

    /// Starts over with an empty completion cache, if the workload has one.
    fn fresh_cache(&mut self) {
        if self.cache.is_some() {
            let cache = Arc::new(CompletionCache::in_memory(CACHE_CAPACITY));
            (self.chain, self.pipeline) =
                connect(self.server.address(), Some(&cache), &self.options);
            self.cache = Some(cache);
        }
    }

    /// A question index drawn from the workload's distribution.
    fn draw(&self, rng: &mut Rng) -> usize {
        match self.zipf.last() {
            None => rng.below_usize(self.questions.len()),
            Some(total) => {
                let u = rng.f64() * total;
                self.zipf
                    .partition_point(|&c| c <= u)
                    .min(self.zipf.len() - 1)
            }
        }
    }

    fn example(&self, q: usize) -> &nl2vis::corpus::Example {
        self.setting
            .corpus
            .example(self.questions[q])
            .expect("question ids exist")
    }

    fn demo_refs(&self, q: usize) -> Vec<&nl2vis::corpus::Example> {
        self.demos.get(q).map_or_else(Vec::new, |ids| {
            ids.iter()
                .map(|id| self.setting.corpus.example(*id).expect("demo ids exist"))
                .collect()
        })
    }

    fn prompt(&self, q: usize) -> Prompt {
        let s = &self.setting;
        let test = self.example(q);
        build_prompt(
            &self.options,
            s.database(&test.db),
            &test.nl,
            &self.demo_refs(q),
            |d| s.database(&d.db),
        )
    }

    /// One question → chart request; returns whether the chart rendered.
    /// Untraced, it is one pipeline call plus the Vega-Lite build. Traced,
    /// the benchmark makes the same public calls itself, one span each.
    fn ask(&self, q: usize) -> bool {
        static REQUESTS: AtomicU64 = AtomicU64::new(1);
        let s = &self.setting;
        let test = self.example(q);
        let db = s.database(&test.db);
        if !trace::enabled() {
            let demos = self.demo_refs(q);
            return match self
                .pipeline
                .run_with_demos(db, &test.nl, &demos, |d| s.database(&d.db))
            {
                Ok(viz) => {
                    black_box(viz.vega_lite());
                    true
                }
                Err(_) => false,
            };
        }
        let _root = span("chart.request", REQUESTS.fetch_add(1, Ordering::Relaxed));
        let prompt = {
            let _s = span("prompt.build", 0);
            self.prompt(q)
        };
        count_prompt(prompt.text.len());
        match self
            .chain
            .try_complete_with(&prompt.text, &GenOptions::default())
        {
            Ok(text) => parse_answer(&text).is_some_and(|vql| render_query(&vql, db)),
            Err(_) => false,
        }
    }

    /// Runs one timed phase, keeping every distinct answer for the output
    /// check.
    fn phase(&self, load: Load, answers: &Answers) -> Phase {
        let op = |q: usize| {
            let rendered = self.ask(q);
            let Some(Ok(text)) = take_last() else {
                return false;
            };
            let mut answers = answers.lock().expect("answer store");
            let seen = answers.entry(q as u32).or_default();
            match seen.iter_mut().find(|s| s.text == text) {
                Some(s) => s.count += 1,
                None => seen.push(Seen {
                    text,
                    rendered,
                    count: 1,
                }),
            }
            true
        };
        match load {
            Load::Open {
                rps,
                seconds,
                seed,
                rung,
            } => {
                let give_up = rung.then(|| Duration::from_secs_f64(LIMIT_MS / 1e3));
                let mut rng = Rng::new(seed);
                let duration = Duration::from_secs_f64(seconds);
                let draws: Vec<usize> = (0..loadgen::due(rps, duration))
                    .map(|_| self.draw(&mut rng))
                    .collect();
                open_loop(rps, duration, THREADS, give_up, |i| op(draws[i]))
            }
            Load::Closed { seconds, seed } => {
                // Thread streams start at outputs of one generator, so no
                // two of them are shifted copies of each other.
                let mut master = Rng::new(seed);
                let streams: Vec<Mutex<Rng>> = (0..THREADS)
                    .map(|_| Mutex::new(Rng::new(master.next_u64())))
                    .collect();
                closed_loop(Duration::from_secs_f64(seconds), THREADS, |t| {
                    let q = self.draw(&mut streams[t].lock().expect("draw stream"));
                    op(q)
                })
            }
        }
    }

    /// Checks every HTTP completion against the in-process model on the
    /// same prompt, and scores each distinct question's first answer once
    /// against gold.
    fn verify(&self, answers: &HashMap<u32, Vec<Seen>>) -> Verdict {
        let mut verdict = Verdict::default();
        let mut questions: Vec<&u32> = answers.keys().collect();
        questions.sort_unstable();
        for q in questions {
            let seen = &answers[q];
            let prompt = self.prompt(*q as usize);
            let want = {
                let _s = span("llm.complete", 0);
                self.reference
                    .complete_with(&prompt.text, &GenOptions::default())
            };
            if trace::enabled() {
                replay_sim_stages(&self.reference, &prompt.text, &want);
            }
            verdict.mismatched += seen
                .iter()
                .filter(|s| s.text != want)
                .map(|s| s.count)
                .sum::<u64>();
            let test = self.example(*q as usize);
            let outcome = {
                let _s = span("eval.score", 0);
                score_completion(&seen[0].text, &test.vql, self.setting.database(&test.db))
            };
            verdict.distinct += 1;
            verdict.exact += u64::from(outcome.exact);
            verdict.exec += u64::from(outcome.exec);
            verdict.rendered += u64::from(seen[0].rendered);
        }
        verdict
    }
}

/// A distinct completion the client received for one question.
pub struct Seen {
    text: String,
    /// The chart parsed, executed and rendered.
    rendered: bool,
    /// How many requests received it.
    count: u64,
}

/// Every distinct completion received, per question index.
type Answers = Mutex<HashMap<u32, Vec<Seen>>>;

#[derive(Debug, Default)]
struct Verdict {
    mismatched: u64,
    distinct: u64,
    exact: u64,
    exec: u64,
    rendered: u64,
}

#[derive(Debug, Clone, Copy)]
enum Load {
    /// `rung`: a ladder rung, which gives up once its backlog misses the
    /// latency limit.
    Open {
        rps: f64,
        seconds: f64,
        seed: u64,
        rung: bool,
    },
    Closed {
        seconds: f64,
        seed: u64,
    },
}

/// Server counters scraped from `GET /metrics.json`.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerStats {
    pub completions: f64,
    pub http_requests: f64,
    pub reused: f64,
    pub faults: f64,
    pub handle_count: f64,
    pub handle_sum_us: f64,
}

impl ServerStats {
    fn minus(self, before: ServerStats) -> ServerStats {
        ServerStats {
            completions: self.completions - before.completions,
            // The later scrape is itself counted before it answers.
            http_requests: self.http_requests - before.http_requests - 1.0,
            reused: self.reused - before.reused,
            faults: self.faults - before.faults,
            handle_count: self.handle_count - before.handle_count,
            handle_sum_us: self.handle_sum_us - before.handle_sum_us,
        }
    }
}

/// Reads the server's `nl2vis.metrics.v1` snapshot over its HTTP surface.
pub fn scrape(addr: SocketAddr) -> Result<ServerStats, String> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_secs(2))
        .map_err(|e| format!("connect: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(b"GET /metrics.json HTTP/1.1\r\nHost: bench\r\nConnection: close\r\n\r\n")
        .map_err(|e| format!("write: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("read: {e}"))?;
    let raw = String::from_utf8(raw).map_err(|e| e.to_string())?;
    let (head, body) = raw.split_once("\r\n\r\n").ok_or("no header end")?;
    if !head.starts_with("HTTP/1.1 200") {
        return Err(format!("status line {:?}", head.lines().next()));
    }
    let doc = Json::parse(body).map_err(|e| format!("json: {e}"))?;
    if doc.get("format").and_then(Json::as_str) != Some("nl2vis.metrics.v1") {
        return Err("not an nl2vis.metrics.v1 snapshot".into());
    }
    let counter = |name: &str| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    let handle = doc
        .get("histograms")
        .and_then(|h| h.get("server.handle.duration_us"));
    let field = |name: &str| {
        handle
            .and_then(|h| h.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    Ok(ServerStats {
        completions: counter("llm.requests_total"),
        http_requests: counter("server.http_requests_total"),
        reused: counter("server.requests_on_reused_conn"),
        faults: counter("server.faults_injected_total"),
        handle_count: field("count"),
        handle_sum_us: field("sum"),
    })
}

/// A phase's latency at `q` in ms, with failures ranked beyond any limit;
/// a quantile that falls among failures reads as twice the phase's
/// schedule, the longest a request may take before it counts as failed.
fn latency_ms(p: &Phase, q: f64) -> f64 {
    p.latency_ms(q).unwrap_or(2e3 * p.wall_s.max(1.0))
}

/// The phase's latency at `q` for `p50_ms` and `p90_ms`: windowed (see
/// [`stats::windowed_quantile`]) when every request succeeded, otherwise
/// the whole phase's, where the failures rank beyond any latency.
fn windowed_ms(p: &Phase, q: f64) -> f64 {
    if p.ok == p.due {
        stats::windowed_quantile(&p.latencies_ms, WINDOWS, q)
    } else {
        latency_ms(p, q)
    }
}

/// The tail quantile a phase supports, capped at p99.
fn tail(p: &Phase) -> f64 {
    stats::tail_quantile(p.due as usize).min(0.99)
}

/// Totals over every timed phase of a run, and the server's view of the
/// latest one.
struct Meter {
    /// Requests due, less those a ladder rung skipped after giving up.
    attempted: u64,
    failed: u64,
    faults: f64,
    scrapes_ok: bool,
    last: ServerStats,
}

impl Meter {
    /// Runs one phase between two scrapes of the server's metrics and
    /// prints what it sent, what succeeded and what failed.
    fn phase(&mut self, rig: &Rig, name: &str, load: Load, answers: &Answers) -> Phase {
        let before = scrape(rig.server.address());
        let p = rig.phase(load, answers);
        let after = scrape(rig.server.address());
        match (before, after) {
            (Ok(b), Ok(a)) => {
                self.last = a.minus(b);
                self.faults += self.last.faults;
            }
            (b, a) => {
                eprintln!("metrics scrape failed: {:?} {:?}", b.err(), a.err());
                self.scrapes_ok = false;
            }
        }
        self.attempted += p.ok + p.failed;
        self.failed += p.failed;
        println!(
            "phase {name}: due {} sent {} ok {} failed {} skipped {}; p50 {:.3} ms, p{} {:.3} ms; server saw {} completions",
            p.due,
            p.sent,
            p.ok,
            p.failed,
            p.skipped,
            latency_ms(&p, 0.5),
            tail(&p) * 100.0,
            latency_ms(&p, tail(&p)),
            self.last.completions,
        );
        p
    }
}

pub fn run(shape: Shape, seed: u64, seconds: f64, traced: bool) -> Report {
    let (mut rig, setup_s) = repeat_setup(|| Rig::new(shape));
    let mut report = Report::default();
    report.set("setup_s", setup_s);
    report.set("corpus.build_ms", rig.setting.build_ms);
    report.set("corpus.split_ms", rig.setting.split_ms);
    report.set("server.start_ms", rig.start_ms);
    report.set("prompt.pool_build_ms", rig.pool_build_ms);

    let answers = Answers::default();
    let mut meter = Meter {
        attempted: 0,
        failed: 0,
        faults: 0.0,
        scrapes_ok: true,
        last: ServerStats::default(),
    };
    // Every phase draws its inputs from its own seed, taken from this one.
    let mut phase_seeds = Rng::new(seed);
    let main_seed = phase_seeds.next_u64();
    let load = |seconds: f64| match shape {
        Shape::Open => Load::Open {
            rps: NOMINAL_RPS,
            seconds,
            seed: main_seed,
            rung: false,
        },
        Shape::Zipf => Load::Closed {
            seconds,
            seed: main_seed,
        },
    };

    // Untraced, the main phase is the measurement. Traced, an untraced
    // half runs first and a traced half over the same inputs follows, on
    // a fresh cache, to price the tracing.
    let measured = if traced {
        let plain = meter.phase(&rig, "untraced", load(seconds / 2.0), &answers);
        rig.fresh_cache();
        trace::enable();
        let p = meter.phase(&rig, "traced", load(seconds / 2.0), &answers);
        trace::disable();
        let server = meter.last;
        report.set("p99_ms", latency_ms(&plain, tail(&plain)));
        let overhead = stats::mean(&p.latencies_ms) / stats::mean(&plain.latencies_ms) - 1.0;
        report.set("trace.overhead_frac", overhead);
        report.set("server.requests", server.completions);
        report.set(
            "server.handle_us",
            server.handle_sum_us / server.handle_count.max(1.0),
        );
        report.set(
            "server.reused_conn_frac",
            server.reused / server.http_requests.max(1.0),
        );
        p
    } else {
        let share = if shape == Shape::Open {
            NOMINAL_SHARE
        } else {
            1.0
        };
        meter.phase(&rig, "main", load(seconds * share), &answers)
    };
    if let Some(cache) = &rig.cache {
        let c = cache.stats();
        report.set("cache.hit_ratio", c.hit_rate());
        report.set("cache.evictions", c.evictions as f64);
    }

    // The ladder: bisect for the highest rung whose tail meets the limit
    // with every request sent and served in time.
    let mut max_rps = 0.0;
    if shape == Shape::Open && !traced {
        let rungs = ladder();
        let rung_seconds = seconds * (1.0 - NOMINAL_SHARE) / RUNGS_PER_SEARCH as f64;
        let (mut pass, mut fail) = (None, rungs.len());
        while fail - pass.map_or(0, |p| p + 1) > 0 {
            let i = (pass.map_or(0, |p| p + 1) + fail) / 2;
            let load = Load::Open {
                rps: rungs[i],
                seconds: rung_seconds,
                seed: phase_seeds.next_u64(),
                rung: true,
            };
            let p = meter.phase(&rig, &format!("ladder {} rps", rungs[i]), load, &answers);
            if p.failed == 0 && p.skipped == 0 && latency_ms(&p, tail(&p)) <= LIMIT_MS {
                pass = Some(i);
            } else {
                fail = i;
            }
        }
        max_rps = pass.map_or(0.0, |i| rungs[i]);
    }

    let answers = answers.into_inner().expect("answer store");
    if traced {
        trace::enable();
    }
    let verdict = rig.verify(&answers);
    trace::disable();

    let attempted = meter.attempted;
    let failed = (meter.failed + verdict.mismatched).min(attempted);
    let injected = rig.server.faults().injected() as f64 + meter.faults;
    if verdict.mismatched > 0 {
        eprintln!(
            "{} HTTP completions differ from the in-process model",
            verdict.mismatched
        );
    }
    if injected > 0.0 {
        eprintln!("the server injected {injected} faults");
    }
    report.attempted = attempted;
    report.failed = failed;
    report.correct =
        verdict.mismatched == 0 && injected == 0.0 && meter.scrapes_ok && verdict.distinct > 0;
    let distinct = verdict.distinct.max(1) as f64;
    report.set("exact_acc", verdict.exact as f64 / distinct);
    report.set("exec_acc", verdict.exec as f64 / distinct);
    report.set("chart_ok_frac", verdict.rendered as f64 / distinct);
    report.set(
        "ok_frac",
        (attempted - failed) as f64 / attempted.max(1) as f64,
    );
    report.set("failed_frac", failed as f64 / attempted.max(1) as f64);
    report.set("p50_ms", windowed_ms(&measured, 0.5));
    report.set("p90_ms", windowed_ms(&measured, 0.9));
    report.set("samples", measured.latencies_ms.len() as f64);
    report.set(
        "ops_per_s",
        match shape {
            Shape::Open => max_rps,
            Shape::Zipf => stats::windowed_rate(&measured.ends_s, WINDOWS),
        },
    );
    report.set("gen.sent", measured.sent as f64);
    report.set("gen.ok", measured.ok as f64);
    report.set("gen.failed", measured.failed as f64);
    let lags = stats::sorted(measured.lags_ms.clone());
    report.set(
        "gen.lag_p99_ms",
        stats::quantile(&lags, stats::tail_quantile(lags.len()).min(0.99)),
    );

    if traced {
        report.set("prompt.bytes", mean_prompt_bytes());
        let spans = trace::take();
        crate::report_layers(&mut report, &spans);
        let rtt = report.metrics.get("client.rtt_us").copied().unwrap_or(0.0);
        let handle = report.metrics["server.handle_us"];
        report.set("wire_us", rtt - handle);
        write_spans(shape.name(), seed, &spans);
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis::llm::{Fault, FaultInjector};

    fn open(seed: u64) -> Load {
        Load::Open {
            rps: 50.0,
            seconds: 0.4,
            seed,
            rung: false,
        }
    }

    fn asked(answers: &Answers) -> Vec<u32> {
        let mut q: Vec<u32> = answers.lock().unwrap().keys().copied().collect();
        q.sort_unstable();
        q
    }

    #[test]
    fn a_second_seed_asks_other_questions_and_still_matches_the_model() {
        let rig = Rig::new(Shape::Open);
        let (a, b) = (Answers::default(), Answers::default());
        for (seed, answers) in [(1, &a), (2, &b)] {
            let p = rig.phase(open(seed), answers);
            assert_eq!((p.due, p.failed), (20, 0));
        }
        assert_ne!(asked(&a), asked(&b), "the seed draws the questions");
        for answers in [a, b] {
            let verdict = rig.verify(&answers.into_inner().unwrap());
            assert_eq!(verdict.mismatched, 0);
            assert!(verdict.distinct > 0);
        }
    }

    #[test]
    fn a_backend_answering_500_fails_its_requests() {
        let server = CompletionServer::start_with_faults(
            model(),
            Arc::clone(nl2vis::obs::global()),
            FaultInjector::script(vec![Fault::Http500; 5]),
        )
        .unwrap();
        let rig = Rig::over(Shape::Open, Setting::build(), server, 0.0);
        let before = scrape(rig.server.address()).unwrap();
        let answers = Answers::default();
        let p = rig.phase(open(3), &answers);
        let after = scrape(rig.server.address()).unwrap().minus(before);
        assert_eq!((p.due, p.ok, p.failed), (20, 15, 5));
        assert_eq!(
            p.latencies_ms.len(),
            15,
            "a 500 is not timed as a fast answer"
        );
        assert_eq!(
            p.latency_ms(0.9),
            None,
            "the failures miss any latency limit"
        );
        assert_eq!(after.faults, 5.0, "the scrape sees the injected faults");
    }
}
