//! The repository benchmark: paper-table eval throughput and
//! question → chart latency over HTTP, end to end and layer by layer.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <table3|chart-open|chart-20shot-zipf> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`
//! holding every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`). The traced run also writes its spans to
//! `.bench_out/trace-<workload>-seed<n>.jsonl`. See `benchmark/README.md`.

mod chart;
mod common;
mod golden;
mod layers;
mod loadgen;
mod render;
mod stats;
mod table3;
mod trace;

use common::Report;
use std::collections::BTreeMap;

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("ok_frac", "fraction"),
    ("exact_acc", "fraction"),
    ("exec_acc", "fraction"),
    ("chart_ok_frac", "fraction"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
];

/// Baseline slugs: the trained ones, then the zero-shot one.
const TRAINED: [&str; 6] = [
    "seq2vis",
    "transformer",
    "ncnet",
    "rgvisnet",
    "t5-small",
    "t5-base",
];
const ZERO_SHOT: &str = "chat2vis";

/// Per-layer metrics, printed by every traced run; a layer a workload
/// does not exercise reads 0.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &str)> = [
        ("corpus.build_ms", "ms"),
        ("corpus.split_ms", "ms"),
        ("prompt.pool_build_ms", "ms"),
        ("prompt.select_us", "us"),
        ("prompt.build_us", "us"),
        ("prompt.bytes", "bytes"),
        ("llm.complete_us", "us"),
        ("llm.parse_prompt_us", "us"),
        ("llm.parse_question_us", "us"),
        ("llm.ground_us", "us"),
        ("llm.gen_self_us", "us"),
    ]
    .iter()
    .map(|(n, u)| (n.to_string(), *u))
    .collect();
    for slug in TRAINED {
        out.push((format!("baselines.{slug}.train_ms"), "ms"));
    }
    for slug in TRAINED.iter().chain([&ZERO_SHOT]) {
        out.push((format!("baselines.{slug}.predict_us"), "us"));
    }
    out.extend(
        [
            ("eval.score_us", "us"),
            ("query.parse_us", "us"),
            ("query.exec_us", "us"),
            ("vega.build_us", "us"),
            ("client.rtt_us", "us"),
            ("server.handle_us", "us"),
            ("wire_us", "us"),
            ("server.requests", "count"),
            ("server.reused_conn_frac", "fraction"),
            ("server.start_ms", "ms"),
            ("cache.hit_ratio", "fraction"),
            ("cache.lookup_us", "us"),
            ("cache.evictions", "count"),
            ("gen.lag_p99_ms", "ms"),
            ("gen.sent", "count"),
            ("gen.ok", "count"),
            ("gen.failed", "count"),
            ("failed_frac", "fraction"),
            ("samples", "count"),
            ("p99_ms", "ms"),
            ("trace.overhead_frac", "fraction"),
        ]
        .iter()
        .map(|(n, u)| (n.to_string(), *u)),
    );
    out
}

/// Per-layer values derived from the traced run's spans: mean self time
/// per call of each layer that ran.
pub fn report_layers(report: &mut Report, spans: &[trace::Span]) {
    let layers = trace::layers(spans);
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let mut set = |metric: String, span: &str| {
        let layer = get(span);
        if layer.count > 0 {
            report.set(metric, layer.self_us());
        }
    };
    for (metric, span) in [
        ("prompt.select_us", "prompt.select"),
        ("prompt.build_us", "prompt.build"),
        ("llm.complete_us", "llm.complete"),
        ("llm.parse_prompt_us", "llm.parse_prompt"),
        ("llm.parse_question_us", "llm.parse_question"),
        ("llm.ground_us", "llm.ground"),
        ("eval.score_us", "eval.score"),
        ("query.parse_us", "query.parse"),
        ("query.exec_us", "query.exec"),
        ("vega.build_us", "vega.build"),
        ("client.rtt_us", "client.http"),
        ("cache.lookup_us", "cache"),
    ] {
        set(metric.to_string(), span);
    }
    for slug in TRAINED.iter().chain([&ZERO_SHOT]) {
        set(
            format!("baselines.{slug}.predict_us"),
            &format!("baselines.{slug}.predict"),
        );
    }
    let pool = get("prompt.pool_build");
    if pool.count > 0 {
        report.set("prompt.pool_build_ms", pool.self_us() / 1e3);
    }
    let complete = get("llm.complete");
    if complete.count > 0 {
        let stages: u64 = ["llm.parse_prompt", "llm.parse_question", "llm.ground"]
            .iter()
            .map(|s| get(s).total_ns)
            .sum();
        let gen_ns = complete.total_ns.saturating_sub(stages);
        report.set(
            "llm.gen_self_us",
            gen_ns as f64 / complete.count as f64 / 1e3,
        );
    }
}

/// Writes the traced run's spans under `.bench_out/`.
pub fn write_spans(workload: &str, seed: u64, spans: &[trace::Span]) {
    let path = std::path::PathBuf::from(format!(".bench_out/trace-{workload}-seed{seed}.jsonl"));
    match trace::write_jsonl(&path, spans) {
        Ok(()) => println!("wrote {} spans to {}", spans.len(), path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let get = |f: &str| flags.get(f).copied().ok_or(format!("missing {f}"));
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Renders the result line. Every listed metric is printed; a missing
/// end-to-end metric is a bug in the workload.
fn result_line(report: &Report, traced: bool) -> String {
    let names: Vec<(String, &str)> = if traced {
        per_layer()
    } else {
        END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .collect()
    };
    let metrics: Vec<String> = names
        .iter()
        .map(|(name, unit)| {
            let value = match report.metrics.get(name) {
                Some(v) => *v,
                None if traced => 0.0,
                None => panic!("workload did not measure {name}"),
            };
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    )
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("usage: --workload <table3|chart-open|chart-20shot-zipf> --seed <n> --seconds <s> --trace <0|1>\n{e}");
            std::process::exit(2);
        }
    };
    let mut report = match args.workload.as_str() {
        "table3" => table3::run(args.seed, args.seconds, args.trace),
        "chart-open" => chart::run(chart::Shape::Open, args.seed, args.seconds, args.trace),
        "chart-20shot-zipf" => chart::run(chart::Shape::Zipf, args.seed, args.seconds, args.trace),
        other => {
            eprintln!("unknown workload {other}");
            std::process::exit(2);
        }
    };
    report.set("peak_rss_mb", common::peak_rss_mb());
    println!("{}", result_line(&report, args.trace));
}

#[cfg(test)]
mod tests {
    use super::*;
    use nl2vis::data::Json;

    fn manifest() -> Json {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits next to the benchmark directory");
        Json::parse(&text).expect("BENCHMARK.json is JSON")
    }

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_array)
            .expect("metric list")
            .iter()
            .map(|m| {
                let field = |f| {
                    m.get(f)
                        .and_then(Json::as_str)
                        .expect("name and unit")
                        .to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn manifest_lists_exactly_the_printed_metrics() {
        let doc = manifest();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
    }

    #[test]
    fn result_line_holds_every_metric_and_no_other() {
        let mut report = Report {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            report.set(name, 1.25);
        }
        report.set("unlisted", 2.0);
        let doc = Json::parse(&result_line(&report, false)).expect("valid JSON");
        let metrics = match doc.get("metrics") {
            Some(Json::Object(m)) => m.clone(),
            other => panic!("metrics object, got {other:?}"),
        };
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("value").and_then(Json::as_f64), Some(1.25));
        let traced = Json::parse(&result_line(&report, true)).expect("valid JSON");
        match traced.get("metrics") {
            Some(Json::Object(m)) => assert_eq!(m.len(), per_layer().len()),
            other => panic!("metrics object, got {other:?}"),
        }
    }

    #[test]
    fn bad_arguments_are_refused() {
        let args = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
        assert!(parse_args(&args("--workload table3 --seed 1 --seconds 10 --trace 0")).is_ok());
        assert!(parse_args(&args("--workload table3 --seed 1 --seconds 10")).is_err());
        assert!(parse_args(&args("--workload table3 --seed x --seconds 10 --trace 0")).is_err());
        assert!(parse_args(&args("--workload table3 --seed 1 --seconds 10 --trace 2")).is_err());
        assert!(parse_args(&args("--bogus 1")).is_err());
    }
}
