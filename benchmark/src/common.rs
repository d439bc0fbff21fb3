//! What every workload shares: the corpus setting, set-up timing, the
//! result record and process memory.

use crate::stats;
use nl2vis::corpus::{Corpus, CorpusConfig, Split};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Seed of the paper-scale corpus, its splits and the model seeds: the
/// setting `ExperimentContext::full` uses for EXPERIMENTS.md.
pub const PAPER_SEED: u64 = 20240115;

/// How often a run repeats its set-up; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 5;

/// One run's outcome, before it is printed.
#[derive(Debug, Default)]
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: BTreeMap<String, f64>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.metrics.insert(name.into(), value);
    }
}

/// The full corpus with its in-domain and cross-domain splits.
pub struct Setting {
    pub corpus: Corpus,
    pub in_split: Split,
    pub cross_split: Split,
    pub build_ms: f64,
    pub split_ms: f64,
}

impl Setting {
    pub fn build() -> Setting {
        let started = Instant::now();
        let corpus = Corpus::build(&CorpusConfig::default());
        let build_ms = started.elapsed().as_secs_f64() * 1e3;
        let started = Instant::now();
        let in_split = corpus.split_in_domain(PAPER_SEED);
        let cross_split = corpus.split_cross_domain(PAPER_SEED);
        let split_ms = started.elapsed().as_secs_f64() * 1e3;
        Setting {
            corpus,
            in_split,
            cross_split,
            build_ms,
            split_ms,
        }
    }

    pub fn database(&self, name: &str) -> &nl2vis::data::Database {
        self.corpus
            .catalog
            .database(name)
            .expect("every corpus example names a catalog database")
    }
}

/// Runs a set-up [`SETUP_REPEATS`] times and keeps the last result. Each
/// earlier result is dropped before the next set-up starts, outside the
/// timed part. Returns the result and the median set-up time in seconds.
pub fn repeat_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let started = Instant::now();
        last = Some(setup());
        times.push(started.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), stats::median(&times))
}

/// Peak resident set of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the calling thread has used, in seconds. On 64-bit Linux this
/// is `CLOCK_THREAD_CPUTIME_ID`: time the thread waits for a core,
/// including time the host steals from the guest, is not in it. Elsewhere
/// it falls back to wall time since the first call.
pub fn thread_cpu_s() -> f64 {
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
        }
        const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call.
        let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
        assert_eq!(rc, 0, "the thread CPU clock is readable");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
    #[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
    {
        static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
        START.get_or_init(Instant::now).elapsed().as_secs_f64()
    }
}

static PROMPT_BYTES: AtomicU64 = AtomicU64::new(0);
static PROMPTS: AtomicU64 = AtomicU64::new(0);

/// Counts one prompt the traced run built, for `prompt.bytes`.
pub fn count_prompt(bytes: usize) {
    PROMPT_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    PROMPTS.fetch_add(1, Ordering::Relaxed);
}

/// Mean size of the prompts counted so far; 0 if none.
pub fn mean_prompt_bytes() -> f64 {
    let prompts = PROMPTS.load(Ordering::Relaxed);
    PROMPT_BYTES.load(Ordering::Relaxed) as f64 / prompts.max(1) as f64
}

/// A `'static` name for a span or metric built at run time; the benchmark
/// builds a handful, once.
pub fn leak(name: String) -> &'static str {
    Box::leak(name.into_boxed_str())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_thread_cpu_clock_leaves_out_time_spent_waiting() {
        let started = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(200));
        let slept = thread_cpu_s() - started;
        assert!(slept < 0.1, "a sleeping thread used {slept} s of CPU");

        let started = thread_cpu_s();
        let wall = Instant::now();
        let mut x = 0u64;
        while wall.elapsed().as_millis() < 50 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(
            thread_cpu_s() > started,
            "a busy thread's CPU clock advances"
        );
    }
}
