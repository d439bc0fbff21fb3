//! In-memory span recorder for the traced run.
//!
//! Spans are opened around the benchmark's calls into each layer. A span's
//! parent is the span open on the same thread when it started, and it
//! inherits that parent's request id. Nothing is recorded unless
//! [`enable`] was called, so the untraced run pays one atomic load per
//! span site.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    /// Open spans on this thread: (span id, request id).
    static STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

/// Starts recording spans.
pub fn enable() {
    epoch();
    ENABLED.store(true, Ordering::SeqCst);
}

/// Stops recording spans.
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Removes and returns every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span store poisoned"))
}

/// An open span; closes when dropped.
pub struct Guard(Option<(Span, usize)>);

/// Opens a span. `request` 0 inherits the enclosing span's request id.
pub fn span(name: &'static str, request: u64) -> Guard {
    if !enabled() {
        return Guard(None);
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, request, depth) = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let (parent, inherited) = s.last().copied().unwrap_or((0, 0));
        let request = if request == 0 { inherited } else { request };
        s.push((id, request));
        (parent, request, s.len())
    });
    Guard(Some((
        Span {
            name,
            id,
            parent,
            request,
            start_ns: now_ns(),
            end_ns: 0,
        },
        depth,
    )))
}

impl Drop for Guard {
    fn drop(&mut self) {
        if let Some((mut span, depth)) = self.0.take() {
            span.end_ns = now_ns();
            STACK.with(|s| s.borrow_mut().truncate(depth - 1));
            if let Ok(mut spans) = SPANS.lock() {
                spans.push(span);
            }
        }
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part covered by child spans.
    pub self_ns: u64,
}

impl Layer {
    /// Mean self time in microseconds; 0 when the layer never ran.
    pub fn self_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e3
        }
    }
}

/// Sums count, duration and self time per span name. Children of one span
/// run on its thread one after another, so their durations never overlap.
pub fn layers(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_ns.entry(s.parent).or_default() += s.duration_ns();
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for s in spans {
        let layer = out.entry(s.name).or_default();
        layer.count += 1;
        layer.total_ns += s.duration_ns();
        layer.self_ns += s
            .duration_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    out
}

/// Writes spans as JSON lines.
pub fn write_jsonl(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_at(name: &'static str, id: u64, parent: u64, start: u64, end: u64) -> Span {
        Span {
            name,
            id,
            parent,
            request: 1,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn spans_nest_and_inherit_the_request() {
        enable();
        {
            let _root = span("test.root", 77);
            let _child = span("test.child", 0);
        }
        disable();
        let spans: Vec<Span> = take()
            .into_iter()
            .filter(|s| s.name.starts_with("test."))
            .collect();
        let root = spans.iter().find(|s| s.name == "test.root").unwrap();
        let child = spans.iter().find(|s| s.name == "test.child").unwrap();
        assert_eq!((root.parent, root.request), (0, 77));
        assert_eq!((child.parent, child.request), (root.id, 77));
        assert!(root.start_ns <= child.start_ns && child.end_ns <= root.end_ns);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span_at("root", 1, 0, 0, 100),
            span_at("a", 2, 1, 10, 40),
            span_at("b", 3, 1, 50, 70),
            span_at("leaf", 4, 2, 15, 25),
        ];
        let l = layers(&spans);
        assert_eq!(l["root"].self_ns, 50);
        assert_eq!(l["a"].self_ns, 20);
        assert_eq!(l["b"].self_ns, 20);
        assert_eq!(l["leaf"].self_ns, 10);
        assert_eq!(l["root"].total_ns, 100);
    }
}
