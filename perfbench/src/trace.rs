//! Spans recorded by the benchmark around its calls into each layer: kept
//! in memory, written out when the run ends, and reduced to per-layer self
//! times.

use serde_json::{Number, Value};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer name, e.g. `core.gcn`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start: f64,
    /// Seconds since the tracer was created.
    pub end: f64,
    /// The served request this span belongs to, if any.
    pub request: Option<u64>,
}

impl Span {
    /// Wall time covered.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Span recorder. A disabled tracer runs the wrapped calls and records
/// nothing.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Run `f` inside a span named `name` under `parent`; `f` receives the
    /// new span's id so nested calls can name it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        f: impl FnOnce(Option<u64>) -> R,
    ) -> R {
        if !self.enabled {
            return f(None);
        }
        let id = self.reserve();
        let start = Instant::now();
        let out = f(Some(id));
        self.push(id, parent, name, start, Instant::now(), None);
        out
    }

    /// Record an already-measured interval (e.g. a request timed by a
    /// client lane); returns its id, or `None` when disabled.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) -> Option<u64> {
        if !self.enabled {
            return None;
        }
        let id = self.reserve();
        self.push(id, parent, name, start, end, request);
        Some(id)
    }

    fn reserve(&self) -> u64 {
        // Ids are handed out under the same lock that stores spans; the
        // placeholder keeps them dense and unique.
        let mut spans = self.spans.lock().expect("span lock");
        let id = spans.len() as u64 + 1;
        spans.push(Span {
            id,
            parent: None,
            name: "",
            start: 0.0,
            end: 0.0,
            request: None,
        });
        id
    }

    fn push(
        &self,
        id: u64,
        parent: Option<u64>,
        name: &'static str,
        start: Instant,
        end: Instant,
        request: Option<u64>,
    ) {
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_secs_f64();
        self.spans.lock().expect("span lock")[id as usize - 1] = Span {
            id,
            parent,
            name,
            start: at(start),
            end: at(end),
            request,
        };
    }

    /// Every closed span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span lock")
            .iter()
            .filter(|s| !s.name.is_empty())
            .cloned()
            .collect()
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        let num = |x: f64| Value::Number(Number::F64(x));
        let opt = |x: Option<u64>| x.map_or(Value::Null, |v| Value::Number(Number::U64(v)));
        for s in self.spans() {
            let obj = Value::Object(vec![
                ("id".to_owned(), Value::Number(Number::U64(s.id))),
                ("parent".to_owned(), opt(s.parent)),
                ("name".to_owned(), Value::String(s.name.to_owned())),
                ("start".to_owned(), num(s.start)),
                ("end".to_owned(), num(s.end)),
                ("request".to_owned(), opt(s.request)),
            ]);
            writeln!(
                out,
                "{}",
                serde_json::to_string(&obj).expect("span serializes")
            )?;
        }
        out.flush()
    }
}

/// Self time of each span: its duration minus the part its children
/// cover (children of one parent never overlap in this benchmark).
pub fn self_seconds(spans: &[Span], span: &Span) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|c| c.parent == Some(span.id))
        .map(Span::seconds)
        .sum();
    (span.seconds() - children).max(0.0)
}

/// Self times of every span named `name`, in recording order.
pub fn self_times(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| self_seconds(spans, s))
        .collect()
}

/// Share of all `root`-named spans' wall time that no child span covers.
pub fn unattributed_fraction(spans: &[Span], root: &str) -> f64 {
    let (mut total, mut free) = (0.0, 0.0);
    for s in spans.iter().filter(|s| s.name == root) {
        total += s.seconds();
        free += self_seconds(spans, s);
    }
    if total > 0.0 {
        free / total
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_give_self_times() {
        let t = Tracer::new(true);
        t.span("root", None, |root| {
            t.span("child", root, |_| {
                std::thread::sleep(std::time::Duration::from_millis(20))
            });
            std::thread::sleep(std::time::Duration::from_millis(5));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let root = spans.iter().find(|s| s.name == "root").expect("root");
        let child = spans.iter().find(|s| s.name == "child").expect("child");
        assert_eq!(child.parent, Some(root.id));
        let own = self_seconds(&spans, root);
        assert!(own >= 0.004 && own < root.seconds());
        let free = unattributed_fraction(&spans, "root");
        assert!(free > 0.0 && free < 0.5, "{free}");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("root", None, |id| id), None);
        assert!(t.spans().is_empty());
    }
}
