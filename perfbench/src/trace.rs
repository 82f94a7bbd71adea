//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name (`<layer>.<call>`), a request id shared by every
//! span of one operation, a start, an end and a parent. Every request
//! has one root span named `e2e.*`: the end-to-end operation the user
//! waits for.
//!
//! Some layers have no public entry point inside the call that runs
//! them: `Session::query` parses, translates, syncs and optimizes in
//! one call. The traced run therefore *replays* those inner calls on
//! the same input just before the outer call and attributes the replay
//! spans to it as children. A span's self time is its duration minus
//! the durations of its children, so the outer span keeps only what
//! the replays do not account for (for `Session::query`, the table
//! sync). Replayed spans lie outside their parent's interval; nested
//! spans lie inside it.

use crate::util::median;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    pub id: u64,
    pub parent: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Replayed outside the parent's interval (see module docs).
    pub replay: bool,
}

impl Span {
    pub fn dur_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// One thread's span recorder. Disabled, it records nothing and costs
/// a branch per call.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// `lane` keeps span ids of concurrent threads apart.
    pub fn new(origin: Instant, enabled: bool, lane: u64) -> Tracer {
        Tracer {
            origin,
            enabled,
            next_id: lane << 40,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// A fresh span id, for a parent whose interval is known only after
    /// its children are recorded.
    pub fn reserve(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Record a span under a reserved id.
    #[allow(clippy::too_many_arguments)]
    pub fn record_as(
        &mut self,
        id: u64,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
        replay: bool,
    ) {
        if !self.enabled {
            return;
        }
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            req,
            id,
            parent,
            start_ns: ns(start),
            end_ns: ns(end),
            replay,
        });
    }

    /// Record a span and return its id.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.reserve();
        self.record_as(id, name, req, parent, start, end, false);
        id
    }

    /// Time `f` as a replay attributed to `parent`.
    pub fn replay<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        let id = self.reserve();
        self.record_as(id, name, req, Some(parent), start, Instant::now(), true);
        out
    }
}

/// Self time of every span, in milliseconds, keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, f64> {
    let mut child_ms: HashMap<u64, f64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ms.entry(p).or_default() += s.dur_ms();
        }
    }
    spans
        .iter()
        .map(|s| {
            (
                s.id,
                s.dur_ms() - child_ms.get(&s.id).copied().unwrap_or(0.0),
            )
        })
        .collect()
}

/// Per-call median self time of the spans named `name` (0 when none
/// was recorded: the layer is not on this workload's path).
pub fn median_self_ms(spans: &[Span], selfs: &HashMap<u64, f64>, name: &str) -> f64 {
    let v: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| selfs[&s.id])
        .collect();
    median(&v)
}

/// Total self time per layer (the span-name prefix), in milliseconds.
pub fn layer_totals(spans: &[Span], selfs: &HashMap<u64, f64>) -> BTreeMap<&'static str, f64> {
    let mut out = BTreeMap::new();
    for s in spans {
        let layer = s.name.split('.').next().unwrap_or(s.name);
        *out.entry(layer).or_default() += selfs[&s.id];
    }
    out
}

/// Structural checks of a span set: every parent exists in the same
/// request, roots are end-to-end spans, nested children lie inside
/// their parent, and the layers' self times add up to no more than the
/// end-to-end time.
pub fn check(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    let mut root_ms = 0.0;
    for s in spans {
        match s.parent {
            None if s.name.starts_with("e2e.") => root_ms += s.dur_ms(),
            None => return Err(format!("span {} has no parent", s.name)),
            Some(p) => {
                let parent = by_id
                    .get(&p)
                    .ok_or_else(|| format!("span {} lost its parent", s.name))?;
                if parent.req != s.req {
                    return Err(format!("span {} crosses requests", s.name));
                }
                if !s.replay && (s.start_ns < parent.start_ns || s.end_ns > parent.end_ns) {
                    return Err(format!("span {} leaves {}", s.name, parent.name));
                }
            }
        }
    }
    let selfs = self_times(spans);
    let layers: f64 = layer_totals(spans, &selfs).values().sum();
    if layers > root_ms * (1.0 + 1e-9) + 1e-6 {
        return Err(format!(
            "layer self times {layers:.3} ms exceed end-to-end {root_ms:.3} ms"
        ));
    }
    Ok(())
}

/// The spans as JSON lines.
pub fn to_jsonl(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"name\":\"{}\",\"req\":{},\"id\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"replay\":{}}}",
            s.name, s.req, s.id, parent, s.start_ns, s.end_ns, s.replay
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_and_checks_pass() {
        let origin = Instant::now();
        let mut tr = Tracer::new(origin, true, 0);
        let root = tr.reserve();
        let start = Instant::now();
        let inner = tr.reserve();
        tr.replay("lang.parse", 1, inner, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        let s = Instant::now();
        std::thread::sleep(Duration::from_millis(5));
        tr.record_as(
            inner,
            "session.query",
            1,
            Some(root),
            s,
            Instant::now(),
            false,
        );
        tr.record_as(root, "e2e.query", 1, None, start, Instant::now(), false);
        check(&tr.spans).unwrap();
        let selfs = self_times(&tr.spans);
        let dur = |name: &str| tr.spans.iter().find(|s| s.name == name).unwrap().dur_ms();
        let query = median_self_ms(&tr.spans, &selfs, "session.query");
        assert!((query - (dur("session.query") - dur("lang.parse"))).abs() < 1e-9);
        let root = median_self_ms(&tr.spans, &selfs, "e2e.query");
        assert!((root - (dur("e2e.query") - dur("session.query"))).abs() < 1e-9);
    }

    #[test]
    fn orphans_are_rejected() {
        let now = Instant::now();
        let mut tr = Tracer::new(now, true, 0);
        tr.record("exec.run", 1, None, now, now);
        assert!(check(&tr.spans).is_err());
    }
}
