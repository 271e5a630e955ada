//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! A span records a call's name, the layer it drives, its start and end
//! (nanoseconds since the recorder was created), the enclosing span and
//! the rep it belongs to. Spans stay in memory and are written out once,
//! when the run ends. A disabled recorder records nothing, so the same
//! workload code serves the untraced and the traced reps.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The call, e.g. `Kernel::run_on_cluster`.
    pub name: &'static str,
    /// The layer the call drives, e.g. `hulkv-cluster`.
    pub layer: &'static str,
    /// The rep the span belongs to.
    pub rep: u32,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Units of simulated work the call did (cycles, tiles or bytes, as
    /// the span's name implies); 0 when not annotated.
    pub work: u64,
}

impl Span {
    /// Wall time of the call.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    origin: Instant,
    rep: u32,
    open: Vec<usize>,
    last_closed: Option<usize>,
    spans: Vec<Span>,
}

impl Spans {
    /// A recorder, recording from the start if `enabled`.
    pub fn new(enabled: bool) -> Self {
        Spans {
            enabled,
            origin: Instant::now(),
            rep: 0,
            open: Vec::new(),
            last_closed: None,
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans opened from now on.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans opened from now on with `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; it encloses every span opened before it is closed.
    pub fn enter(&mut self, name: &'static str, layer: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            rep: self.rep,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            work: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
            self.last_closed = Some(i);
        }
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, layer: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name, layer);
        let out = f();
        self.exit();
        out
    }

    /// Sets the simulated work of the span closed last.
    pub fn annotate(&mut self, work: u64) {
        if !self.enabled {
            return;
        }
        if let Some(i) = self.last_closed {
            self.spans[i].work = work;
        }
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The spans as JSON lines, one object per span.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"rep\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{},\"work\":{}}}",
                s.name, s.layer, s.rep, s.start_ns, s.end_ns, s.work
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Self time per layer in each rep: `rep -> layer -> ns`.
pub fn layer_self_ns(spans: &[Span]) -> BTreeMap<u32, BTreeMap<&'static str, u64>> {
    let mut out: BTreeMap<u32, BTreeMap<&'static str, u64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.rep).or_default().entry(s.layer).or_default() += own;
    }
    out
}
