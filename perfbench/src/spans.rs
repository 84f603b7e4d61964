//! In-memory spans for the traced run, recorded from the benchmark's own
//! calls into the simulator and written out once at exit.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span.
struct Span {
    name: String,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Records nested spans; `enabled == false` records nothing, so the same
/// code path serves traced and untraced runs.
pub struct Spans {
    enabled: bool,
    /// Shared by every span of one benchmark run.
    run_id: String,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder for one run; `run_id` tags every span it records.
    pub fn new(enabled: bool, run_id: String) -> Spans {
        Spans {
            enabled,
            run_id,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// The spans as one JSON document: `run` plus a list of
    /// `{id, name, start_ns, end_ns, parent, self_ns}`, where `self_ns` is
    /// the span's duration minus the time its children cover.
    pub fn to_json(&self) -> String {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = format!("{{\"run\":\"{}\",\"spans\":[", self.run_id);
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let dur = s.end_ns - s.start_ns;
            let _ = write!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"run\":\"{}\",\"start_ns\":{},\"end_ns\":{},\
                 \"parent\":{parent},\"self_ns\":{}}}",
                s.name,
                self.run_id,
                s.start_ns,
                s.end_ns,
                dur.saturating_sub(child_ns[i])
            );
        }
        out.push_str("]}\n");
        out
    }
}
