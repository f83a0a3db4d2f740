//! Spans recorded by the benchmark around its calls into the engine's
//! public API. They are kept in memory and written out once, at the end of
//! the traced run; per-layer times are computed from them.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::common::pctl;

const ROOT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: u32,
    op: u64,
}

/// A span recorder. Disabled (every call a no-op) in untraced runs.
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    op: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span; a span opened with no span open starts a new op.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        let parent = self.stack.last().copied().unwrap_or(ROOT);
        if parent == ROOT {
            self.op += 1;
        }
        let idx = self.spans.len() as u32;
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            op: self.op,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn exit(&mut self, open: Open) {
        if let Some(idx) = open.0 {
            let end = self.now();
            self.spans[idx as usize].end = end;
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(idx), "spans must nest");
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let open = self.enter(name);
        let r = f(self);
        self.exit(open);
        r
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end - s.start)
            .collect()
    }

    /// Total duration (ns) of the outermost spans called `name` or
    /// `name.<anything>`.
    pub fn outer_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| {
                s.parent == ROOT
                    && s.name
                        .strip_prefix(name)
                        .is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
            })
            .map(|s| s.end - s.start)
            .sum()
    }

    /// p50 duration of the spans called `name`, in µs (0 when none).
    pub fn p50_us(&self, name: &str) -> f64 {
        pctl(&mut self.durations(name), 0.5) / 1e3
    }

    /// Self time per span name: each span's duration minus the time its
    /// children cover, summed. (Children run sequentially on the span's
    /// thread, so their durations do not overlap.)
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                child_ns[s.parent as usize] += s.end - s.start;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end - s.start).saturating_sub(child_ns[i]);
        }
        out
    }

    /// Write every span (tab-separated: op, id, parent, name, start_ns,
    /// end_ns) followed by the self-time table to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<String> {
        let mut out = String::from("op\tid\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            let _ = writeln!(
                out,
                "{}\t{i}\t{parent}\t{}\t{}\t{}",
                s.op, s.name, s.start, s.end
            );
        }
        let mut table = String::from("# self time per span: name count total_ms\n");
        for (name, (count, self_ns)) in self.self_times() {
            let _ = writeln!(table, "# {name} {count} {:.3}", self_ns as f64 / 1e6);
        }
        out.push_str(&table);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)?;
        Ok(table)
    }
}
