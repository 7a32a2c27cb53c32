//! In-memory spans for the traced replay, their Chrome trace-event export,
//! and the per-layer summaries derived from them.
//!
//! A span is one call into a layer: its name (`<crate>.<layer>`), start
//! and end, the span that caused it, the job (design or request) it
//! belongs to, the sweep or round it ran in, and one count the layer
//! reports (pass commits, JTLs inserted). Spans are only kept; nothing is
//! written until the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u64,
    pub group: u32,
    pub count: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder. When disabled every call is a no-op, so the same replay
/// code gives the untraced baseline for `bench.trace_overhead_pct`.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
    /// Counts recorded at layer boundaries while tracing.
    pub counters: BTreeMap<&'static str, u64>,
    stack: Vec<usize>,
    pub enabled: bool,
    job: u64,
    group: u32,
}

/// Handle of an open span.
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            counters: BTreeMap::new(),
            stack: Vec::new(),
            enabled: false,
            job: 0,
            group: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn set_job(&mut self, job: u64, group: u32) {
        self.job = job;
        self.group = group;
    }

    pub fn begin(&mut self, name: &str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job: self.job,
            group: self.group,
            count: 0,
        });
        let idx = self.spans.len() - 1;
        self.stack.push(idx);
        Open(Some(idx))
    }

    pub fn end(&mut self, open: &Open) {
        if let Some(idx) = open.0 {
            self.spans[idx].end_ns = self.now_ns();
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
        }
    }

    pub fn count(&mut self, counter: &'static str, n: u64) {
        if self.enabled {
            *self.counters.entry(counter).or_insert(0) += n;
        }
    }

    /// Time `f` as one span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let open = self.begin(name);
        let out = f();
        self.end(&open);
        out
    }

    /// Add a finished child span of `parent`, laid out from `offset_ns`
    /// after the parent's start (for layers that report their own
    /// timings, such as the flow's stages and passes). The handle it
    /// returns is only a parent for further children; it is not ended.
    pub fn child(
        &mut self,
        parent: &Open,
        name: &str,
        offset_ns: u64,
        dur_ns: u64,
        count: u64,
    ) -> Open {
        let Some(p) = parent.0 else {
            return Open(None);
        };
        let start_ns = self.spans[p].start_ns + offset_ns;
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + dur_ns,
            parent: Some(p),
            job: self.job,
            group: self.group,
            count,
        });
        Open(Some(self.spans.len() - 1))
    }

    /// Per group, the summed duration (ms) and count of spans named
    /// `name`; groups without such spans read 0.
    pub fn per_group(&self, name: &str) -> (Vec<f64>, Vec<f64>) {
        let mut ms: BTreeMap<u32, f64> = BTreeMap::new();
        let mut counts: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            ms.entry(s.group).or_insert(0.0);
            counts.entry(s.group).or_insert(0.0);
            if s.name == name {
                *ms.get_mut(&s.group).unwrap() += s.dur_ns() as f64 / 1e6;
                *counts.get_mut(&s.group).unwrap() += s.count as f64;
            }
        }
        (ms.into_values().collect(), counts.into_values().collect())
    }

    /// Durations (µs) of spans named `name`, summed per job.
    pub fn per_job_us(&self, name: &str) -> Vec<f64> {
        let mut by_job: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *by_job.entry(s.job).or_insert(0.0) += s.dur_ns() as f64 / 1e3;
        }
        by_job.into_values().collect()
    }

    /// Duration (ms) of the root span of each job, by job id.
    pub fn root_ms(&self, root: &str) -> BTreeMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.name == root)
            .map(|s| (s.job, s.dur_ns() as f64 / 1e6))
            .collect()
    }

    /// Share (%) of root-span time that no child span covers. Children
    /// of one span run one after another, so their durations add up.
    pub fn unattributed_pct(&self) -> f64 {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.dur_ns();
            }
        }
        let (mut total, mut bare) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.parent.is_none() {
                total += s.dur_ns();
                bare += s.dur_ns().saturating_sub(covered[i]);
            }
        }
        if total == 0 {
            return 0.0;
        }
        100.0 * bare as f64 / total as f64
    }

    /// Chrome trace-event JSON (opens in Perfetto / `chrome://tracing`):
    /// one complete (`"ph":"X"`) event per span, one track per sweep or
    /// round, the job id and parent index in `args`.
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"span\":{i},\"parent\":{parent},\
                 \"job\":{},\"count\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.group,
                s.job,
                s.count
            )
            .expect("write to String");
        }
        out.push_str("]}");
        out
    }
}
