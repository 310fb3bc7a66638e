//! In-memory span recorder for the traced run.
//!
//! A span is one timed call into a layer: its name, start and end (ns
//! since the recorder's epoch), the span that was open when it began
//! (its parent), and the request it belongs to. Spans are kept in memory
//! and written out once, when the run ends. Work counts recorded at the
//! same boundaries live beside them in [`Tally`].

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use ccs::itemset::CountingStats;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub parent: Option<usize>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Work counted at the layer boundaries the wrappers time.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    /// Counting calls (batches, and single-set calls).
    pub batches: u64,
    /// Sets counted across those calls.
    pub sets: u64,
    /// The counter's own statistics over those calls (cells counted,
    /// degraded batches, …).
    pub counted: CountingStats,
    /// Tables judged by the verdict replay.
    pub verdicts: u64,
    /// Checkpoint commits, their bytes, and the commits that failed.
    pub commits: u64,
    pub commit_bytes: u64,
    pub commit_errors: u64,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
    request: u64,
    tally: Tally,
}

/// The run's recorder. Shared by reference (`Arc`) with the counter and
/// checkpoint-sink wrappers; every call happens on the mining thread, so
/// the lock is never contended.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'t> {
    tracer: &'t Tracer,
    index: usize,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let now = self.tracer.now_ns();
        let mut state = self.tracer.lock();
        if let Some(span) = state.spans.get_mut(self.index) {
            span.end_ns = now;
        }
        if state.open.last() == Some(&self.index) {
            state.open.pop();
        }
    }
}

/// Time and count totals of all spans with one name.
#[derive(Debug, Clone, Default)]
pub struct LayerTimes {
    pub total_ns: u64,
    pub self_ns: u64,
    pub durations_ns: Vec<u64>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        // Every update leaves the state valid, so a poisoned lock is safe
        // to keep using.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Opens a span named `name` under the innermost open span.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let start_ns = self.now_ns();
        let mut state = self.lock();
        let index = state.spans.len();
        let parent = state.open.last().copied();
        let request = state.request;
        state.spans.push(Span {
            parent,
            request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        state.open.push(index);
        SpanGuard {
            tracer: self,
            index,
        }
    }

    /// Starts a new request: its root span, named `name`, and every span
    /// opened beneath it share a fresh request id.
    pub fn request(&self, name: &'static str) -> SpanGuard<'_> {
        self.lock().request += 1;
        self.span(name)
    }

    /// Adds work counts.
    pub fn count(&self, add: impl FnOnce(&mut Tally)) {
        add(&mut self.lock().tally);
    }

    pub fn tally(&self) -> Tally {
        self.lock().tally
    }

    /// Per-name totals, with self time (a span's duration minus the part
    /// its direct children cover).
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTimes> {
        let state = self.lock();
        let mut child_ns = vec![0u64; state.spans.len()];
        for span in &state.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.duration_ns();
            }
        }
        let mut out: BTreeMap<&'static str, LayerTimes> = BTreeMap::new();
        for (span, children) in state.spans.iter().zip(child_ns) {
            let entry = out.entry(span.name).or_default();
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(children);
            entry.durations_ns.push(span.duration_ns());
        }
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write) -> io::Result<()> {
        let state = self.lock();
        for (id, span) in state.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{}}}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children_and_requests_share_ids() {
        let tracer = Tracer::new();
        {
            let _root = tracer.request("request");
            {
                let _child = tracer.span("child");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        {
            let _root = tracer.request("request");
        }
        let layers = tracer.layers();
        let root = &layers["request"];
        let child = &layers["child"];
        assert_eq!(root.durations_ns.len(), 2);
        assert_eq!(root.self_ns + child.total_ns, root.total_ns);
        let state = tracer.lock();
        assert_eq!(state.spans[1].parent, Some(0));
        assert_eq!(state.spans[1].request, state.spans[0].request);
        assert_ne!(state.spans[2].request, state.spans[0].request);
        assert!(state.open.is_empty());
    }
}
