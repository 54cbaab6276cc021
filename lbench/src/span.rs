//! The harness-side span recorder of the traced run.
//!
//! One span per driver call into a layer (per 256-record chunk for
//! `Producer::buffer`, never per record), each a child of the `round`
//! or `maintenance` span that made the call. Spans stay in a
//! preallocated `Vec` and are written out when the benchmark ends;
//! tracing *inside* the crates is a later issue.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Spans kept per traced run (~80 MB if ever filled; the pages are
/// untouched until used). A full recorder stops recording and says so
/// in the trace file.
const CAPACITY: usize = 1 << 21;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `u32::MAX` at top level.
    pub parent: u32,
    /// The driver round the span belongs to: spans of one round share it.
    pub round: u32,
}

/// Handle returned by [`Recorder::begin`]; `None` while recording is off.
pub struct Open(Option<u32>);

pub struct Recorder {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    round: u32,
    dropped: u64,
}

impl Recorder {
    /// A recorder that records nothing until [`start`](Self::start).
    pub fn off() -> Recorder {
        Recorder {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            round: 0,
            dropped: 0,
        }
    }

    /// Switches recording on; span times count from now.
    pub fn start(&mut self) {
        self.on = true;
        self.epoch = Instant::now();
        self.spans = Vec::with_capacity(CAPACITY);
        self.stack = Vec::with_capacity(8);
    }

    pub fn stop(&mut self) {
        self.on = false;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Marks the start of the next driver round.
    pub fn next_round(&mut self) {
        self.round = self.round.wrapping_add(1);
    }

    #[inline]
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(None);
        }
        if self.spans.len() == CAPACITY {
            self.dropped += 1;
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied().unwrap_or(NO_PARENT),
            round: self.round,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    #[inline]
    pub fn end(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id as usize].end_ns = self.epoch.elapsed().as_nanos() as u64;
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(id), "spans must close innermost first");
        }
    }

    /// Writes `{dropped, spans: [{name, start_ns, end_ns, parent, round}]}`.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"dropped\":{},\"spans\":[", self.dropped)?;
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            write!(
                out,
                "{sep}\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"round\":{}}}",
                s.name, s.start_ns, s.end_ns, s.round
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Total {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the part of it the span's children cover.
    pub self_ns: u64,
}

/// Sums duration and self time per span name. Children never overlap
/// each other (one driver thread), so the part of a span its children
/// cover is the sum of their durations.
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, Total> {
    let mut covered = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            covered[s.parent as usize] += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Total> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(covered) {
        let dur = s.end_ns - s.start_ns;
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += dur;
        t.self_ns += dur.saturating_sub(covered);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            round: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // round [0, 100) { flush [10, 40), poll [40, 90) { fetch [50, 70) } }
        // round [100, 150) { flush [110, 120) }
        let spans = [
            span("round", 0, 100, NO_PARENT),
            span("flush", 10, 40, 0),
            span("poll", 40, 90, 0),
            span("fetch", 50, 70, 2),
            span("round", 100, 150, NO_PARENT),
            span("flush", 110, 120, 4),
        ];
        let t = totals(&spans);
        let total = |count, total_ns, self_ns| Total {
            count,
            total_ns,
            self_ns,
        };
        assert_eq!(t["round"], total(2, 150, 20 + 40));
        assert_eq!(t["flush"], total(2, 40, 40));
        assert_eq!(t["poll"], total(1, 50, 30));
        assert_eq!(t["fetch"], total(1, 20, 20));
        // Self times tile the traced interval exactly.
        assert_eq!(t.values().map(|t| t.self_ns).sum::<u64>(), 150);
    }

    #[test]
    fn recorder_nests_and_is_silent_when_off() {
        let mut rec = Recorder::off();
        let o = rec.begin("round");
        rec.end(o);
        assert!(rec.spans().is_empty());
        rec.start();
        rec.next_round();
        let round = rec.begin("round");
        let child = rec.begin("flush");
        rec.end(child);
        rec.end(round);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (NO_PARENT, 0));
        assert_eq!(spans[1].round, spans[0].round);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
