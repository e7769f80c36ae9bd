//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span is a name, a start, an end, the span that was open when it started
//! (its parent) and the request it belongs to (the low 64 bits of the trace
//! id).  Spans stay in memory for the whole pass; `--trace-out` writes them
//! out afterwards.  A layer's self time is its span's duration minus the
//! durations of its direct children.

use crate::alloc;
use std::collections::BTreeMap;
use std::io::{self, Write};
use std::ops::Range;
use std::time::Instant;

/// Marks a span without a parent.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// `<layer>.<call>`, e.g. `span_parser.parse`.
    pub name: &'static str,
    /// Index of the enclosing span's record, or [`NO_PARENT`].
    pub parent: u32,
    /// Low 64 bits of the trace id the work was done for (0: none).
    pub request: u64,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Allocation calls made while the span was open, children included.
    pub allocs: u64,
    /// Bytes requested while the span was open, children included.
    pub alloc_bytes: u64,
}

impl Record {
    /// The span's duration.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans on one thread.
pub struct Tracer {
    base: Instant,
    records: Vec<Record>,
    open: u32,
}

impl Tracer {
    /// A tracer with room for `capacity` spans before its buffer grows.
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            base: Instant::now(),
            records: Vec::with_capacity(capacity),
            open: NO_PARENT,
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Opens a span under the one currently open and returns its handle.
    pub fn enter(&mut self, name: &'static str, request: u64) -> u32 {
        if self.records.len() == self.records.capacity() {
            // The buffer's own growth is the benchmark's, not a layer's.
            let _uncounted = alloc::exclude_current_thread();
            self.records.reserve(self.records.len().max(1024));
        }
        let index = self.records.len() as u32;
        let before = alloc::thread_totals();
        self.records.push(Record {
            name,
            parent: self.open,
            request,
            start_ns: 0,
            end_ns: 0,
            allocs: before.allocs,
            alloc_bytes: before.bytes,
        });
        self.open = index;
        // Read the clock last, so the span does not time its own set-up.
        self.records[index as usize].start_ns = self.now_ns();
        index
    }

    /// Closes the span `handle`, which must be the innermost open one.
    pub fn exit(&mut self, handle: u32) {
        let end_ns = self.now_ns();
        let after = alloc::thread_totals();
        debug_assert_eq!(self.open, handle, "spans close innermost first");
        let record = &mut self.records[handle as usize];
        record.end_ns = end_ns;
        record.allocs = after.allocs - record.allocs;
        record.alloc_bytes = after.bytes - record.alloc_bytes;
        self.open = record.parent;
    }

    /// Records `call` as a span without children.
    pub fn leaf<T>(&mut self, name: &'static str, request: u64, call: impl FnOnce() -> T) -> T {
        let handle = self.enter(name, request);
        let out = call();
        self.exit(handle);
        out
    }

    /// Renames a closed span, for calls whose kind only their result tells.
    pub fn rename(&mut self, handle: u32, name: &'static str) {
        self.records[handle as usize].name = name;
    }

    /// The spans recorded so far, in the order they were opened.
    pub fn records(&self) -> &[Record] {
        &self.records
    }

    /// Gives up the recorded spans.
    pub fn into_records(self) -> Vec<Record> {
        self.records
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(records: &[Record]) -> Vec<u64> {
    let mut own: Vec<u64> = records.iter().map(Record::duration_ns).collect();
    for record in records {
        if record.parent != NO_PARENT {
            let parent = &mut own[record.parent as usize];
            *parent = parent.saturating_sub(record.duration_ns());
        }
    }
    own
}

/// What all spans of one name add up to.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerSum {
    /// Number of spans.
    pub calls: u64,
    /// Sum of durations, children included.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
    /// Allocation calls, children included.
    pub allocs: u64,
    /// Bytes requested, children included.
    pub alloc_bytes: u64,
}

/// Sums the spans of `region` by name.  `records` is the whole recording, so
/// that parent indices resolve; a span's children lie in its own region.
pub fn by_layer(records: &[Record], region: Range<usize>) -> BTreeMap<&'static str, LayerSum> {
    let own = self_times(records);
    let mut sums: BTreeMap<&'static str, LayerSum> = BTreeMap::new();
    for (record, &self_ns) in records[region.clone()].iter().zip(&own[region]) {
        let sum = sums.entry(record.name).or_default();
        sum.calls += 1;
        sum.total_ns += record.duration_ns();
        sum.self_ns += self_ns;
        sum.allocs += record.allocs;
        sum.alloc_bytes += record.alloc_bytes;
    }
    sums
}

/// Writes one JSON object per span, in record order, so that a span's
/// `parent` is the zero-based line number of its parent.
pub fn write_jsonl(records: &[Record], out: &mut impl Write) -> io::Result<()> {
    for record in records {
        write!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":",
            record.name, record.start_ns, record.end_ns
        )?;
        if record.parent == NO_PARENT {
            out.write_all(b"null")?;
        } else {
            write!(out, "{}", record.parent)?;
        }
        writeln!(
            out,
            ",\"request\":\"{:016x}\",\"allocs\":{},\"alloc_bytes\":{}}}",
            record.request, record.allocs, record.alloc_bytes
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: u32, start_ns: u64, end_ns: u64) -> Record {
        Record {
            name,
            parent,
            request: 7,
            start_ns,
            end_ns,
            allocs: 1,
            alloc_bytes: 8,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // root 0..100 { a 10..40 { c 20..30 }, b 50..90 }
        let records = vec![
            span("root", NO_PARENT, 0, 100),
            span("a", 0, 10, 40),
            span("c", 1, 20, 30),
            span("b", 0, 50, 90),
        ];
        assert_eq!(self_times(&records), vec![30, 20, 10, 40]);
        let sums = by_layer(&records, 0..records.len());
        assert_eq!(sums["root"].total_ns, 100);
        assert_eq!(sums["root"].self_ns, 30);
        assert_eq!(sums["a"].self_ns, 20);
        // Self times partition the root's duration.
        assert_eq!(sums.values().map(|s| s.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn spans_of_one_name_add_up() {
        let records = vec![
            span("root", NO_PARENT, 0, 10),
            span("leaf", 0, 1, 4),
            span("root", NO_PARENT, 10, 30),
            span("leaf", 2, 12, 17),
        ];
        let sums = by_layer(&records, 0..records.len());
        assert_eq!(
            sums["leaf"],
            LayerSum {
                calls: 2,
                total_ns: 8,
                self_ns: 8,
                allocs: 2,
                alloc_bytes: 16
            }
        );
        assert_eq!(sums["root"].self_ns, 30 - 8);
    }

    #[test]
    fn tracer_nests_and_counts_what_the_call_allocates() {
        let _turn = crate::alloc::serial();
        let mut tracer = Tracer::with_capacity(2);
        let kept = alloc::count_this_thread(|| {
            let outer = tracer.enter("outer", 1);
            let kept = tracer.leaf("inner", 1, || std::hint::black_box(vec![0u8; 4096]));
            // Forces the buffer to grow inside `outer`; that must not be counted.
            tracer.leaf("inner", 1, || ());
            tracer.exit(outer);
            kept
        });
        drop(kept);
        let records = tracer.records();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0].parent, NO_PARENT);
        assert_eq!(records[1].parent, 0);
        assert_eq!(records[2].parent, 0);
        assert_eq!((records[1].allocs, records[1].alloc_bytes), (1, 4096));
        assert_eq!((records[2].allocs, records[2].alloc_bytes), (0, 0));
        assert_eq!((records[0].allocs, records[0].alloc_bytes), (1, 4096));
        assert!(records[0].start_ns <= records[1].start_ns);
        assert!(records[1].end_ns <= records[0].end_ns);
    }

    #[test]
    fn jsonl_has_one_line_per_span() {
        let records = vec![span("root", NO_PARENT, 0, 10), span("leaf", 0, 1, 4)];
        let mut out = Vec::new();
        write_jsonl(&records, &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(
            lines[1],
            "{\"name\":\"leaf\",\"start_ns\":1,\"end_ns\":4,\"parent\":0,\
             \"request\":\"0000000000000007\",\"allocs\":1,\"alloc_bytes\":8}"
        );
        assert!(lines[0].contains("\"parent\":null"));
    }
}
