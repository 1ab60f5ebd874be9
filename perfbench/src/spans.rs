//! In-memory spans recorded by the benchmark around its calls into the
//! cluster, with self-time and tiling arithmetic and a Chrome-trace export.
//!
//! Each client thread owns a [`SpanLog`].  A logical transaction is one root
//! span; each attempt is a child of it, a retry back-off is a sibling of the
//! attempts, and every proxy call of an attempt is a child of that attempt.
//! The traced trimmer loop records one root per checkpoint and per trim.

use std::fmt::Write as _;
use std::time::Instant;

/// What a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SpanKind {
    /// One logical transaction, first attempt to final outcome.
    Txn,
    /// One attempt of a logical transaction.
    Attempt,
    /// The randomized pause before a retry.
    Backoff,
    /// `Session::begin`.
    Begin,
    /// `ProxyTransaction::read`.
    Read,
    /// `ProxyTransaction::update`.
    Update,
    /// `ProxyTransaction::insert`.
    Insert,
    /// `ProxyTransaction::commit`.
    Commit,
    /// `Cluster::checkpoint`.
    Checkpoint,
    /// `Cluster::trim`.
    Trim,
}

impl SpanKind {
    /// Span name in exports.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Txn => "txn",
            SpanKind::Attempt => "attempt",
            SpanKind::Backoff => "backoff",
            SpanKind::Begin => "begin",
            SpanKind::Read => "read",
            SpanKind::Update => "update",
            SpanKind::Insert => "insert",
            SpanKind::Commit => "commit",
            SpanKind::Checkpoint => "checkpoint",
            SpanKind::Trim => "trim",
        }
    }

    /// The layer (crate) whose public call the span wraps; `client` for the
    /// benchmark's own structure.
    #[must_use]
    pub fn layer(self) -> &'static str {
        match self {
            SpanKind::Txn | SpanKind::Attempt | SpanKind::Backoff => "client",
            SpanKind::Begin | SpanKind::Commit => "proxy",
            SpanKind::Read | SpanKind::Update | SpanKind::Insert => "storage",
            SpanKind::Checkpoint | SpanKind::Trim => "core",
        }
    }
}

/// One closed span.  Times are nanoseconds since the run's epoch; `parent`
/// is 0 for a root; `txn` is the root's id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub txn: u64,
    pub kind: SpanKind,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Recording thread (Chrome-trace track).
    pub thread: u32,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder.  When disabled every call is a no-op apart
/// from running the wrapped closure.
#[derive(Debug)]
pub struct SpanLog {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    next: u64,
    /// Open spans: `(id, kind, start_ns)`.
    stack: Vec<(u64, SpanKind, u64)>,
    txn: u64,
    /// Spans of the logical transaction in progress; moved out by
    /// [`SpanLog::take`] once it completes.
    spans: Vec<Span>,
}

impl SpanLog {
    /// A recorder for thread number `thread`; ids are unique across threads.
    #[must_use]
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Self {
        SpanLog {
            enabled,
            epoch,
            thread,
            next: (u64::from(thread) << 40) + 1,
            stack: Vec::new(),
            txn: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, kind: SpanKind) {
        if !self.enabled {
            return;
        }
        let id = self.next;
        self.next += 1;
        if self.stack.is_empty() {
            self.txn = id;
        }
        self.stack.push((id, kind, self.now_ns()));
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let (id, kind, start_ns) = self.stack.pop().expect("close without open");
        let parent = self.stack.last().map_or(0, |&(id, _, _)| id);
        self.spans.push(Span {
            id,
            parent,
            txn: self.txn,
            kind,
            start_ns,
            end_ns,
            thread: self.thread,
        });
    }

    /// Runs `f` inside a span of `kind`.
    pub fn call<T>(&mut self, kind: SpanKind, f: impl FnOnce() -> T) -> T {
        self.open(kind);
        let out = f();
        self.close();
        out
    }

    /// Moves the closed spans out.
    pub fn take(&mut self, into: &mut Vec<Span>) {
        into.append(&mut self.spans);
    }
}

/// Self time of every span, in nanoseconds and in input order: its duration
/// minus the part of its interval that its children cover (overlapping
/// children count once; parts outside the parent are ignored).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    // Children grouped by parent and ordered by start, found by binary
    // search: four bytes of index per span instead of a map of vectors.
    let mut by_parent: Vec<u32> = (0..spans.len() as u32).collect();
    by_parent.sort_unstable_by_key(|&i| (spans[i as usize].parent, spans[i as usize].start_ns));
    spans
        .iter()
        .map(|s| {
            let from = by_parent.partition_point(|&i| spans[i as usize].parent < s.id);
            let to = by_parent.partition_point(|&i| spans[i as usize].parent <= s.id);
            let children = by_parent[from..to].iter().map(|&i| {
                let c = &spans[i as usize];
                (c.start_ns, c.end_ns)
            });
            s.dur_ns()
                .saturating_sub(covered_ns(children, s.start_ns, s.end_ns))
        })
        .collect()
}

/// Length of the union of `intervals` (ordered by start), clipped to
/// `[lo, hi)`.
fn covered_ns(intervals: impl Iterator<Item = (u64, u64)>, lo: u64, hi: u64) -> u64 {
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// The share of logical-transaction time that proxy calls and back-offs
/// cover: one minus the self time of the transaction and attempt spans
/// (the benchmark's own work between calls) over the transactions' total
/// duration.  `None` without transactions.
#[must_use]
pub fn tiling_share(spans: &[Span], self_ns: &[u64]) -> Option<f64> {
    let mut total = 0u64;
    let mut uncovered = 0u64;
    for (s, &own) in spans.iter().zip(self_ns) {
        match s.kind {
            SpanKind::Txn => {
                total += s.dur_ns();
                uncovered += own;
            }
            SpanKind::Attempt => uncovered += own,
            _ => {}
        }
    }
    (total > 0).then(|| 1.0 - uncovered as f64 / total as f64)
}

/// Writes the spans as tab-separated text, one line each.
///
/// # Errors
///
/// Propagates write errors.
pub fn write_tsv(out: &mut impl std::io::Write, spans: &[Span]) -> std::io::Result<()> {
    writeln!(
        out,
        "id\tparent\ttxn\tthread\tname\tlayer\tstart_ns\tend_ns"
    )?;
    for s in spans {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id,
            s.parent,
            s.txn,
            s.thread,
            s.kind.name(),
            s.kind.layer(),
            s.start_ns,
            s.end_ns
        )?;
    }
    out.flush()
}

/// Chrome-trace JSON (complete events, one track per thread), loadable in
/// ui.perfetto.dev.
#[must_use]
pub fn chrome_trace(spans: &[Span]) -> String {
    let mut out = String::from("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"txn\":{}}}}}",
            s.kind.name(),
            s.kind.layer(),
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns() as f64 / 1e3,
            s.id,
            s.parent,
            s.txn
        );
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: SpanKind, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            txn: 1,
            kind,
            start_ns,
            end_ns,
            thread: 0,
        }
    }

    /// txn [0,100): attempt [5,45) with begin [6,10), read [12,30), commit
    /// [30,44); backoff [45,55); attempt [55,98) with begin [56,60) and a
    /// commit [70,96) that overlaps a stray child [90,120) reaching past its
    /// parent.
    fn tree() -> Vec<Span> {
        vec![
            span(1, 0, SpanKind::Txn, 0, 100),
            span(2, 1, SpanKind::Attempt, 5, 45),
            span(3, 2, SpanKind::Begin, 6, 10),
            span(4, 2, SpanKind::Read, 12, 30),
            span(5, 2, SpanKind::Commit, 30, 44),
            span(6, 1, SpanKind::Backoff, 45, 55),
            span(7, 1, SpanKind::Attempt, 55, 98),
            span(8, 7, SpanKind::Begin, 56, 60),
            span(9, 7, SpanKind::Commit, 70, 96),
            span(10, 7, SpanKind::Update, 90, 120),
        ]
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = tree();
        let own = self_times(&spans);
        // txn: 100 - (40 + 10 + 43) = 7
        assert_eq!(own[0], 7);
        // attempt 1: 40 - (4 + 18 + 14) = 4
        assert_eq!(own[1], 4);
        // attempt 2: 43 - (4 + union([70,96),[90,98)) = 28) = 11
        assert_eq!(own[6], 11);
        // leaves keep their whole duration
        assert_eq!(own[2], 4);
        assert_eq!(own[5], 10);
        assert_eq!(own[9], 30);
        // tiling: 1 - (7 + 4 + 11) / 100
        let share = tiling_share(&spans, &own).unwrap();
        assert!((share - 0.78).abs() < 1e-12, "{share}");
    }

    #[test]
    fn covered_clips_and_merges() {
        let v = [(0, 5), (10, 20), (15, 30), (40, 50)];
        assert_eq!(covered_ns(v.into_iter(), 2, 45), 3 + 20 + 5);
        assert_eq!(covered_ns(std::iter::empty(), 0, 10), 0);
        assert_eq!(tiling_share(&[], &[]), None);
    }

    #[test]
    fn log_nests_and_ids_are_per_thread() {
        let epoch = Instant::now();
        let mut log = SpanLog::new(true, epoch, 3);
        log.open(SpanKind::Txn);
        log.open(SpanKind::Attempt);
        let v = log.call(SpanKind::Read, || 42);
        log.close();
        log.close();
        assert_eq!(v, 42);
        let mut spans = Vec::new();
        log.take(&mut spans);
        assert_eq!(spans.len(), 3);
        let root = spans.iter().find(|s| s.kind == SpanKind::Txn).unwrap();
        let attempt = spans.iter().find(|s| s.kind == SpanKind::Attempt).unwrap();
        let read = spans.iter().find(|s| s.kind == SpanKind::Read).unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(attempt.parent, root.id);
        assert_eq!(read.parent, attempt.id);
        assert!(spans.iter().all(|s| s.txn == root.id && s.id >> 40 == 3));
        assert!(root.start_ns <= attempt.start_ns && attempt.end_ns <= root.end_ns);

        let mut off = SpanLog::new(false, epoch, 0);
        assert_eq!(off.call(SpanKind::Begin, || 7), 7);
        off.take(&mut spans);
        assert_eq!(spans.len(), 3);
        assert!(chrome_trace(&spans).contains("\"name\":\"read\""));
        let mut tsv = Vec::new();
        write_tsv(&mut tsv, &spans).unwrap();
        assert_eq!(String::from_utf8(tsv).unwrap().lines().count(), 4);
    }
}
