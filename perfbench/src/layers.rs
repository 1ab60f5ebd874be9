//! Metric derivation: end-to-end figures from the clients' raw samples,
//! per-layer figures from the registry and stats deltas of the timed run
//! (source R) and from the traced run's span self times (source S).

use std::collections::HashSet;

use tashkent::{ClusterStats, CounterId, GaugeId, Stage};
use tashkent_common::LatencyHistogram;
use tashkent_proxy::ProxyStats;

use crate::clients::{RunOutput, Sample};
use crate::spans::{self, Span, SpanKind};
use crate::stats;

/// One reported figure.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// `R` (registry/stats), `S` (spans) or `E` (client samples).
    pub source: &'static str,
    /// Sample count or other context printed beside the value.
    pub note: String,
}

impl Metric {
    #[must_use]
    pub fn new(name: &str, value: f64, unit: &'static str, source: &'static str) -> Self {
        Metric {
            name: name.to_owned(),
            value,
            unit,
            source,
            note: String::new(),
        }
    }

    #[must_use]
    pub fn note(mut self, note: String) -> Self {
        self.note = note;
        self
    }
}

/// Window deltas of the registry and the cluster's stats.
struct Deltas<'a> {
    start: &'a Sample,
    end: &'a Sample,
}

impl<'a> Deltas<'a> {
    fn of(out: &'a RunOutput) -> Self {
        let [start, end] = &out.edges;
        Deltas { start, end }
    }

    fn counter(&self, id: CounterId) -> f64 {
        self.end
            .0
            .counter(id)
            .saturating_sub(self.start.0.counter(id)) as f64
    }

    fn stage(&self, stage: Stage) -> LatencyHistogram {
        histogram_delta(self.end.0.stage(stage), self.start.0.stage(stage))
    }

    /// High-water mark since the cluster started (set-up does no
    /// certification or remote apply, so the window and warm-up set it).
    fn high_water(&self, gauge: GaugeId) -> f64 {
        self.end.0.gauge(gauge).1 as f64
    }
}

/// Median of the proxy-observed certification round trip in the window.
#[must_use]
pub fn certify_p50_us(out: &RunOutput) -> f64 {
    Deltas::of(out)
        .stage(Stage::Certify)
        .percentile(50.0)
        .as_secs_f64()
        * 1e6
}

/// `later - earlier`, bucket by bucket.
fn histogram_delta(later: &LatencyHistogram, earlier: &LatencyHistogram) -> LatencyHistogram {
    let buckets: Vec<u64> = later
        .bucket_counts()
        .iter()
        .zip(earlier.bucket_counts())
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    LatencyHistogram::from_parts(
        buckets,
        later.count().saturating_sub(earlier.count()),
        later.sum_micros().saturating_sub(earlier.sum_micros()),
        0,
        later.max().as_micros() as u64,
    )
}

const SLICE_NS: u64 = crate::clients::SLICE.as_nanos() as u64;

/// The clients' view of the measured window.
#[derive(Debug, Clone)]
pub struct Window {
    pub seconds: f64,
    /// Logical transactions committed within the window.
    pub commits: u64,
    /// Their latencies in microseconds, ascending.
    pub latencies: Vec<f64>,
    /// Throughput, p50 and p99 latency of each one-second slice of the
    /// window, whose medians are the reported figures: a disturbance that
    /// hits one slice moves the whole-window mean, not the median.
    pub slices: Vec<[f64; 3]>,
    /// Those commits per client.
    pub client_commits: Vec<u64>,
    /// Attempts of those commits.
    pub attempts: u64,
    /// Logical transactions started in the window ...
    pub attempted: u64,
    /// ... of which failed or were abandoned.
    pub failed: u64,
    pub drain_ms: f64,
}

impl Window {
    #[must_use]
    pub fn of(out: &RunOutput) -> Self {
        let (ws, we) = (out.window_start_ns, out.window_end_ns);
        let mut latencies = Vec::new();
        let slice_count = ((we - ws) / SLICE_NS).max(1) as usize;
        let mut by_slice = vec![Vec::new(); slice_count];
        let mut attempts = 0u64;
        let mut client_commits = vec![0u64; out.clients];
        let (mut attempted, mut failed) = (out.abandoned, out.abandoned);
        for c in &out.completions {
            if c.committed && c.end_ns >= ws && c.end_ns < we {
                let latency = (c.end_ns - c.start_ns) as f64 / 1e3;
                latencies.push(latency);
                if let Some(slice) = by_slice.get_mut(((c.end_ns - ws) / SLICE_NS) as usize) {
                    slice.push(latency);
                }
                attempts += u64::from(c.attempts);
                client_commits[usize::from(c.client)] += 1;
            }
            if c.start_ns >= ws {
                attempted += 1;
                failed += u64::from(!c.committed);
            }
        }
        stats::sort(&mut latencies);
        let slices = by_slice
            .into_iter()
            .map(|mut v| {
                stats::sort(&mut v);
                let at = |p| stats::percentile(&v, p).unwrap_or(0.0);
                [v.len() as f64 * 1e9 / SLICE_NS as f64, at(50.0), at(99.0)]
            })
            .collect();
        Window {
            seconds: (we - ws) as f64 / 1e9,
            commits: latencies.len() as u64,
            latencies,
            slices,
            client_commits,
            attempts,
            attempted,
            failed,
            drain_ms: out.drain.as_secs_f64() * 1e3,
        }
    }

    /// Commits per second over the whole window.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        self.commits as f64 / self.seconds
    }

    /// Median over the slices of figure `i` (0 throughput, 1 p50, 2 p99).
    #[must_use]
    pub fn slice_median(&self, i: usize) -> f64 {
        stats::median(&self.slices.iter().map(|s| s[i]).collect::<Vec<_>>()).unwrap_or(0.0)
    }

    /// The least-served client's share of the commits: 1/clients when the
    /// replicas are served evenly, near 0 when one client starves.
    #[must_use]
    pub fn min_client_commit_share(&self) -> f64 {
        let least = self.client_commits.iter().min().copied().unwrap_or(0);
        ratio(least as f64, self.commits as f64)
    }

    #[must_use]
    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    fn per_commit(&self, count: f64) -> f64 {
        count / self.commits.max(1) as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The end-to-end metrics of the timed run.
#[must_use]
pub fn end_to_end(window: &Window, setup_s: f64, mem_per_commit: f64) -> Vec<Metric> {
    let n = window.latencies.len();
    let at = |p| stats::percentile(&window.latencies, p).unwrap_or(0.0);
    let supported = stats::highest_supported(n).map_or_else(
        || "no percentile has 10 samples beyond it".to_owned(),
        |p| format!("highest supported p{p} = {:.1} us", at(p)),
    );
    let slices = window.slices.len();
    vec![
        Metric::new("throughput_tps", window.slice_median(0), "1/s", "E").note(format!(
            "median of {slices} 1-s slices; whole window {:.1} ({} commits in {:.3} s)",
            window.throughput(),
            window.commits,
            window.seconds
        )),
        Metric::new("latency_p50_us", window.slice_median(1), "us", "E").note(format!(
            "median of {slices} slice medians; whole window {:.1} (n={n})",
            at(50.0)
        )),
        Metric::new("latency_p99_us", window.slice_median(2), "us", "E").note(format!(
            "median of {slices} slice p99s; whole window {:.1} (n={n}), {supported}",
            at(99.0)
        )),
        Metric::new("failed_share", window.failed_share(), "share", "E").note(format!(
            "{} failed of {} attempted",
            window.failed, window.attempted
        )),
        Metric::new("setup_s", setup_s, "s", "E"),
        Metric::new("mem_bytes_per_commit", mem_per_commit, "B", "E")
            .note("(peak RSS - RSS after set-up - the benchmark's own completion records) / commits of the run".into()),
    ]
}

/// The sample count, flagged when a p99 has fewer than ten samples beyond
/// it.
fn count_note(n: usize) -> String {
    let short = stats::samples_beyond(n, 99.0) < stats::MIN_BEYOND;
    format!(
        "n={n}{}",
        if short {
            ", p99 has <10 samples beyond"
        } else {
            ""
        }
    )
}

/// p50 and p99 of a registry histogram (log buckets, ~3 % resolution).
fn hist_metrics(name: &str, h: &LatencyHistogram) -> [Metric; 2] {
    let us = |p| h.percentile(p).as_secs_f64() * 1e6;
    let note = count_note(h.count() as usize);
    [
        Metric::new(&format!("{name}.p50"), us(50.0), "us", "R").note(note.clone()),
        Metric::new(&format!("{name}.p99"), us(99.0), "us", "R").note(note),
    ]
}

/// Per-layer metrics from the timed run's registry and stats.
#[must_use]
pub fn registry_metrics(window: &Window, out: &RunOutput) -> Vec<Metric> {
    let delta = Deltas::of(out);
    let ((_, s0), (_, s1)) = (delta.start, delta.end);
    let proxy_delta = |f: fn(&ProxyStats) -> u64| -> f64 {
        let sum = |s: &ClusterStats| s.proxies.iter().map(f).sum::<u64>();
        sum(s1).saturating_sub(sum(s0)) as f64
    };
    let begun = delta.counter(CounterId::TxBegun);
    let (group0, group1) = (
        s0.certifier
            .as_ref()
            .map(|c| c.log.leader_group_commit.clone())
            .unwrap_or_default(),
        s1.certifier
            .as_ref()
            .map(|c| c.log.leader_group_commit.clone())
            .unwrap_or_default(),
    );
    let hits = delta.counter(CounterId::PrescreenHits);
    let misses = delta.counter(CounterId::PrescreenMisses);
    let mut m = Vec::new();
    // proxy
    m.extend(hist_metrics(
        "proxy.install_us",
        &delta.stage(Stage::Install),
    ));
    m.push(Metric::new(
        "proxy.remote_installs_per_commit",
        window.per_commit(delta.counter(CounterId::RemoteInstalls)),
        "1/commit",
        "R",
    ));
    m.push(Metric::new(
        "proxy.remote_apply_backlog_hwm",
        delta.high_water(GaugeId::RemoteApplyBacklog),
        "count",
        "R",
    ));
    m.push(Metric::new(
        "proxy.attempts_per_commit",
        ratio(window.attempts as f64, window.commits as f64),
        "1/commit",
        "E",
    ));
    for (name, f) in [
        (
            "local_cert",
            (|p: &ProxyStats| p.local_certification_aborts) as fn(&_) -> u64,
        ),
        ("certifier", |p| p.certifier_aborts),
        ("engine", |p| p.engine_aborts),
    ] {
        m.push(
            Metric::new(
                &format!("proxy.abort_share.{name}"),
                ratio(proxy_delta(f), begun),
                "share",
                "R",
            )
            .note(format!("of {begun} begun")),
        );
    }
    m.push(
        Metric::new("proxy.drain_ms", window.drain_ms, "ms", "E")
            .note(format!("{} client(s) abandoned", out.abandoned)),
    );
    // certifier
    m.extend(hist_metrics(
        "certifier.certify_us",
        &delta.stage(Stage::Certify),
    ));
    m.extend(hist_metrics(
        "certifier.durable_us",
        &delta.stage(Stage::Durable),
    ));
    m.push(Metric::new(
        "certifier.abort_share",
        ratio(
            delta.counter(CounterId::CertifyAborts),
            delta.counter(CounterId::CertifyRequests),
        ),
        "share",
        "R",
    ));
    m.push(
        Metric::new(
            "certifier.prescreen_hit_share",
            ratio(hits, hits + misses),
            "share",
            "R",
        )
        .note(format!("of {} screened", hits + misses)),
    );
    m.push(Metric::new(
        "certifier.log_group_size",
        ratio(
            group1.records.saturating_sub(group0.records) as f64,
            group1.fsyncs.saturating_sub(group0.fsyncs) as f64,
        ),
        "count",
        "R",
    ));
    m.push(Metric::new(
        "certifier.inflight_hwm",
        delta.high_water(GaugeId::CertifierInflight),
        "count",
        "R",
    ));
    // storage
    let announce = delta.stage(Stage::Announce);
    m.extend(hist_metrics("storage.announce_us", &announce));
    m.push(Metric::new(
        "storage.announce_samples",
        announce.count() as f64,
        "count",
        "R",
    ));
    m.push(Metric::new(
        "storage.lock_waits_per_commit",
        window.per_commit(delta.counter(CounterId::LockWaits)),
        "1/commit",
        "R",
    ));
    let ((l0, _), (l1, _)) = (delta.start, delta.end);
    let lock_wait = histogram_delta(&l1.lock_wait, &l0.lock_wait);
    m.push(
        Metric::new(
            "storage.lock_wait_us.p99",
            lock_wait.percentile(99.0).as_secs_f64() * 1e6,
            "us",
            "R",
        )
        .note(format!("n={}", lock_wait.count())),
    );
    m.push(Metric::new(
        "storage.wal_records_per_fsync",
        ratio(
            delta.counter(CounterId::WalRecords),
            delta.counter(CounterId::WalFsyncs),
        ),
        "count",
        "R",
    ));
    // net
    m.push(Metric::new(
        "net.msgs_per_commit",
        window.per_commit(delta.counter(CounterId::NetMessages)),
        "1/commit",
        "R",
    ));
    m.push(Metric::new(
        "net.bytes_per_commit",
        window.per_commit(
            delta.counter(CounterId::NetBytesSent) + delta.counter(CounterId::NetBytesReceived),
        ),
        "B/commit",
        "R",
    ));
    m.push(Metric::new(
        "net.reconnects",
        delta.counter(CounterId::NetReconnects),
        "count",
        "R",
    ));
    // core
    m.push(
        Metric::new(
            "core.checkpoints_per_s",
            delta.counter(CounterId::CheckpointsSealed) / window.seconds,
            "1/s",
            "R",
        )
        .note("images sealed (replicas + certifier shards)".into()),
    );
    m.push(Metric::new(
        "core.trimmed_entries_per_commit",
        window.per_commit(delta.counter(CounterId::TrimmedLogEntries)),
        "1/commit",
        "R",
    ));
    m
}

/// Exact p50 (and p99) of `samples_ns`, scaled by `per_ns` into `unit`.
fn span_percentiles(
    name: &str,
    mut samples_ns: Vec<f64>,
    unit: &'static str,
    per_ns: f64,
    p99: bool,
) -> Vec<Metric> {
    stats::sort(&mut samples_ns);
    let n = samples_ns.len();
    let at = |p| stats::percentile(&samples_ns, p).unwrap_or(0.0) * per_ns;
    let mut out =
        vec![Metric::new(&format!("{name}.p50"), at(50.0), unit, "S").note(count_note(n))];
    if p99 {
        out.push(Metric::new(&format!("{name}.p99"), at(99.0), unit, "S").note(count_note(n)));
    }
    out
}

/// Per-layer metrics from the traced run's span self times.  `timed_tps`
/// is the timed run's throughput; `hop_us` the networked-minus-in-process
/// certify median, when the workload crosses a wire.
#[must_use]
pub fn span_metrics(
    out: &RunOutput,
    window: &Window,
    core_spans: &[Span],
    timed_tps: f64,
    hop_us: Option<f64>,
) -> Vec<Metric> {
    let own = spans::self_times(&out.spans);
    let core_own = spans::self_times(core_spans);
    let in_window = |s: &Span| s.start_ns >= out.window_start_ns && s.end_ns < out.window_end_ns;
    // A client span counts when its whole logical transaction ran in the
    // window, so a long transaction straddling an edge is left out whole.
    let txns: HashSet<u64> = out
        .spans
        .iter()
        .filter(|s| s.kind == SpanKind::Txn && in_window(s))
        .map(|s| s.id)
        .collect();
    let windowed = || {
        out.spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| txns.contains(&s.txn))
    };
    let samples = |kinds: &[SpanKind]| -> Vec<f64> {
        windowed()
            .chain(
                core_spans
                    .iter()
                    .zip(&core_own)
                    .filter(|(s, _)| in_window(s)),
            )
            .filter(|(s, _)| kinds.contains(&s.kind))
            .map(|(_, &ns)| ns as f64)
            .collect()
    };
    // Where logical-transaction time goes, by the layer of each span.
    let txn_ns: u64 = windowed()
        .filter(|(s, _)| s.kind == SpanKind::Txn)
        .map(|(s, _)| s.dur_ns())
        .sum();
    let breakdown = ["client", "proxy", "storage"]
        .map(|layer| {
            let ns: u64 = windowed()
                .filter(|(s, _)| s.kind.layer() == layer)
                .map(|(_, &o)| o)
                .sum();
            format!("{layer} {:.1} %", 100.0 * ratio(ns as f64, txn_ns as f64))
        })
        .join(", ");
    let checkpoints = samples(&[SpanKind::Checkpoint]);
    let mut m = Vec::new();
    m.extend(span_percentiles(
        "proxy.begin_us",
        samples(&[SpanKind::Begin]),
        "us",
        1e-3,
        true,
    ));
    m.extend(span_percentiles(
        "proxy.commit_us",
        samples(&[SpanKind::Commit]),
        "us",
        1e-3,
        true,
    ));
    m.extend(span_percentiles(
        "storage.read_us",
        samples(&[SpanKind::Read]),
        "us",
        1e-3,
        true,
    ));
    m.extend(span_percentiles(
        "storage.write_us",
        samples(&[SpanKind::Update, SpanKind::Insert]),
        "us",
        1e-3,
        false,
    ));
    m.push(
        Metric::new("net.hop_us.p50", hop_us.unwrap_or(0.0), "us", "R").note(if hop_us.is_some() {
            "networked minus in-process certify p50".into()
        } else {
            "no wire".into()
        }),
    );
    m.push(Metric::new(
        "core.checkpoint_spans",
        checkpoints.len() as f64,
        "count",
        "S",
    ));
    m.extend(span_percentiles(
        "core.checkpoint_ms",
        checkpoints,
        "ms",
        1e-6,
        true,
    ));
    m.extend(span_percentiles(
        "core.trim_ms",
        samples(&[SpanKind::Trim]),
        "ms",
        1e-6,
        true,
    ));
    m.push(
        Metric::new(
            "trace.overhead_share",
            1.0 - ratio(window.throughput(), timed_tps),
            "share",
            "S",
        )
        .note(format!(
            "traced {:.0} vs timed {:.0} tps",
            window.throughput(),
            timed_tps
        )),
    );
    m.push(
        Metric::new(
            "trace.tiling_share",
            spans::tiling_share(&out.spans, &own).unwrap_or(0.0),
            "share",
            "S",
        )
        .note(format!(
            "self time of logical transactions in the window: {breakdown}"
        )),
    );
    m
}
