//! Spans recorded around the calls the benchmark makes into each layer and
//! around the callbacks the service makes into benchmark-owned code.
//!
//! Spans live in memory allocated before the run (the caller's buffer and
//! one per worker) and are analysed and written out when the run ends.
//! Untraced runs record nothing: the stage wrapper then only forwards.

use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use vif_core::enclave_app::EnclaveFilterStage;
use vif_dataplane::{FiveTuple, Packet, PacketStage, StageOutcome};

/// Monotonic nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy)]
pub struct Clock(Instant);

impl Clock {
    /// A clock whose zero is now.
    pub fn new() -> Self {
        Clock(Instant::now())
    }

    /// Nanoseconds since the clock's zero.
    #[inline]
    pub fn now(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

impl Default for Clock {
    fn default() -> Self {
        Self::new()
    }
}

/// The boundary a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    /// One set-up: launch to the first offered packet.
    Setup,
    /// `SgxPlatform::launch` / `EnclaveCluster::launch_rss_with`.
    Launch,
    /// `VictimClient::establish`.
    Attest,
    /// Background `submit_rules_deferred` + `publish`.
    Install,
    /// `DataplaneService::run` until its body starts.
    ServiceStart,
    /// One data-plane round: first `offer` to `flush_round` return.
    Round,
    /// `ServiceHandle::offer`.
    Offer,
    /// `ServiceHandle::flush_round`.
    Flush,
    /// One `process_batch` call of the stage wrapper (worker thread).
    Stage,
    /// `ClusterRoundDriver::close_round`.
    Audit,
    /// `FilterEnclaveApp::export_log_for` (audit replay).
    Export,
    /// Victim and neighbour `audit` (audit replay).
    Verify,
    /// `FilterEnclaveApp::apply_update_period`.
    Promote,
    /// One activation: submit to the probe's `flush_round` return.
    Activation,
    /// `FilteringSession::submit_rules_deferred`.
    Submit,
    /// `FilteringSession::withdraw_rules_deferred`.
    Withdraw,
    /// `EnclaveCluster::publish`.
    Publish,
    /// `offer` of the sentinel probe burst.
    Probe,
    /// `flush_round` of the sentinel probe burst.
    ProbeFlush,
}

impl Name {
    /// Every span name, in report order.
    pub const ALL: [Name; 19] = [
        Name::Setup,
        Name::Launch,
        Name::Attest,
        Name::Install,
        Name::ServiceStart,
        Name::Round,
        Name::Offer,
        Name::Flush,
        Name::Stage,
        Name::Audit,
        Name::Export,
        Name::Verify,
        Name::Promote,
        Name::Activation,
        Name::Submit,
        Name::Withdraw,
        Name::Publish,
        Name::Probe,
        Name::ProbeFlush,
    ];

    /// The name as written to the span file.
    pub fn as_str(self) -> &'static str {
        match self {
            Name::Setup => "setup",
            Name::Launch => "launch",
            Name::Attest => "attest",
            Name::Install => "install",
            Name::ServiceStart => "service_start",
            Name::Round => "round",
            Name::Offer => "offer",
            Name::Flush => "flush_round",
            Name::Stage => "stage",
            Name::Audit => "close_round",
            Name::Export => "export",
            Name::Verify => "verify",
            Name::Promote => "apply_update_period",
            Name::Activation => "activation",
            Name::Submit => "submit_rules_deferred",
            Name::Withdraw => "withdraw_rules_deferred",
            Name::Publish => "publish",
            Name::Probe => "probe_offer",
            Name::ProbeFlush => "probe_flush",
        }
    }
}

/// No enclosing span.
pub const NO_PARENT: u32 = u32::MAX;

/// Round ids at or above this mark sentinel probes, not data-plane rounds.
pub const PROBE_ROUND: u32 = 1 << 31;

/// One recorded interval.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Start, clock nanoseconds.
    pub start: u64,
    /// End, clock nanoseconds.
    pub end: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// The round (or probe) the span belongs to.
    pub round: u32,
    /// Work count: packets for data-plane spans.
    pub count: u32,
    /// The boundary.
    pub name: Name,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// The caller thread's spans. Durations are measured whether or not
/// recording is on, so untraced runs time the same calls.
pub struct Tracer {
    clock: Clock,
    /// Record spans (traced runs).
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of an open span: its start and, when recorded, its index.
pub struct Open {
    start: u64,
    idx: Option<u32>,
}

impl Open {
    /// Start, clock nanoseconds.
    pub fn start(&self) -> u64 {
        self.start
    }
}

impl Tracer {
    /// A tracer with room for `capacity` spans.
    pub fn new(clock: Clock, on: bool, capacity: usize) -> Self {
        Tracer {
            clock,
            on,
            spans: Vec::with_capacity(if on { capacity } else { 0 }),
            open: Vec::with_capacity(16),
        }
    }

    /// The run's clock.
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Opens a span; close it with [`close`](Tracer::close).
    pub fn open(&mut self, name: Name, round: u32) -> Open {
        let start = self.clock.now();
        let idx = self.on.then(|| {
            let idx = self.spans.len() as u32;
            self.spans.push(Span {
                start,
                end: start,
                parent: self.open.last().copied().unwrap_or(NO_PARENT),
                round,
                count: 0,
                name,
            });
            self.open.push(idx);
            idx
        });
        Open { start, idx }
    }

    /// Closes a span with its work count; returns its duration in ns.
    pub fn close(&mut self, open: Open, count: u32) -> u64 {
        let end = self.clock.now();
        if let Some(idx) = open.idx {
            let span = &mut self.spans[idx as usize];
            span.end = end;
            span.count = count;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(idx), "spans close in nesting order");
        }
        end - open.start
    }

    /// Runs `f` inside a span; returns its result and duration in ns.
    pub fn time<T>(&mut self, name: Name, round: u32, f: impl FnOnce() -> T) -> (T, u64) {
        let open = self.open(name, round);
        let out = f();
        (out, self.close(open, 0))
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// What one worker's stage wrapper recorded.
pub struct WorkerTrace {
    /// Worker index.
    pub worker: usize,
    /// One span per `process_batch` call.
    pub spans: Vec<Span>,
}

/// Worker 0's first traced data-plane bursts, kept for the replays.
struct Replay {
    packets: Vec<(FiveTuple, u64)>,
    bursts: Vec<u32>,
}

/// State the caller shares with the stage wrappers.
pub struct StageTrace {
    clock: Clock,
    /// The round the caller is offering.
    pub round: AtomicU32,
    /// Record spans for the rounds being offered.
    pub on: AtomicBool,
    /// Set by a wrapper whose span buffer filled up.
    pub full: AtomicBool,
    replay_full: AtomicBool,
    replay: Mutex<Replay>,
    done: Mutex<Vec<WorkerTrace>>,
}

impl StageTrace {
    /// Shared state for one run.
    pub fn new(clock: Clock) -> Arc<Self> {
        Arc::new(StageTrace {
            clock,
            round: AtomicU32::new(0),
            on: AtomicBool::new(false),
            full: AtomicBool::new(false),
            replay_full: AtomicBool::new(false),
            replay: Mutex::new(Replay {
                packets: Vec::with_capacity(Self::REPLAY),
                bursts: Vec::with_capacity(Self::REPLAY),
            }),
            done: Mutex::new(Vec::new()),
        })
    }

    /// Packets kept for the replays.
    const REPLAY: usize = 1 << 16;

    /// Worker 0's recorded bursts: the packets and each burst's length.
    pub fn replay(&self) -> (Vec<(FiveTuple, u64)>, Vec<u32>) {
        let r = self.replay.lock().expect("no wrapper panicked");
        (r.packets.clone(), r.bursts.clone())
    }

    /// Keeps `pkts` as one burst while there is room.
    fn keep(&self, pkts: &[Packet]) {
        if self.replay_full.load(Ordering::Relaxed) {
            return;
        }
        let mut r = self.replay.lock().unwrap_or_else(|e| e.into_inner());
        if r.packets.len() + pkts.len() > r.packets.capacity() {
            self.replay_full.store(true, Ordering::Relaxed);
            return;
        }
        r.packets
            .extend(pkts.iter().map(|p| (p.tuple, u64::from(p.wire_size))));
        r.bursts.push(pkts.len() as u32);
    }

    /// The workers' traces, available once the service has stopped.
    pub fn take(&self) -> Vec<WorkerTrace> {
        let mut done = std::mem::take(&mut *self.done.lock().expect("no wrapper panicked"));
        done.sort_by_key(|t| t.worker);
        done
    }
}

/// Wraps the real enclave stage. Traced, it records one span per burst
/// (and worker 0 keeps a copy of its first bursts); untraced, it only
/// forwards.
pub struct TimedStage {
    inner: EnclaveFilterStage,
    trace: Option<(Arc<StageTrace>, WorkerTrace)>,
}

impl TimedStage {
    /// Span capacity per worker.
    const SPANS: usize = 1 << 19;

    /// A wrapper around `inner`, recording into `trace` when given.
    pub fn new(inner: EnclaveFilterStage, worker: usize, trace: Option<Arc<StageTrace>>) -> Self {
        TimedStage {
            inner,
            trace: trace.map(|t| {
                (
                    t,
                    WorkerTrace {
                        worker,
                        spans: Vec::with_capacity(Self::SPANS),
                    },
                )
            }),
        }
    }
}

impl PacketStage for TimedStage {
    fn process_batch(&mut self, pkts: &[Packet], out: &mut Vec<StageOutcome>) {
        let Some((shared, rec)) = self
            .trace
            .as_mut()
            .filter(|(s, _)| s.on.load(Ordering::Relaxed))
        else {
            self.inner.process_batch(pkts, out);
            return;
        };
        let start = shared.clock.now();
        self.inner.process_batch(pkts, out);
        let end = shared.clock.now();
        let round = shared.round.load(Ordering::Relaxed);
        if rec.spans.len() < rec.spans.capacity() {
            rec.spans.push(Span {
                start,
                end,
                parent: NO_PARENT,
                round,
                count: pkts.len() as u32,
                name: Name::Stage,
            });
        } else {
            shared.full.store(true, Ordering::Relaxed);
        }
        if rec.worker == 0 && round < PROBE_ROUND {
            shared.keep(pkts);
        }
    }

    fn name(&self) -> &str {
        "timed-enclave-filter"
    }
}

impl Drop for TimedStage {
    fn drop(&mut self) {
        if let Some((shared, rec)) = self.trace.take() {
            // Never panic in drop: a poisoned lock still holds valid data.
            shared
                .done
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(rec);
        }
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi]`.
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Per span name over `spans` (one thread's buffer): count, total ns, and
/// self ns (duration minus the spans nested directly inside).
pub fn self_times(spans: &[Span]) -> Vec<(Name, u64, u64, u64)> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child[s.parent as usize] += s.dur();
        }
    }
    Name::ALL
        .iter()
        .filter_map(|&name| {
            let mut n = 0;
            let mut total = 0;
            let mut own = 0;
            for (i, s) in spans.iter().enumerate().filter(|(_, s)| s.name == name) {
                n += 1;
                total += s.dur();
                own += s.dur().saturating_sub(child[i]);
            }
            (n > 0).then_some((name, n, total, own))
        })
        .collect()
}

/// Writes every span as CSV: caller spans first (thread `caller`), then
/// each worker's (thread `worker<i>`, parent resolved to the round span).
pub fn write_csv(
    path: &std::path::Path,
    caller: &[Span],
    workers: &[WorkerTrace],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut round_span = std::collections::HashMap::new();
    for (i, s) in caller.iter().enumerate() {
        if s.name == Name::Round || s.name == Name::Activation {
            round_span.insert(s.round, i as u32);
        }
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,thread,name,start_ns,end_ns,parent,round,count")?;
    let mut id = 0usize;
    let mut row =
        |out: &mut std::io::BufWriter<std::fs::File>, thread: &str, s: &Span, parent: u32| {
            let parent = if parent == NO_PARENT {
                String::new()
            } else {
                parent.to_string()
            };
            let line = writeln!(
                out,
                "{id},{thread},{},{},{},{parent},{},{}",
                s.name.as_str(),
                s.start,
                s.end,
                s.round,
                s.count
            );
            id += 1;
            line
        };
    for s in caller {
        row(&mut out, "caller", s, s.parent)?;
    }
    for w in workers {
        let thread = format!("worker{}", w.worker);
        for s in &w.spans {
            let parent = round_span.get(&s.round).copied().unwrap_or(NO_PARENT);
            row(&mut out, &thread, s, parent)?;
        }
    }
    out.flush()
}
