//! Outside-in observation: a wrapping [`Collector`] and a wrapping
//! [`MitigationPolicy`] that time the kernel through its public hooks
//! only.
//!
//! The kernel calls `on_event` once per dispatched event, `on_send`
//! while dispatching a `SendDue`, `on_latency` while dispatching a
//! recorded `ClientDelivery`, and `on_node_done` once per node after the
//! event loop. So the gap between two `on_event` stamps is the host time
//! of the earlier event, and the hooks fired inside the gap say which
//! kind it was:
//!
//! * `send`: a `SendDue` (an `on_send` fired);
//! * `deliver`: a recorded, in-window `ClientDelivery` (an `on_latency`
//!   fired);
//! * `other`: everything else — `ServerArrival`, `ServiceStage`,
//!   `PhaseStart` and the deliveries of warm-up requests.
//!
//! A partition's set-up runs from the collector's creation (the sharded
//! kernel calls its factory right before the partition starts) to the
//! first event; its epilogue from the first `on_node_done` to the last.

use std::cell::RefCell;
use std::time::Instant;

use tpv_core::collect::{Collector, MergeCollector, NodeStats};
use tpv_core::control::{MitigationAction, MitigationPolicy, WindowObservation};
use tpv_sim::{SimDuration, SimTime};

/// Event classes the hooks can tell apart.
pub const SEND: usize = 0;
/// See [`SEND`].
pub const DELIVER: usize = 1;
/// See [`SEND`].
pub const OTHER: usize = 2;

fn ns_between(a: Instant, b: Instant) -> u64 {
    b.saturating_duration_since(a).as_nanos() as u64
}

/// What one partition (one shard's sub-simulation, or a whole unsharded
/// run) showed the hooks.
#[derive(Debug, Clone)]
pub struct Part {
    /// When the partition's collector was made.
    pub created: Instant,
    /// First event dispatch (`None` for a partition without nodes).
    pub first: Option<Instant>,
    /// Events dispatched.
    pub events: u64,
    /// Events per class (spans only).
    pub count: [u64; 3],
    /// Host ns per class (spans only).
    pub ns: [u64; 3],
    /// First and last `on_node_done`.
    pub done: Option<(Instant, Instant)>,
    prev: Instant,
    sent: bool,
    recorded: bool,
}

impl Part {
    fn new() -> Self {
        let now = Instant::now();
        Part {
            created: now,
            first: None,
            events: 0,
            count: [0; 3],
            ns: [0; 3],
            done: None,
            prev: now,
            sent: false,
            recorded: false,
        }
    }

    /// Host ns from the collector's creation to the first event.
    pub fn setup_ns(&self) -> u64 {
        self.first.map_or(0, |f| ns_between(self.created, f))
    }

    /// Host ns of the per-node epilogue.
    pub fn epilogue_ns(&self) -> u64 {
        self.done.map_or(0, |(a, b)| ns_between(a, b))
    }

    /// Host ns from creation to the last `on_node_done`.
    pub fn busy_ns(&self) -> u64 {
        self.done.map_or(0, |(_, b)| ns_between(self.created, b))
    }

    /// Closes the open event span at `t`.
    fn close(&mut self, t: Instant) {
        let class = if self.sent {
            SEND
        } else if self.recorded {
            DELIVER
        } else {
            OTHER
        };
        self.ns[class] += ns_between(self.prev, t);
        self.count[class] += 1;
        self.sent = false;
        self.recorded = false;
    }
}

/// Wraps a collector. With `SPANS = false` it only counts events and
/// stamps the first one (a branch and an add per event); with
/// `SPANS = true` it also reads the clock on every event and splits the
/// dispatch time by event class.
pub struct Observed<C, const SPANS: bool> {
    /// The wrapped collector.
    inner: C,
    part: Part,
    /// Partitions merged in, in shard order.
    merged: Vec<Part>,
    /// Host ns spent inside the wrapped collector's `merge`.
    merge_ns: u64,
}

impl<C, const SPANS: bool> Observed<C, SPANS> {
    /// Wraps `inner`; the partition's set-up clock starts now.
    pub fn new(inner: C) -> Self {
        Observed { inner, part: Part::new(), merged: Vec::new(), merge_ns: 0 }
    }

    /// The wrapped collector, every partition this collector saw (in
    /// shard declaration order) and the host ns spent merging them.
    pub fn into_parts(self) -> (C, Vec<Part>, u64) {
        let mut parts = Vec::with_capacity(1 + self.merged.len());
        parts.push(self.part);
        parts.extend(self.merged);
        (self.inner, parts, self.merge_ns)
    }
}

impl<C: Collector, const SPANS: bool> Collector for Observed<C, SPANS> {
    #[inline]
    fn on_event(&mut self, now: SimTime) {
        if SPANS {
            let t = Instant::now();
            if self.part.events == 0 {
                self.part.first = Some(t);
            } else {
                self.part.close(t);
            }
            self.part.prev = t;
        } else if self.part.events == 0 {
            self.part.first = Some(Instant::now());
        }
        self.part.events += 1;
        self.inner.on_event(now);
    }

    #[inline]
    fn on_send(&mut self, node: usize, conn: u32, due: SimTime, wire: SimTime) {
        self.part.sent = true;
        self.inner.on_send(node, conn, due, wire);
    }

    #[inline]
    fn on_latency(&mut self, node: usize, stamp: SimTime, measured: SimDuration) {
        self.part.recorded = true;
        self.inner.on_latency(node, stamp, measured);
    }

    fn on_node_done(&mut self, node: usize, stats: &NodeStats) {
        let t = Instant::now();
        match &mut self.part.done {
            None => {
                if SPANS && self.part.events > 0 {
                    self.part.close(t);
                }
                self.part.done = Some((t, t));
            }
            Some((_, last)) => *last = t,
        }
        self.inner.on_node_done(node, stats);
    }

    fn on_hedge(&mut self, node: usize) {
        self.inner.on_hedge(node);
    }
}

impl<C: MergeCollector, const SPANS: bool> MergeCollector for Observed<C, SPANS> {
    fn merge(&mut self, other: Self) {
        let t = Instant::now();
        self.inner.merge(other.inner);
        self.merge_ns += ns_between(t, Instant::now()) + other.merge_ns;
        self.merged.push(other.part);
        self.merged.extend(other.merged);
    }
}

/// Wraps a policy and stamps every `decide` call: the controller calls
/// it once per window boundary, so the stamps split a controlled run
/// into its windows.
pub struct Marked<'a> {
    inner: &'a dyn MitigationPolicy,
    marks: RefCell<Vec<(Instant, Instant)>>,
}

impl<'a> Marked<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn MitigationPolicy) -> Self {
        Marked { inner, marks: RefCell::new(Vec::new()) }
    }

    /// Splits a controlled run that went from `entry` to `ret` into its
    /// window times and decide times (both in host ns), and forgets the
    /// marks.
    pub fn take_windows(&self, entry: Instant, ret: Instant) -> (Vec<u64>, Vec<u64>) {
        let marks = std::mem::take(&mut *self.marks.borrow_mut());
        let mut windows = Vec::with_capacity(marks.len() + 1);
        let mut from = entry;
        for &(a, b) in &marks {
            windows.push(ns_between(from, a));
            from = b;
        }
        windows.push(ns_between(from, ret));
        (windows, marks.iter().map(|&(a, b)| ns_between(a, b)).collect())
    }
}

impl MitigationPolicy for Marked<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&self, obs: &WindowObservation) -> Vec<MitigationAction> {
        let a = Instant::now();
        let actions = self.inner.decide(obs);
        self.marks.borrow_mut().push((a, Instant::now()));
        actions
    }
}
