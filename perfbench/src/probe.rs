//! Per-probe layer timers: thin wrappers over the two public seams the
//! scanner composes through, [`Network`] (+ [`SnapshotNetwork`]) and
//! [`ProbeModule`]. They delegate every call unchanged, so a scan through
//! them produces the same results as one without them; they only add
//! busy time and call counts, summed over all fan-out workers.

use expanse_netsim::{Delivery, Network, SnapshotNetwork, Time};
use expanse_packet::{Datagram, Ipv6Header, Protocol};
use expanse_zmap6::module::ReplyKind;
use expanse_zmap6::{ProbeModule, Validator};
use std::net::Ipv6Addr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Busy nanoseconds and calls of one per-probe layer. Relaxed atomics:
/// the values are statistics and publish no other data.
#[derive(Default)]
pub struct Busy {
    ns: AtomicU64,
    calls: AtomicU64,
}

impl Busy {
    fn add(&self, since: Instant) {
        self.ns
            .fetch_add(since.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
    }

    /// `(busy seconds, calls)` so far.
    pub fn read(&self) -> (f64, u64) {
        (
            self.ns.load(Ordering::Relaxed) as f64 * 1e-9,
            self.calls.load(Ordering::Relaxed),
        )
    }
}

/// The per-probe counters one traced run accumulates.
#[derive(Default)]
pub struct ProbeCounters {
    /// Simulated network: `Network::inject`.
    pub inject: Busy,
    /// Packet build: `ProbeModule::build`.
    pub build: Busy,
    /// Reply validation: `ProbeModule::classify`.
    pub classify: Busy,
    /// Replies `classify` accepted.
    pub validated: AtomicU64,
}

/// A network that times every `inject`, including through snapshots.
pub struct TimedNetwork<N> {
    /// The wrapped network.
    pub inner: N,
    counters: Arc<ProbeCounters>,
}

impl<N> TimedNetwork<N> {
    pub fn new(inner: N, counters: Arc<ProbeCounters>) -> Self {
        TimedNetwork { inner, counters }
    }
}

impl<N: Network> Network for TimedNetwork<N> {
    fn inject(&mut self, now: Time, frame: &[u8]) -> Vec<Delivery> {
        let t0 = Instant::now();
        let out = self.inner.inject(now, frame);
        self.counters.inject.add(t0);
        out
    }
}

/// Per-stream view of a [`TimedNetwork`]: the inner snapshot plus a
/// borrow of the shared counters.
pub struct TimedSnapshot<'a, N: SnapshotNetwork + 'a> {
    inner: N::Snapshot<'a>,
    counters: &'a ProbeCounters,
}

impl<'a, N: SnapshotNetwork + 'a> Network for TimedSnapshot<'a, N> {
    fn inject(&mut self, now: Time, frame: &[u8]) -> Vec<Delivery> {
        let t0 = Instant::now();
        let out = self.inner.inject(now, frame);
        self.counters.inject.add(t0);
        out
    }
}

impl<N: SnapshotNetwork> SnapshotNetwork for TimedNetwork<N> {
    type Snapshot<'a>
        = TimedSnapshot<'a, N>
    where
        Self: 'a;

    fn snapshot(&self) -> TimedSnapshot<'_, N> {
        TimedSnapshot {
            inner: self.inner.snapshot(),
            counters: &self.counters,
        }
    }
}

/// A probe module that times `build` and `classify`.
pub struct TimedModule {
    inner: Box<dyn ProbeModule>,
    counters: Arc<ProbeCounters>,
}

impl ProbeModule for TimedModule {
    fn protocol(&self) -> Protocol {
        self.inner.protocol()
    }

    fn build(&self, src: Ipv6Addr, dst: Ipv6Addr, v: &Validator) -> Datagram {
        let t0 = Instant::now();
        let d = self.inner.build(src, dst, v);
        self.counters.build.add(t0);
        d
    }

    fn classify(
        &self,
        hdr: &Ipv6Header,
        transport: &expanse_packet::Transport,
        v: &Validator,
    ) -> Option<(Ipv6Addr, ReplyKind)> {
        let t0 = Instant::now();
        let out = self.inner.classify(hdr, transport, v);
        self.counters.classify.add(t0);
        if out.is_some() {
            self.counters.validated.fetch_add(1, Ordering::Relaxed);
        }
        out
    }
}

/// The standard battery with every module wrapped in a [`TimedModule`].
pub fn timed_battery(counters: &Arc<ProbeCounters>) -> Vec<Box<dyn ProbeModule>> {
    expanse_zmap6::standard_battery()
        .into_iter()
        .map(|inner| {
            Box::new(TimedModule {
                inner,
                counters: Arc::clone(counters),
            }) as Box<dyn ProbeModule>
        })
        .collect()
}
