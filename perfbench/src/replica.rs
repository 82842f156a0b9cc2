//! The traced run: one production day driven through the layers'
//! public functions in the order `Pipeline::run_day_full` calls them,
//! with a span around each call.
//!
//! The replica keeps the day's state in a `Pipeline` (its hitlist, APD
//! detector, ledger and scheduler are public fields), so the journal and
//! the view publish run on the real types. Probing goes through a second
//! scanner whose network is the same `InternetModel` behind the timing
//! wrappers of [`crate::probe`]. Two pieces of pipeline state are
//! private, so the replica handles them itself:
//!
//! - the hot-prefix set (daily APD re-probe candidates) lives here; the
//!   replica's journal therefore carries no hot-set diff, so journal
//!   byte counts are taken from the untraced run;
//! - the day counter advances through `Pipeline::warmup_apd(1)` over an
//!   empty hitlist, which probes nothing.
//!
//! The scheduler is off in both runs (the default), so its branches of
//! `run_day_full` are not replicated; [`Replica::new`] refuses a config
//! that enables it.

use crate::day::{ingest_feed, record_bytes, DayOut, Operator};
use crate::probe::{timed_battery, ProbeCounters, TimedNetwork};
use crate::Spec;
use expanse_addr::{AddrId, Prefix};
use expanse_core::Hitlist;
use expanse_model::{InternetModel, ModelConfig, SourceId};
use expanse_packet::ProtoSet;
use expanse_scamper6::{TraceConfig, Tracer};
use expanse_serve::SnapshotView;
use expanse_zmap6::Scanner;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv6Addr;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// One span: a named interval of one day, with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub day: u16,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// Spans held in memory until the run ends.
pub struct Spans {
    t0: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, day: u16) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            day,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(id), "spans close in stack order");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Duration minus the time its direct children cover (children of
    /// a serial span never overlap).
    pub fn self_secs(&self, id: usize) -> f64 {
        let children: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::secs)
            .sum();
        self.spans[id].secs() - children
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"id\": {i}, \"name\": \"{}\", \"day\": {}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"self_s\": {}}}\n",
                s.name,
                s.day,
                s.start_ns,
                s.end_ns,
                self.self_secs(i)
            ));
        }
        out
    }
}

/// Simulated-network busy time split by the stage that probed.
#[derive(Debug, Default, Clone, Copy)]
pub struct InjectSplit {
    pub apd: (f64, u64),
    pub trace: (f64, u64),
    pub battery: (f64, u64),
}

/// Per-day deterministic counts the traced run reports per layer.
#[derive(Debug, Default, Clone, Copy)]
pub struct LayerCounts {
    pub apd_probes: u64,
    pub trace_probes: u64,
    pub routers: u64,
    pub battery_probes: u64,
}

pub struct Replica {
    op: Operator,
    scanner: Scanner<TimedNetwork<InternetModel>>,
    hot: BTreeSet<Prefix>,
    pub counters: Arc<ProbeCounters>,
    pub inject: InjectSplit,
    pub counts: LayerCounts,
}

fn add(acc: &mut (f64, u64), before: (f64, u64), after: (f64, u64)) {
    acc.0 += after.0 - before.0;
    acc.1 += after.1 - before.1;
}

impl Replica {
    /// Take over a freshly set-up operator: its model moves behind the
    /// timing wrapper, and a tiny placeholder takes its place in the
    /// pipeline (which from here on only holds state).
    pub fn new(mut op: Operator) -> Result<Self, String> {
        if op.p.cfg.sched.enabled {
            return Err("the traced replica does not replicate the scheduler".into());
        }
        let placeholder = InternetModel::build(ModelConfig::tiny(1));
        let model = std::mem::replace(op.p.model(), placeholder);
        let counters = Arc::new(ProbeCounters::default());
        let mut scanner = Scanner::new(
            TimedNetwork::new(model, Arc::clone(&counters)),
            op.p.cfg.scan.clone(),
        );
        scanner.set_now(op.p.scanner.now());
        Ok(Replica {
            op,
            scanner,
            hot: BTreeSet::new(),
            counters,
            inject: InjectSplit::default(),
            counts: LayerCounts::default(),
        })
    }

    /// Run one traced day; `spans` receives a `day` span with one child
    /// per stage.
    pub fn run_day(&mut self, spec: &Spec, spans: &mut Spans) -> DayOut {
        let t0 = Instant::now();
        let q = &mut self.op.p;
        let day = q.day();
        let cfg = q.cfg.clone();
        let d = spans.enter("day", day);
        if spec.churn {
            let feed = self.scanner.network().inner.scenario_feed(day);
            ingest_feed(q, &feed, day);
        }
        self.scanner.network_mut().inner.set_day(day);
        let mut probes = 0u64;
        let live = q.hitlist.live_set();

        let s = spans.enter("apd.plan", day);
        let plan: Vec<Prefix> = if day.is_multiple_of(cfg.full_apd_every) {
            expanse_apd::plan_targets_set(q.hitlist.table(), &live, &cfg.plan)
        } else {
            self.hot.iter().copied().collect()
        };
        spans.exit(s);

        let s = spans.enter("apd.probe", day);
        let before = self.counters.inject.read();
        let report = if plan.is_empty() {
            None
        } else {
            Some(q.apd.run_day(&mut self.scanner, &plan))
        };
        add(&mut self.inject.apd, before, self.counters.inject.read());
        spans.exit(s);

        let s = spans.enter("apd.filter", day);
        let aliased_now = q.apd.aliased_prefixes();
        let filter = expanse_apd::AliasFilter::new(aliased_now.iter().copied());
        let (kept_ids, _removed) = filter.split_set(q.hitlist.table(), &live);
        spans.exit(s);

        if let Some(report) = report {
            probes += report.probes_sent;
            self.counts.apd_probes += report.probes_sent;
            for (p, o) in &report.observations {
                let nearly = o.merged().count_ones() >= 14;
                if nearly && aliased_now.binary_search(p).is_err() {
                    self.hot.insert(*p);
                } else {
                    self.hot.remove(p);
                }
            }
        }
        let kept: Vec<Ipv6Addr> = kept_ids.addrs(q.hitlist.table()).collect();
        let trace_targets: Vec<Ipv6Addr> = kept.iter().copied().take(cfg.trace_budget).collect();

        let s = spans.enter("scamper6.trace", day);
        let before = self.counters.inject.read();
        let harvest = Tracer::new(
            self.scanner.network_mut(),
            TraceConfig {
                src: cfg.scan.src,
                seed: cfg.scan.seed ^ 0x7ace,
                ..TraceConfig::default()
            },
        )
        .harvest(&trace_targets);
        add(&mut self.inject.trace, before, self.counters.inject.read());
        spans.exit(s);
        probes += harvest.probes_sent;
        self.counts.trace_probes += harvest.probes_sent;
        self.counts.routers += harvest.routers.len() as u64;
        q.hitlist.add_from(SourceId::Scamper, &harvest.routers, day);

        let s = spans.enter("zmap6.battery", day);
        let before = self.counters.inject.read();
        let battery = timed_battery(&self.counters);
        let threads = expanse_addr::worker_threads();
        let hl = &q.hitlist;
        let mut multi = self
            .scanner
            .scan_battery_resolved(&kept, &battery, &mut |a| {
                hl.id_of(a).expect("battery targets are hitlist members")
            });
        let battery_probes = multi.total_sent();
        let battery_digest = multi.digest();
        add(
            &mut self.inject.battery,
            before,
            self.counters.inject.read(),
        );
        spans.exit(s);
        probes += battery_probes;
        self.counts.battery_probes += battery_probes;

        let s = spans.enter("core.day_pass", day);
        let mut day_pass: Vec<(AddrId, ProtoSet)> = multi.resolved_pairs().collect();
        expanse_addr::par::par_sort_by_key(&mut day_pass, threads, |&(id, _)| id);
        q.ledger
            .record_day_threads(day, &day_pass, &q.hitlist, threads);
        q.hitlist.mark_responsive_batch(day, &day_pass, threads);
        let mut outcomes: BTreeMap<Prefix, (u64, u64)> = BTreeMap::new();
        for &a in &kept {
            outcomes
                .entry(Prefix::new(a, expanse_sched::SCHED_PREFIX_LEN))
                .or_insert((0, 0))
                .0 += 1;
        }
        for &(id, _) in &day_pass {
            let a = q.hitlist.table().addr(id);
            outcomes
                .entry(Prefix::new(a, expanse_sched::SCHED_PREFIX_LEN))
                .or_insert((0, 0))
                .1 += 1;
        }
        for (&net, &(spent, _)) in &outcomes {
            q.hitlist.charge_probes(net, spent);
        }
        spans.exit(s);

        let s = spans.enter("core.retention", day);
        let expired = match cfg.retention.window {
            Some(window) if day.is_multiple_of(cfg.retention.every.max(1)) => {
                q.hitlist.expire_unresponsive(day, window)
            }
            _ => 0,
        };
        spans.exit(s);
        let responders = multi.take_responsive().len();
        let hitlist_total = q.hitlist.len();
        let aliased = aliased_now.len();

        // Advance the pipeline's day counter (see the module docs) and
        // hand it the scanner clock the journal records.
        let held = std::mem::replace(&mut q.hitlist, Hitlist::new());
        q.warmup_apd(1);
        q.hitlist = held;
        q.scanner.set_now(self.scanner.now());

        let s = spans.enter("core.journal", day);
        let rec = self.op.journal.record(&mut self.op.p);
        spans.exit(s);
        let s = spans.enter("serve.publish", day);
        let view = SnapshotView::publish(&self.op.p);
        spans.exit(s);
        let s = spans.enter("serve.swap", day);
        self.op.registry.publish(view);
        spans.exit(s);
        spans.exit(d);

        let ((journal_bytes, compacted), ok) = match &rec {
            Ok(r) => (record_bytes(r), true),
            Err(_) => ((0, false), false),
        };
        DayOut {
            day,
            digest: battery_digest,
            probes,
            responders,
            aliased,
            hitlist: hitlist_total,
            expired,
            journal_bytes,
            compacted,
            ok,
            wall_s: t0.elapsed().as_secs_f64(),
        }
    }

    /// Replies the battery's modules validated so far.
    pub fn validated(&self) -> u64 {
        self.counters.validated.load(Ordering::Relaxed)
    }
}
