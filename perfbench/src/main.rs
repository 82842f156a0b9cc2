//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <day-mid|day-churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the operator's cycle on its synthetic Internet,
//! with the probe secrets and the queries drawn from the seed: cycles of
//! set-up plus virtual days (`run_day` → journal record on disk → view
//! publish + registry swap), each day followed by an open-loop query
//! window over TCP against the view it published, at one of two fixed
//! rates; then the journal reload check. The workloads differ in which
//! part dominates; see `perfbench/README.md`.
//!
//! `--trace 0` prints the end-to-end metrics. `--trace 1` also runs one
//! more cycle through the traced replica (`replica.rs`), requires it to
//! reproduce the untraced days exactly, and prints the per-layer
//! metrics; its spans are written to `.bench_out/` when the run ends.
//! The last line of standard output is one JSON object; the exit code
//! is non-zero when any output check failed.

mod affinity;
mod day;
mod probe;
mod replica;
mod serve;

use day::{DayOut, Operator};
use expanse_serve::{DrainReport, SnapshotRegistry};
use replica::{Replica, Spans};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One workload.
pub struct Spec {
    pub name: &'static str,
    /// Adversarial scenario, scenario feed and daily retention.
    pub churn: bool,
    /// Virtual days in one cycle of the day phase.
    pub days: u16,
    /// Cycles of the day phase, each from a fresh set-up.
    pub cycles: usize,
    /// Distinct requests a query window cycles through; the larger
    /// the pool, the more requests miss the response cache.
    pub pool: usize,
}

const SPECS: [Spec; 2] = [
    Spec {
        name: "day-mid",
        churn: false,
        days: 7,
        cycles: 4,
        pool: 2000,
    },
    Spec {
        name: "day-churn",
        churn: true,
        days: 8,
        cycles: 3,
        pool: 500,
    },
];

/// Offered rates of the query windows, q/s: `lo`, and `hi` below the
/// saturation point of a 2-core machine. Windows alternate between
/// them.
const RATES: (usize, usize) = (2000, 3000);
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
const OUT_DIR: &str = ".bench_out";

/// Work attempted and failed, with the reason for every failure.
#[derive(Default)]
pub struct Work {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

impl Work {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

struct Args {
    spec: &'static Spec,
    seed: u64,
    seconds: u32,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or(format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let spec = SPECS
        .iter()
        .find(|s| s.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: u32 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, not {t}")),
    };
    Ok(Args {
        spec,
        seed,
        seconds,
        trace,
    })
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile; failed samples (`None`) rank above every
/// latency, so they count as over any limit.
fn percentile(samples: impl Iterator<Item = Option<f64>>, q: f64) -> f64 {
    let mut v: Vec<f64> = samples.map(|s| s.unwrap_or(f64::INFINITY)).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

fn full_apd_day(every: u16, day: u16) -> bool {
    day.is_multiple_of(every)
}

fn day_metrics(m: &mut Metrics, cycles: &[Vec<DayOut>], every: u16) {
    let all: Vec<&DayOut> = cycles.iter().flatten().collect();
    let walls = |full: bool| -> Vec<f64> {
        all.iter()
            .filter(|d| full_apd_day(every, d.day) == full)
            .map(|d| d.wall_s)
            .collect()
    };
    put(m, "full_apd_day_s", median(&walls(true)), "s");
    put(m, "steady_day_s", median(&walls(false)), "s");
    let probes: u64 = all.iter().map(|d| d.probes).sum();
    let wall: f64 = all.iter().map(|d| d.wall_s).sum();
    put(m, "probes_per_s", probes as f64 / wall, "1/s");
    // Cycles repeat byte for byte, so one cycle gives the exact count.
    let bytes: u64 = cycles[0].iter().map(|d| d.journal_bytes).sum();
    put(
        m,
        "journal_bytes_per_day",
        bytes as f64 / cycles[0].len() as f64,
        "B",
    );
}

/// The median over an offered rate's windows (each opens on the epoch
/// a day just published) of each window's median latency.
fn windowed_p50(windows: &[serve::Window]) -> f64 {
    let per: Vec<f64> = windows
        .iter()
        .map(|w| percentile(w.latency_us.iter().map(|&(_, l)| l), 0.50))
        .collect();
    median(&per)
}

fn serve_metrics(m: &mut Metrics, s: &serve::ServeOut) {
    put(m, "serve_lo_p50_us", windowed_p50(&s.lo), "us");
    put(m, "serve_hi_p50_us", windowed_p50(&s.hi), "us");
}

/// The per-layer metrics of the serve path, over all windows.
fn serve_layers(m: &mut Metrics, s: &serve::ServeOut) {
    for (label, windows) in [("lo", &s.lo), ("hi", &s.hi)] {
        let lat = windows
            .iter()
            .flat_map(|w| w.latency_us.iter().map(|&(_, l)| l));
        put(
            m,
            &format!("serve.{label}.p99_us"),
            percentile(lat, 0.99),
            "us",
        );
    }
    let all = || s.lo.iter().chain(&s.hi);
    for (k, kind) in serve::KINDS.iter().enumerate() {
        let lat = || {
            all()
                .flat_map(|w| &w.latency_us)
                .filter(move |&&(kk, _)| kk == k)
                .map(|&(_, l)| l)
        };
        put(
            m,
            &format!("serve.{kind}.p50_us"),
            percentile(lat(), 0.50),
            "us",
        );
        put(
            m,
            &format!("serve.{kind}.p99_us"),
            percentile(lat(), 0.99),
            "us",
        );
    }
    // Counters summed over the servers, one per cycle.
    let sum = |f: &dyn Fn(&DrainReport) -> u64| s.drains.iter().map(f).sum::<u64>() as f64;
    let cache = |d: &DrainReport| d.cache.unwrap_or_default();
    let (hits, misses) = (sum(&|d| cache(d).hits), sum(&|d| cache(d).misses));
    put(m, "serve.cache_hit_rate", hits / (hits + misses), "share");
    put(m, "serve.cache_lookups", hits + misses, "count");
    put(
        m,
        "serve.cache_evicted",
        sum(&|d| cache(d).evicted),
        "count",
    );
    put(
        m,
        "serve.cache_retired",
        sum(&|d| cache(d).retired),
        "count",
    );
    put(m, "serve.requests", sum(&|d| d.stats.requests), "count");
    let rejected = sum(&|d| {
        let st = d.stats;
        st.rejected_overloaded + st.rejected_shutdown + st.rate_limited
    });
    put(m, "serve.rejected", rejected, "count");
    let late = all().flat_map(|w| w.late_us.iter().map(|&l| Some(l)));
    put(m, "serve.gen_late_p99_us", percentile(late, 0.99), "us");
    let drains: Vec<f64> = s
        .drains
        .iter()
        .map(|d| d.drain.as_secs_f64() * 1e3)
        .collect();
    put(m, "serve.drain_ms", median(&drains), "ms");
}

/// Stages of the traced day, in `run_day_full` order.
const STAGES: [&str; 10] = [
    "apd.plan",
    "apd.probe",
    "apd.filter",
    "scamper6.trace",
    "zmap6.battery",
    "core.day_pass",
    "core.retention",
    "core.journal",
    "serve.publish",
    "serve.swap",
];

/// Per-layer metrics of the traced days.
fn day_layers(
    m: &mut Metrics,
    r: &Replica,
    spans: &Spans,
    traced: &[DayOut],
    cycles: &[Vec<DayOut>],
    every: u16,
) {
    let untraced = &cycles[0];
    let days: Vec<(usize, &replica::Span)> = spans
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == "day")
        .collect();
    let full_day = |day: u16| full_apd_day(every, day);
    let wall = |full: bool| -> f64 {
        days.iter()
            .filter(|(_, s)| full_day(s.day) == full)
            .map(|(_, s)| s.secs())
            .sum()
    };
    let (full_wall, steady_wall) = (wall(true), wall(false));
    for stage in STAGES {
        let secs = |full: Option<bool>| -> f64 {
            spans
                .spans
                .iter()
                .filter(|s| s.name == stage && full.is_none_or(|f| full_day(s.day) == f))
                .map(replica::Span::secs)
                .sum()
        };
        put(m, &format!("{stage}_s"), secs(None), "s");
        put(
            m,
            &format!("{stage}.full_share"),
            secs(Some(true)) / full_wall,
            "share",
        );
        put(
            m,
            &format!("{stage}.steady_share"),
            secs(Some(false)) / steady_wall,
            "share",
        );
    }
    // Self time of the serial spans: the day's own glue, and probing
    // stages net of the simulated network.
    let day_self: f64 = days.iter().map(|&(i, _)| spans.self_secs(i)).sum();
    put(m, "day.self_s", day_self, "s");
    let stage_s = |name: &str| m.get(&format!("{name}_s")).map_or(0.0, |v| v.0);
    let apd_self = stage_s("apd.probe") - r.inject.apd.0;
    let trace_self = stage_s("scamper6.trace") - r.inject.trace.0;
    put(m, "apd.probe.self_s", apd_self, "s");
    put(m, "scamper6.trace.self_s", trace_self, "s");
    put(m, "day.full_s", full_wall, "s");
    put(m, "day.steady_s", steady_wall, "s");
    let traced_s: f64 = traced.iter().map(|d| d.wall_s).sum();
    let untraced_s = median(
        &cycles
            .iter()
            .map(|c| c.iter().map(|d| d.wall_s).sum())
            .collect::<Vec<f64>>(),
    );
    put(m, "trace.overhead", traced_s / untraced_s - 1.0, "share");

    put(m, "apd.probes", r.counts.apd_probes as f64, "count");
    put(m, "scamper6.probes", r.counts.trace_probes as f64, "count");
    put(m, "scamper6.routers", r.counts.routers as f64, "count");
    put(
        m,
        "zmap6.battery_probes",
        r.counts.battery_probes as f64,
        "count",
    );
    let responders: usize = traced.iter().map(|d| d.responders).sum();
    put(m, "zmap6.responders", responders as f64, "count");
    put(
        m,
        "zmap6.yield",
        responders as f64 / r.counts.battery_probes as f64,
        "share",
    );
    let expired: usize = traced.iter().map(|d| d.expired).sum();
    put(m, "core.expired", expired as f64, "count");
    // Journal bytes come from the untraced run (see replica.rs).
    let bytes: u64 = untraced.iter().map(|d| d.journal_bytes).sum();
    put(m, "core.journal_bytes", bytes as f64, "B");
    let compactions = untraced.iter().filter(|d| d.compacted).count();
    put(m, "core.journal_compactions", compactions as f64, "count");

    for (label, (s, calls)) in [
        ("apd", r.inject.apd),
        ("trace", r.inject.trace),
        ("battery", r.inject.battery),
    ] {
        put(m, &format!("model.inject.{label}_s"), s, "s");
        put(
            m,
            &format!("model.inject.{label}_calls"),
            calls as f64,
            "count",
        );
    }
    let (s, calls) = r.counters.build.read();
    put(m, "packet.build_s", s, "s");
    put(m, "packet.build_calls", calls as f64, "count");
    let (s, calls) = r.counters.classify.read();
    put(m, "zmap6.classify_s", s, "s");
    put(m, "zmap6.classify_calls", calls as f64, "count");
    put(m, "zmap6.validated", r.validated() as f64, "count");
}

fn run(args: &Args, work: &mut Work) -> Result<Metrics, String> {
    let spec = args.spec;
    let out = PathBuf::from(OUT_DIR);
    let tag = format!("{}-{}-{}", spec.name, args.seed, std::process::id());
    let work_dir = out.join(format!("work-{tag}"));
    let result = run_in(args, work, &out, &work_dir);
    let _ = std::fs::remove_dir_all(&work_dir);
    result
}

fn run_in(args: &Args, work: &mut Work, out: &Path, work_dir: &Path) -> Result<Metrics, String> {
    let spec = args.spec;
    let mut m = Metrics::new();

    // ---- the day phase: set-up + one cycle of days, repeated ----------
    // Every cycle starts from a fresh set-up of the same seed, so all
    // cycles do identical work: their per-day outputs must match, and
    // their timings are samples of one distribution. A query window
    // follows every day, against the view that day published; the
    // windows share `--seconds` between them.
    let day_count = spec.cycles * usize::from(spec.days);
    let window_s = f64::from(args.seconds) / day_count as f64;
    let mut setup_s = Vec::new();
    let mut cycles: Vec<Vec<DayOut>> = Vec::new();
    let mut served = serve::ServeOut::default();
    let mut op: Option<Operator> = None;
    while cycles.len() < spec.cycles {
        drop(op.take());
        let dir = work_dir.join(format!("cycle{}", cycles.len()));
        let t = Instant::now();
        let mut o = day::setup(spec, args.seed, &dir)?;
        setup_s.push(t.elapsed().as_secs_f64());
        let server = serve::Serving::start(Arc::clone(&o.registry))
            .map_err(|e| work.fail(e))
            .ok();
        let mut days = Vec::with_capacity(usize::from(spec.days));
        for _ in 0..spec.days {
            let d = day::run_day(&mut o, spec);
            work.attempted += 1;
            if !d.ok {
                work.fail(format!("day {}: journal record failed", d.day));
            }
            if let Some(server) = &server {
                query_window(
                    server,
                    &o.registry,
                    args,
                    window_s,
                    d.day,
                    &mut served,
                    work,
                );
            }
            days.push(d);
        }
        if let Some(server) = server {
            served.drains.push(server.stop());
        }
        cycles.push(days);
        op = Some(o);
    }
    let op = op.expect("at least one cycle");
    let every = op.p.cfg.full_apd_every;
    let days = &cycles[0];
    for (c, other) in cycles.iter().enumerate().skip(1) {
        for (want, got) in days.iter().zip(other) {
            if want.fingerprint() != got.fingerprint() || want.journal_bytes != got.journal_bytes {
                work.fail(format!(
                    "cycle {c} day {} differs from cycle 0:\n  {} {}\n  {} {}",
                    got.day,
                    want.fingerprint(),
                    want.journal_bytes,
                    got.fingerprint(),
                    got.journal_bytes
                ));
            }
        }
    }
    while setup_s.len() < SETUPS {
        let t = Instant::now();
        let extra = day::setup(
            spec,
            args.seed,
            &work_dir.join(format!("setup{}", setup_s.len())),
        )?;
        setup_s.push(t.elapsed().as_secs_f64());
        drop(extra);
    }

    // ---- the traced replica -------------------------------------------
    // Its days are followed by query windows too, so that traced and
    // untraced days run in the same surroundings.
    if args.trace {
        let fresh = day::setup(spec, args.seed, &work_dir.join("replica"))?;
        let registry = Arc::clone(&fresh.registry);
        let server = serve::Serving::start(Arc::clone(&registry))
            .map_err(|e| work.fail(e))
            .ok();
        let mut r = Replica::new(fresh)?;
        let mut spans = Spans::new();
        let mut traced = Vec::with_capacity(days.len());
        for want in days {
            let got = r.run_day(spec, &mut spans);
            work.attempted += 1;
            if !got.ok {
                work.fail(format!("traced day {}: journal record failed", got.day));
            } else if got.fingerprint() != want.fingerprint() {
                work.fail(format!(
                    "traced day differs from the untraced run:\n  untraced {}\n  traced   {}",
                    want.fingerprint(),
                    got.fingerprint()
                ));
            }
            if let Some(server) = &server {
                query_window(
                    server,
                    &registry,
                    args,
                    window_s,
                    got.day,
                    &mut served,
                    work,
                );
            }
            traced.push(got);
        }
        if let Some(server) = server {
            served.drains.push(server.stop());
        }
        day_layers(&mut m, &r, &spans, &traced, &cycles, every);
        let path = out.join(format!("spans-{}-{}.jsonl", spec.name, args.seed));
        let body = format!(
            "{{\"environment\": {}}}\n{}",
            environment(),
            spans.to_json_lines()
        );
        std::fs::write(&path, body).map_err(|e| format!("write {}: {e}", path.display()))?;
    }

    // ---- journal reload, and the query windows' checks -----------------
    let view = op.registry.pin().view;
    let sample: Vec<_> = serve::request_pool(&view, 64, args.seed ^ 1)
        .into_iter()
        .map(|(r, _)| r)
        .collect();
    drop(view);
    day::check_reload(&op, &sample, work);
    for w in served.lo.iter().chain(&served.hi) {
        work.attempted += w.latency_us.len() as u64;
        let failed = w.failed();
        if failed > 0 {
            work.failed += failed as u64;
            work.errors.push(format!("{failed} requests failed"));
        }
        if w.epoch_regressions > 0 {
            work.fail(format!("{} epoch regressions", w.epoch_regressions));
        }
    }
    for d in &served.drains {
        if d.forced_closes > 0 {
            work.fail(format!(
                "drain force-closed {} connections",
                d.forced_closes
            ));
        }
    }
    if args.trace {
        serve_layers(&mut m, &served);
    } else {
        serve_metrics(&mut m, &served);
    }

    if !args.trace {
        put(&mut m, "setup_s", median(&setup_s), "s");
        put(&mut m, "peak_rss_mb", peak_rss_mb(), "MB");
        day_metrics(&mut m, &cycles, every);
        let ok = 1.0 - work.failed as f64 / work.attempted.max(1) as f64;
        put(&mut m, "ok_share", ok, "share");
    }
    Ok(m)
}

/// One query window after `day`, against the view the day published in
/// `registry`; windows alternate between the `lo` and the `hi` rate.
fn query_window(
    server: &serve::Serving,
    registry: &SnapshotRegistry,
    args: &Args,
    window_s: f64,
    day: u16,
    served: &mut serve::ServeOut,
    work: &mut Work,
) {
    let lo = served.lo.len() <= served.hi.len();
    let rate = if lo { RATES.0 } else { RATES.1 };
    let pool = serve::request_pool(&registry.pin().view, args.spec.pool, args.seed);
    let n = ((rate as f64 * window_s).round() as usize).max(1);
    match server.window(&pool, rate, n) {
        Ok(w) if lo => served.lo.push(w),
        Ok(w) => served.hi.push(w),
        Err(e) => work.fail(format!("query window after day {day}: {e}")),
    }
}

/// The thread counts in effect, as one JSON object.
fn environment() -> String {
    format!(
        "{{\"worker_threads\": {}, \"expanse_threads_env\": {:?}, \"available_parallelism\": {}, \"generator_threads\": {}, \"generator_connections\": {}, \"query_phase_cpus\": {}}}",
        expanse_addr::worker_threads(),
        std::env::var("EXPANSE_THREADS").unwrap_or_default(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        serve::GEN_THREADS,
        serve::GEN_CONNECTIONS,
        serve::placement().map_or("null".to_string(), |(s, g)| {
            format!("{{\"server\": {s}, \"generator\": {g}, \"idle_class_keep_awake_on_server\": 1}}")
        }),
    )
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no infinities; a metric that is not finite failed.
        "null".into()
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    eprintln!(
        "perfbench: workload {} seed {} trace {} | {}",
        args.spec.name,
        args.seed,
        u8::from(args.trace),
        environment()
    );
    if let Err(e) = std::fs::create_dir_all(OUT_DIR) {
        eprintln!("perfbench: create {OUT_DIR}: {e}");
        std::process::exit(1);
    }
    let mut work = Work::default();
    let metrics = match run(&args, &mut work) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for e in &work.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    for (name, (v, unit)) in &metrics {
        eprintln!("  {name:32} {v:>16.6} {unit}");
    }
    let correct =
        work.errors.is_empty() && work.failed == 0 && metrics.values().all(|(v, _)| v.is_finite());
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        work.attempted.max(1),
        work.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}
