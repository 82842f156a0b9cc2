//! The operator's production cycle, untraced: set-up, then per virtual
//! day `run_day` → `Journal::record` on a file journal → view publish +
//! registry swap. Also the end-of-phase journal reload check.

use crate::{Spec, Work};
use expanse_addr::fanout::splitmix64;
use expanse_core::PipelineConfig;
use expanse_core::{Journal, JournalPolicy, JournalRecord, PathStore, Pipeline, RetentionConfig};
use expanse_model::{ModelConfig, SourceId};
use expanse_serve::protocol::encode_response;
use expanse_serve::{execute, Pinned, Request, SnapshotRegistry, SnapshotView};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// The synthetic Internet of a workload: mid scale (`paper_scale(0.3)`,
/// the model's default seed), with the adversarial periphery scenario
/// on for `day-churn`. It is the same for every `--seed`, so every run
/// of a workload probes a hitlist of the same size; the seed varies the
/// measurement instead (see [`pipeline_config`]).
pub fn model_config(spec: &Spec) -> ModelConfig {
    let mut cfg = ModelConfig::paper_scale(0.3);
    if spec.churn {
        cfg.scenario = ModelConfig::adversarial(cfg.seed).scenario;
    }
    cfg
}

/// Pipeline configuration: the default, with the scan secret (probe
/// order, validation fields, and so which probes the model drops) and
/// the APD fan-out salt (which addresses each prefix's 16 branches
/// probe) drawn from `seed`; plus a retention window checked every day
/// for `day-churn`.
pub fn pipeline_config(spec: &Spec, seed: u64) -> PipelineConfig {
    let mut cfg = PipelineConfig::default();
    cfg.scan.seed = splitmix64(seed ^ 0x5ca9);
    cfg.apd.salt = splitmix64(seed ^ 0xa11a5);
    if spec.churn {
        cfg.retention = RetentionConfig {
            window: Some(3),
            every: 1,
        };
    }
    cfg
}

/// A set-up operator: pipeline with collected sources, its journal on
/// disk, and the registry holding the first published view.
pub struct Operator {
    pub p: Pipeline,
    pub journal: Journal<PathStore>,
    pub journal_path: PathBuf,
    pub registry: Arc<SnapshotRegistry>,
}

/// Build a fresh operator; this is what `setup_s` times.
pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> Result<Operator, String> {
    let model_cfg = model_config(spec);
    let runup = model_cfg.runup_days;
    let mut p = Pipeline::new(model_cfg, pipeline_config(spec, seed));
    p.collect_sources(runup);
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let journal_path = dir.join("journal.bin");
    let journal = Journal::create(
        PathStore::new(&journal_path),
        JournalPolicy::default(),
        &mut p,
    )
    .map_err(|e| format!("journal create: {e}"))?;
    let registry = Arc::new(SnapshotRegistry::new(SnapshotView::publish(&p)));
    Ok(Operator {
        p,
        journal,
        journal_path,
        registry,
    })
}

/// What one day produced: the deterministic outputs the checks compare,
/// plus wall time and journal bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct DayOut {
    pub day: u16,
    pub digest: u64,
    pub probes: u64,
    pub responders: usize,
    pub aliased: usize,
    pub hitlist: usize,
    pub expired: usize,
    /// Journal bytes this day wrote (delta, or the fresh base when the
    /// policy compacted).
    pub journal_bytes: u64,
    pub compacted: bool,
    /// The journal write succeeded.
    pub ok: bool,
    pub wall_s: f64,
}

impl DayOut {
    /// The fields that must repeat exactly for one seed.
    pub fn fingerprint(&self) -> String {
        format!(
            "{} {:016x} {} {} {} {} {}",
            self.day,
            self.digest,
            self.probes,
            self.responders,
            self.aliased,
            self.hitlist,
            self.expired
        )
    }
}

/// Split a journal record into `(bytes, compacted)`.
pub fn record_bytes(rec: &JournalRecord) -> (u64, bool) {
    match *rec {
        JournalRecord::Appended { bytes } => (bytes, false),
        JournalRecord::Compacted { bytes } => (bytes, true),
    }
}

/// Ingest the day's scenario feed (the `day-churn` sources).
pub fn ingest_feed(p: &mut Pipeline, feed: &[std::net::Ipv6Addr], day: u16) {
    p.hitlist.add_from(SourceId::RipeAtlas, feed, day);
}

/// Run one untraced production day.
pub fn run_day(op: &mut Operator, spec: &Spec) -> DayOut {
    let t0 = Instant::now();
    let day = op.p.day();
    if spec.churn {
        let feed = op.p.model_ref().scenario_feed(day);
        ingest_feed(&mut op.p, &feed, day);
    }
    let snap = op.p.run_day();
    let rec = op.journal.record(&mut op.p);
    let view = SnapshotView::publish(&op.p);
    op.registry.publish(view);
    let wall_s = t0.elapsed().as_secs_f64();
    let ((journal_bytes, compacted), ok) = match &rec {
        Ok(r) => (record_bytes(r), true),
        Err(_) => ((0, false), false),
    };
    DayOut {
        day: snap.day,
        digest: snap.battery_digest,
        probes: snap.probes_sent,
        responders: snap.responsive.len(),
        aliased: snap.aliased_prefixes.len(),
        hitlist: snap.hitlist_total,
        expired: snap.expired_today,
        journal_bytes,
        compacted,
        ok,
        wall_s,
    }
}

/// The final journal must reload through `SnapshotView::load_journal`
/// with no torn tail, the live day count, and byte-identical answers to
/// `sample` compared with the live registry's view.
pub fn check_reload(op: &Operator, sample: &[Request], work: &mut Work) {
    let bytes = match std::fs::read(&op.journal_path) {
        Ok(b) => b,
        Err(e) => return work.fail(format!("journal read: {e}")),
    };
    let (view, replay) =
        match SnapshotView::load_journal(op.p.cfg.apd.clone(), &mut bytes.as_slice()) {
            Ok(v) => v,
            Err(e) => return work.fail(format!("journal reload: {e}")),
        };
    if replay.torn_tail {
        work.fail("journal reload: torn tail".into());
    }
    if view.days_complete() != op.p.day() {
        work.fail(format!(
            "journal reload: days_complete {} != {}",
            view.days_complete(),
            op.p.day()
        ));
    }
    let live = op.registry.pin();
    let loaded = Pinned {
        epoch: live.epoch,
        view: Arc::new(view),
    };
    let differ = sample
        .iter()
        .filter(|req| {
            encode_response(&execute(&live, req)) != encode_response(&execute(&loaded, req))
        })
        .count();
    if differ > 0 {
        work.fail(format!(
            "journal reload: {differ} of {} sample answers differ from the live view",
            sample.len()
        ));
    }
}
