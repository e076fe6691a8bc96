//! Checkpoint/resume for long checks.
//!
//! A checkpointed check runs each work unit in *core-range chunks* of
//! `--checkpoint-every` cores through [`PreparedCheck::run_unit_in`],
//! keeping one state store alive per unit so the interned arena is not
//! rebuilt between chunks. After every chunk a checkpoint file is
//! written atomically (temp file + rename) into the checkpoint
//! directory, recording:
//!
//! * a **fingerprint** of the spec, the parsed property, and every
//!   verdict- or stats-relevant option (`budget_chunk` and `cancel` are
//!   excluded, exactly as in the result-cache fingerprint),
//! * the resume position `(unit, next_core)`,
//! * the accumulated [`Stats`] (including the search profile),
//! * the shared [`BudgetPool`] spend and the wall-clock time consumed,
//! * the unit's intern-arena payload ([`StateStore::save_state`]).
//!
//! # Resume invariant
//!
//! Checkpoints are taken only at **core boundaries**, where the visited
//! set is empty by construction (`clear_visits` runs at every core
//! start). The core scan is a pure function of `(unit, cores)` and the
//! options, interning is deterministic, and the budget pool's
//! exhaustion point is chunk-independent — so a run that is killed and
//! resumed from its last checkpoint produces a verdict and
//! deterministic statistics (configs, cores, assignments, trie sizes)
//! byte-identical to the uninterrupted run. Wall-time fields obviously
//! differ; the budget deadline still tightens correctly because the
//! resumed pool carries the recorded elapsed time and subtracts it
//! from the remaining deadline allowance.
//!
//! A checkpoint whose magic, version, fingerprint or checksum does not
//! match is **ignored** (the check restarts from scratch and overwrites
//! it) — a stale file can never corrupt a verdict. The file is deleted
//! when the check completes, whatever the verdict: an `Unknown` verdict
//! under a larger budget has a different fingerprint anyway.

use crate::budget::BudgetPool;
use crate::ndfs::SearchLimits;
use crate::profile::SearchProfile;
use crate::store::StateStore;
use crate::verifier::{
    on_search_thread, PreparedCheck, Stats, Verdict, Verification, Verifier, VerifyError,
    VerifyOptions,
};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use wave_ltl::Property;
use wave_obs::Observer;
use wave_store::{fnv1a, ByteReader, ByteWriter};

/// Name of the checkpoint file inside the checkpoint directory.
pub const CHECKPOINT_FILE: &str = "wave.ckpt";

const MAGIC: u32 = 0x5743_4B50; // "WCKP"
const VERSION: u32 = 3; // v3: every `SearchProfile::FIELDS` counter in stats

/// Where and how often to checkpoint.
#[derive(Clone, Debug)]
pub struct CheckpointConfig {
    /// Directory holding the checkpoint file (created if missing).
    pub dir: PathBuf,
    /// Checkpoint after every `every_cores` scanned cores (minimum 1).
    pub every_cores: u64,
    /// Test hook: stop the run (as if killed) right after this many
    /// checkpoints have been written this session. `None` in production.
    pub stop_after_checkpoints: Option<u64>,
}

impl CheckpointConfig {
    /// Config checkpointing into `dir` every `every_cores` cores.
    pub fn new(dir: impl Into<PathBuf>, every_cores: u64) -> CheckpointConfig {
        CheckpointConfig { dir: dir.into(), every_cores, stop_after_checkpoints: None }
    }

    fn path(&self) -> PathBuf {
        self.dir.join(CHECKPOINT_FILE)
    }
}

/// How a checkpointed run ended.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)] // consumed once, never stored in bulk
pub enum CheckpointOutcome {
    /// The check ran to completion; the checkpoint file was removed.
    Finished(Verification),
    /// The `stop_after_checkpoints` test hook fired after writing this
    /// many checkpoints — the on-disk state is exactly what a kill at
    /// that instant would have left behind.
    Interrupted { checkpoints_written: u64 },
}

/// The parsed resume state of a checkpoint file.
struct Checkpoint {
    unit: u32,
    next_core: u64,
    stats: Stats,
    pool_spent: u64,
    arena: Vec<u8>,
}

/// Fingerprint of everything that shapes the verdict and deterministic
/// statistics: the spec, the parsed property, and the semantic options
/// plus the state-store backend (tier splits appear in the stats).
/// `budget_chunk` and `cancel` are excluded — they are tuning/control
/// knobs that cannot change what a resumed run computes.
fn fingerprint(verifier: &Verifier, property: &Property) -> u64 {
    let o: &VerifyOptions = verifier.options();
    let mut w = ByteWriter::new();
    w.str(&format!("{:?}", verifier.spec().spec));
    w.str(&format!("{property:?}"));
    w.u8(u8::from(o.heuristic1));
    w.u8(u8::from(o.heuristic2));
    w.str(&format!("{:?}", o.pruning));
    w.str(&format!("{:?}", o.param_mode));
    w.u64(o.max_steps.map_or(u64::MAX, |s| s));
    w.u64(o.time_limit.map_or(u64::MAX, |t| t.as_nanos() as u64));
    w.u8(u8::from(o.use_plans));
    w.str(&format!("{:?}", o.state_store));
    fnv1a(w.as_slice())
}

fn write_stats(w: &mut ByteWriter, stats: &Stats) {
    w.u64(stats.elapsed.as_nanos() as u64);
    w.u64(stats.max_run_len as u64);
    w.u64(stats.max_trie as u64);
    w.u64(stats.max_resident as u64);
    w.u64(stats.max_spilled as u64);
    w.u64(stats.configs);
    w.u64(stats.cores);
    w.u64(stats.assignments);
    stats.profile.counters().for_each(|v| w.u64(v));
}

fn read_stats(r: &mut ByteReader<'_>) -> Option<Stats> {
    let mut stats = Stats {
        elapsed: Duration::from_nanos(r.u64()?),
        max_run_len: r.u64()? as usize,
        max_trie: r.u64()? as usize,
        max_resident: r.u64()? as usize,
        max_spilled: r.u64()? as usize,
        configs: r.u64()?,
        cores: r.u64()?,
        assignments: r.u64()?,
        profile: SearchProfile::default(),
        queries: Vec::new(),
    };
    for slot in stats.profile.counters_mut() {
        *slot = r.u64()?;
    }
    Some(stats)
}

/// Parse and validate a checkpoint file; `None` means "no usable
/// checkpoint" (missing, stale fingerprint, corrupt) — never an error.
fn load_checkpoint(path: &Path, fp: u64) -> Option<Checkpoint> {
    let buf = fs::read(path).ok()?;
    if buf.len() < 8 {
        return None;
    }
    let (body, tail) = buf.split_at(buf.len() - 8);
    let sum = u64::from_le_bytes(tail.try_into().ok()?);
    if fnv1a(body) != sum {
        return None;
    }
    let mut r = ByteReader::new(body);
    if r.u32()? != MAGIC || r.u32()? != VERSION || r.u64()? != fp {
        return None;
    }
    let unit = r.u32()?;
    let next_core = r.u64()?;
    let stats = read_stats(&mut r)?;
    let pool_spent = r.u64()?;
    let arena = r.bytes()?.to_vec();
    r.is_empty().then_some(Checkpoint { unit, next_core, stats, pool_spent, arena })
}

/// Shared mutable state of one checkpointed run.
struct Drive<'a> {
    config: &'a CheckpointConfig,
    fp: u64,
    limits: SearchLimits,
    stats: Stats,
    /// Wall-clock consumed by interrupted predecessors of this run.
    prior_elapsed: Duration,
    started: Instant,
    cores_since_ckpt: u64,
    checkpoints_written: u64,
    interrupted: bool,
}

impl Drive<'_> {
    fn elapsed(&self) -> Duration {
        self.prior_elapsed + self.started.elapsed()
    }

    /// Atomically write the checkpoint resuming at `(unit, next_core)`
    /// with `store`'s arena payload (none at a unit boundary, where the
    /// next unit starts from a fresh store), then fire the test hook if
    /// due.
    fn write(
        &mut self,
        unit: usize,
        next_core: u64,
        store: Option<&StateStore>,
    ) -> Result<(), VerifyError> {
        let mut w = ByteWriter::new();
        w.u32(MAGIC);
        w.u32(VERSION);
        w.u64(self.fp);
        w.u32(unit as u32);
        w.u64(next_core);
        let mut stats = self.stats.clone();
        stats.elapsed = self.elapsed();
        write_stats(&mut w, &stats);
        // between chunks no lease is outstanding, so `spent` is exactly
        // the steps charged so far
        w.u64(self.limits.pool.as_ref().map_or(0, |p| p.spent()));
        let mut arena = ByteWriter::new();
        if let Some(store) = store {
            store.save_state(&mut arena);
        }
        w.bytes(arena.as_slice());
        w.u64(fnv1a(w.as_slice()));
        // (the final checksum hashes everything before itself; write_u64
        // appended it, so hash the slice minus the trailing 8 bytes)
        let buf = w.into_inner();

        let io = |e: std::io::Error| VerifyError::Checkpoint(e.to_string());
        let tmp = self.config.dir.join("wave.ckpt.tmp");
        let mut f = fs::File::create(&tmp).map_err(io)?;
        f.write_all(&buf).map_err(io)?;
        f.sync_all().map_err(io)?;
        drop(f);
        fs::rename(&tmp, self.config.path()).map_err(io)?;
        // fsync the directory too: without it the rename itself may not
        // survive a power loss, losing the checkpoint the caller was
        // just promised (progress only — a lost file restarts cleanly)
        #[cfg(unix)]
        fs::File::open(&self.config.dir).and_then(|d| d.sync_all()).map_err(io)?;

        self.cores_since_ckpt = 0;
        self.checkpoints_written += 1;
        if self.config.stop_after_checkpoints.is_some_and(|n| self.checkpoints_written >= n) {
            self.interrupted = true;
        }
        Ok(())
    }
}

/// Scan one unit in checkpoint-sized chunks over one persistent store
/// (loaded from the checkpoint's `arena` payload when resuming
/// mid-unit), starting at core `first_core`. Returns the unit's search
/// outcome, or `None` when the test hook interrupted the run mid-unit.
fn drive_unit<O: Observer>(
    prepared: &PreparedCheck<'_>,
    unit: usize,
    first_core: u64,
    arena: Option<&[u8]>,
    drive: &mut Drive<'_>,
    obs: &mut O,
) -> Result<Option<crate::ndfs::SearchResult>, VerifyError> {
    let mut store = prepared.new_store()?;
    if let Some(blob) = arena {
        if !store.load_state(&mut ByteReader::new(blob)) {
            // the checksum passed but the arena does not decode: an
            // internal inconsistency, not a stale file — fail loudly
            // rather than silently recompute different statistics
            return Err(VerifyError::Checkpoint("arena payload does not decode".into()));
        }
    }
    let total = prepared.core_count(unit)?;
    let every = drive.config.every_cores.max(1);
    let mut next = first_core;
    while next < total {
        let end = next.saturating_add(every - drive.cores_since_ckpt).min(total);
        let outcome =
            prepared.run_unit_in(unit, Some(next..end), &drive.limits, &mut store, obs)?;
        drive.stats.merge(&outcome.stats);
        match outcome.result {
            crate::ndfs::SearchResult::Clean => {}
            other => return Ok(Some(other)),
        }
        drive.cores_since_ckpt += end - next;
        next = end;
        if next < total && drive.cores_since_ckpt >= every {
            drive.write(unit, next, Some(&store))?;
            if drive.interrupted {
                return Ok(None);
            }
        }
    }
    Ok(Some(crate::ndfs::SearchResult::Clean))
}

/// Run `property` against `verifier` with checkpoint/resume under
/// `config`: the unobserved wrapper of
/// [`PreparedCheck::check_checkpointed`].
pub fn check_checkpointed(
    verifier: &Verifier,
    property: &Property,
    config: &CheckpointConfig,
) -> Result<CheckpointOutcome, VerifyError> {
    on_search_thread(|| verifier.prepare(property)?.check_checkpointed(property, config, &mut ()))
}

impl PreparedCheck<'_> {
    /// The checkpointed driver: [`PreparedCheck::check`] in core-range
    /// chunks under `config`, resuming from an existing checkpoint for
    /// this check's `property` (the one it was prepared from) if there
    /// is one, with `obs` watching. A fresh run emits the same events
    /// and span frames as `check`. See the module docs for the resume
    /// invariant.
    pub fn check_checkpointed<O: Observer + Send>(
        &self,
        property: &Property,
        config: &CheckpointConfig,
        obs: &mut O,
    ) -> Result<CheckpointOutcome, VerifyError> {
        on_search_thread(|| checkpointed(self, property, config, obs))
    }
}

fn checkpointed<O: Observer>(
    prepared: &PreparedCheck<'_>,
    property: &Property,
    config: &CheckpointConfig,
    obs: &mut O,
) -> Result<CheckpointOutcome, VerifyError> {
    let fp = fingerprint(prepared.verifier, property);
    fs::create_dir_all(&config.dir).map_err(|e| VerifyError::Checkpoint(e.to_string()))?;
    let ckpt = load_checkpoint(&config.path(), fp);

    let started = prepared.started;
    let options = prepared.verifier.options();
    let (first_unit, first_core, prior_stats, pool_spent, arena, prior_elapsed) = match &ckpt {
        Some(c) => (
            c.unit as usize,
            c.next_core,
            c.stats.clone(),
            c.pool_spent,
            (!c.arena.is_empty()).then_some(c.arena.as_slice()),
            c.stats.elapsed,
        ),
        None => (0, 0, Stats::default(), 0, None, Duration::ZERO),
    };

    let mut drive = Drive {
        config,
        fp,
        limits: SearchLimits {
            pool: BudgetPool::resumed(
                options.max_steps,
                options.time_limit,
                options.budget_chunk,
                started,
                prior_elapsed,
                pool_spent,
            ),
            cancel: options.cancel.clone(),
        },
        stats: prior_stats,
        prior_elapsed,
        started,
        cores_since_ckpt: 0,
        checkpoints_written: 0,
        interrupted: false,
    };

    let interrupted = |drive: &Drive<'_>| {
        Ok(CheckpointOutcome::Interrupted { checkpoints_written: drive.checkpoints_written })
    };
    let mut verdict = Verdict::Holds;
    for unit in first_unit..prepared.num_units() {
        let start_core = if unit == first_unit { first_core } else { 0 };
        let arena = (unit == first_unit).then_some(arena).flatten();
        let result = obs.framed("unit", unit as u64, |obs| {
            drive_unit(prepared, unit, start_core, arena, &mut drive, obs)
        })?;
        match result.map(crate::ndfs::SearchResult::verdict) {
            None => return interrupted(&drive),
            Some(None) => {
                // unit boundary: checkpoint if a full interval of cores
                // has been scanned since the last one
                if unit + 1 < prepared.num_units()
                    && drive.cores_since_ckpt >= config.every_cores.max(1)
                {
                    // arena payloads are per-unit; the next unit starts
                    // fresh, so no store state is written (next_core 0)
                    drive.write(unit + 1, 0, None)?;
                    if drive.interrupted {
                        return interrupted(&drive);
                    }
                }
            }
            Some(Some(decided)) => {
                verdict = decided;
                break;
            }
        }
    }

    let _ = fs::remove_file(config.path());
    drive.stats.elapsed = drive.elapsed();
    Ok(CheckpointOutcome::Finished(prepared.settle(verdict, drive.stats)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use wave_spec::parse_spec;

    /// A unique scratch dir under the system temp dir, removed on drop.
    struct TempDir(PathBuf);

    impl TempDir {
        fn new() -> TempDir {
            static SEQ: AtomicU64 = AtomicU64::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir =
                std::env::temp_dir().join(format!("wave-ckpt-test-{}-{n}", std::process::id()));
            fs::create_dir_all(&dir).unwrap();
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    /// A store-and-recall spec. With Heuristic 1 disabled the tag core
    /// universe is not pruned, and the property's two constants add two
    /// more `C_∃` assignments — 3 units over 16 cores in total, so both
    /// mid-unit and unit-boundary checkpoints get exercised.
    fn multiunit() -> Verifier {
        let mut v = Verifier::new(
            parse_spec(
                r#"
            spec tagged {
              database { tag(x); }
              state { seen(x); }
              inputs { pick(x); button(x); }
              home A;
              page A {
                inputs { pick, button }
                options button(x) <- x = "go";
                options pick(x) <- tag(x);
                insert seen(x) <- pick(x) & button("go");
                target B <- (exists x: pick(x)) & button("go");
              }
              page B { target A <- true; }
            }
        "#,
            )
            .unwrap(),
        )
        .unwrap();
        v.options_mut().heuristic1 = false;
        v
    }

    /// Holds: `seen` is only ever filled from `tag`, so `tag` is
    /// nonempty whenever `seen` is (the constant disjuncts just widen
    /// the assignment enumeration).
    const PROP: &str = r#"forall x: G (seen(x) -> (exists y: tag(y)) | x = "go" | x = "other")"#;

    fn parsed(text: &str) -> Property {
        wave_ltl::parse_property(text).unwrap()
    }

    fn deterministic(stats: &Stats) -> (u64, u64, u64, usize, usize) {
        (stats.configs, stats.cores, stats.assignments, stats.max_trie, stats.max_run_len)
    }

    #[test]
    fn fresh_checkpointed_run_matches_plain_check() {
        let verifier = multiunit();
        let baseline = verifier.check_str(PROP).unwrap();
        assert!(baseline.stats.cores > 4, "workload must be multi-core: {:?}", baseline.stats);
        assert!(baseline.stats.assignments > 1, "workload must be multi-unit");
        let tmp = TempDir::new();
        let cfg = CheckpointConfig::new(&tmp.0, 4);
        let CheckpointOutcome::Finished(v) =
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap()
        else {
            panic!("no hook set, must finish")
        };
        assert!(v.verdict.holds(), "{:?}", v.verdict);
        assert_eq!(deterministic(&v.stats), deterministic(&baseline.stats));
        assert!(!cfg.path().exists(), "checkpoint removed on completion");
    }

    /// Collects the event stream with its timings zeroed, so that two
    /// runs compare.
    #[derive(Default)]
    struct Events(Vec<wave_obs::TraceEvent>);

    impl Observer for Events {
        const EVENTS: bool = true;

        fn event(&mut self, event: wave_obs::TraceEvent) {
            self.0.push(match event {
                wave_obs::TraceEvent::Expand { depth, succs, .. } => {
                    wave_obs::TraceEvent::Expand { depth, succs, dur_ns: 0 }
                }
                other => other,
            });
        }
    }

    #[test]
    fn fresh_checkpointed_run_is_observed_like_plain_check() {
        let verifier = multiunit();
        let property = parsed(PROP);
        let observe = |checkpointed: bool| {
            let prepared = verifier.prepare(&property).unwrap();
            let mut obs = (Events::default(), wave_obs::SpanProfiler::new());
            if checkpointed {
                let tmp = TempDir::new();
                let cfg = CheckpointConfig::new(&tmp.0, 4);
                let outcome = prepared.check_checkpointed(&property, &cfg, &mut obs).unwrap();
                assert!(matches!(outcome, CheckpointOutcome::Finished(_)));
            } else {
                prepared.check(&mut obs).unwrap();
            }
            let stacks: Vec<_> = obs.1.rows().into_iter().map(|r| (r.stack, r.calls)).collect();
            (obs.0 .0, stacks)
        };
        let (plain_events, plain_stacks) = observe(false);
        let (events, stacks) = observe(true);
        assert!(plain_events
            .iter()
            .any(|e| matches!(e, wave_obs::TraceEvent::Core { unit: 2, .. })));
        assert_eq!(events, plain_events, "the checkpointed driver emits the plain event stream");
        assert!(plain_stacks.iter().any(|(stack, _)| stack.starts_with("unit:2;core:")));
        assert_eq!(stacks, plain_stacks, "the checkpointed driver builds the plain span tree");
    }

    #[test]
    fn kill_and_resume_reproduces_the_uninterrupted_run() {
        let verifier = multiunit();
        let baseline = verifier.check_str(PROP).unwrap();
        let tmp = TempDir::new();
        let mut cfg = CheckpointConfig::new(&tmp.0, 4);
        cfg.stop_after_checkpoints = Some(1);
        let CheckpointOutcome::Interrupted { checkpoints_written } =
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap()
        else {
            panic!("hook must interrupt a multi-core check")
        };
        assert_eq!(checkpoints_written, 1);
        assert!(cfg.path().exists(), "interrupt leaves the checkpoint behind");

        cfg.stop_after_checkpoints = None;
        let CheckpointOutcome::Finished(v) =
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap()
        else {
            panic!("resume must finish")
        };
        assert!(v.verdict.holds(), "{:?}", v.verdict);
        assert_eq!(
            deterministic(&v.stats),
            deterministic(&baseline.stats),
            "resumed run must reproduce the uninterrupted statistics"
        );
        assert!(!cfg.path().exists());
    }

    #[test]
    fn repeated_interrupts_still_converge() {
        let verifier = multiunit();
        let baseline = verifier.check_str(PROP).unwrap();
        let tmp = TempDir::new();
        let mut cfg = CheckpointConfig::new(&tmp.0, 2);
        cfg.stop_after_checkpoints = Some(1);
        // every session advances at least one core (or retires a unit),
        // so the chain is bounded by the baseline's work
        let limit = baseline.stats.cores + baseline.stats.assignments + 5;
        let mut finished = None;
        let mut sessions = 0;
        for _ in 0..limit {
            sessions += 1;
            match check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap() {
                CheckpointOutcome::Interrupted { .. } => continue,
                CheckpointOutcome::Finished(v) => {
                    finished = Some(v);
                    break;
                }
            }
        }
        let v = finished.expect("the chain of one-checkpoint sessions must terminate");
        assert!(sessions > 2, "the workload must have forced several interrupts");
        assert!(v.verdict.holds());
        assert_eq!(deterministic(&v.stats), deterministic(&baseline.stats));
    }

    #[test]
    fn stale_fingerprint_is_ignored() {
        let verifier = multiunit();
        let tmp = TempDir::new();
        let mut cfg = CheckpointConfig::new(&tmp.0, 1);
        cfg.stop_after_checkpoints = Some(1);
        assert!(matches!(
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap(),
            CheckpointOutcome::Interrupted { .. }
        ));
        // different property → different fingerprint → the stale file
        // must not be adopted, and the run completes from scratch
        let other = r#"forall x: G (seen(x) -> (exists y: tag(y)) | x = "go")"#;
        cfg.stop_after_checkpoints = None;
        let baseline = verifier.check_str(other).unwrap();
        let CheckpointOutcome::Finished(v) =
            check_checkpointed(&verifier, &parsed(other), &cfg).unwrap()
        else {
            panic!("must finish")
        };
        assert_eq!(v.verdict.holds(), baseline.verdict.holds());
        assert_eq!(deterministic(&v.stats), deterministic(&baseline.stats));
    }

    #[test]
    fn corrupt_checkpoint_is_ignored() {
        let verifier = multiunit();
        let baseline = verifier.check_str(PROP).unwrap();
        let tmp = TempDir::new();
        let cfg = CheckpointConfig::new(&tmp.0, 4);
        fs::write(cfg.path(), b"not a checkpoint").unwrap();
        let CheckpointOutcome::Finished(v) =
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap()
        else {
            panic!("must finish")
        };
        assert!(v.verdict.holds());
        assert_eq!(deterministic(&v.stats), deterministic(&baseline.stats));
    }

    #[test]
    fn resume_works_under_the_tiered_backend() {
        let mut verifier = multiunit();
        verifier.options_mut().state_store = crate::StateStoreKind::Tiered(crate::TierParams {
            mem_bytes: 1, // pathologically small: every core spills
            spill_dir: None,
        });
        let baseline = verifier.check_str(PROP).unwrap();
        let tmp = TempDir::new();
        let mut cfg = CheckpointConfig::new(&tmp.0, 4);
        cfg.stop_after_checkpoints = Some(2);
        assert!(matches!(
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap(),
            CheckpointOutcome::Interrupted { .. }
        ));
        cfg.stop_after_checkpoints = None;
        let CheckpointOutcome::Finished(v) =
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap()
        else {
            panic!("resume must finish")
        };
        assert!(v.verdict.holds(), "{:?}", v.verdict);
        assert_eq!(deterministic(&v.stats), deterministic(&baseline.stats));
        assert!(v.stats.profile.spill_pairs > 0, "the tiny budget must spill");
    }

    #[test]
    fn unusable_spill_dir_is_a_store_error() {
        let tmp = TempDir::new();
        let file = tmp.0.join("not-a-dir");
        fs::write(&file, b"a regular file").unwrap();
        let mut verifier = multiunit();
        verifier.options_mut().state_store = crate::StateStoreKind::Tiered(crate::TierParams {
            mem_bytes: 0,
            spill_dir: Some(file),
        });
        let cfg = CheckpointConfig::new(tmp.0.join("ckpt"), 4);
        match check_checkpointed(&verifier, &parsed(PROP), &cfg) {
            Err(VerifyError::Store(msg)) => {
                assert!(msg.starts_with("tiered store: cannot create spill dir: "), "{msg}")
            }
            Ok(_) => panic!("a store that cannot spill must not run"),
            Err(e) => panic!("expected a store error, got {e:?}"),
        }
    }

    #[test]
    fn budget_spend_carries_across_resume() {
        let mut verifier = multiunit();
        verifier.options_mut().max_steps = Some(10_000_000);
        let tmp = TempDir::new();
        let mut cfg = CheckpointConfig::new(&tmp.0, 4);
        cfg.stop_after_checkpoints = Some(1);
        assert!(matches!(
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap(),
            CheckpointOutcome::Interrupted { .. }
        ));
        let ckpt = load_checkpoint(&cfg.path(), fingerprint(&verifier, &parsed(PROP))).unwrap();
        assert!(ckpt.pool_spent > 0, "interrupted run must have charged steps");
        cfg.stop_after_checkpoints = None;
        let CheckpointOutcome::Finished(v) =
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap()
        else {
            panic!("resume must finish")
        };
        // resumed spend + later spend equals the sequential charge
        let baseline = verifier.check_str(PROP).unwrap();
        let spent = |s: &Stats| s.profile.steps_leased - s.profile.steps_refunded;
        assert_eq!(spent(&v.stats), spent(&baseline.stats));
        assert!(v.verdict.holds() && baseline.verdict.holds());
    }

    #[test]
    fn exhausted_budget_still_finishes_and_clears_the_checkpoint() {
        let mut verifier = multiunit();
        verifier.options_mut().max_steps = Some(5);
        let tmp = TempDir::new();
        let cfg = CheckpointConfig::new(&tmp.0, 4);
        let CheckpointOutcome::Finished(v) =
            check_checkpointed(&verifier, &parsed(PROP), &cfg).unwrap()
        else {
            panic!("exhaustion is completion, not interruption")
        };
        assert!(matches!(v.verdict, Verdict::Unknown(_)), "{:?}", v.verdict);
        assert!(!cfg.path().exists());
    }
}
