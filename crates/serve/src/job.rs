//! Job specifications and their execution engines.
//!
//! A [`JobSpec`] names a registered design, a geometry, and the
//! parameters of one of five job kinds (`simulate` / `margins` / `yield` /
//! `cosim` / `lint`). Execution is *sharded*: Monte Carlo kinds split
//! their trial range into contiguous shards
//! (`ShardPlan`); single-shot kinds are one shard. A
//! shard's result is a pure function of `(spec, shard index)` — all
//! randomness flows through `Rng64::fork(seed, trial)` — which is what
//! lets the WAL resume a half-finished job with bit-identical output.
//!
//! Identity is content-addressed: [`JobSpec::cache_key`] digests the
//! *elaborated netlist* of the target design plus the canonical parameter
//! serialisation and seed, so identical requests share a cache entry and
//! any structural change to a design invalidates its cached results.

use hiperrf::config::RfGeometry;
use hiperrf::designs::Design;
use hiperrf::harness::{BatchStats, OP_GAP_PS};
use hiperrf::hashing::{digest_hex, Fnv64};
use hiperrf::lint::lint_design;
use hiperrf::margins::{assemble_yield_curve, jitter_trial, soak_trial, YieldTrials};
use sfq_lint::Severity;
use sfq_sim::time::Duration;

use crate::json::Json;

/// Most registers a job's geometry may have: the largest register file
/// the repository builds (256 × 64). Admission elaborates the design for
/// its netlist digest under the server's state lock, and that cost grows
/// with the geometry — a 1024 × 64 NDRO file is about half a million
/// cells.
pub const MAX_REGISTERS: usize = 256;

/// Most Monte Carlo trials one job may request. The reports use 8; a
/// `u32`'s worth would keep the worker busy for weeks.
pub const MAX_TRIALS: u32 = 4096;

/// Largest delay-variation σ a `simulate` job may request: twice the
/// upper end of the critical-σ bisection (0.5), past which no design
/// survives. A σ far beyond it (1e300) scales delays past the simulator's
/// event window, which the simulator refuses with a panic; admission
/// answers 400 instead.
pub const MAX_SIGMA: f64 = 1.0;

/// Largest jitter magnitude a `margins` job may request, in ps: half a
/// driver operation gap ([`OP_GAP_PS`]), so a trial's data train stays
/// near its own operation. Every skew that large already misses every
/// design's write window, so a larger one measures nothing more; a train
/// skewed before the simulator's present is injected at the present
/// ([`data_train_time`](hiperrf::harness::data_train_time)) and the write
/// fails as an early train.
pub const MAX_JITTER_PS: f64 = OP_GAP_PS / 2.0;

/// The five job kinds the server executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobKind {
    /// One seeded write-all/read-all soak under delay variation.
    Simulate,
    /// Jitter Monte Carlo: per-trial skewed round trips.
    Margins,
    /// Monte Carlo yield curve: per-trial critical-σ bisection.
    Yield,
    /// Gate-level CPU kernels over the design's pulse netlist.
    Cosim,
    /// Static netlist DRC + min/max-path timing.
    Lint,
}

impl JobKind {
    /// All kinds, in request-vocabulary order.
    pub const ALL: [JobKind; 5] = [
        JobKind::Simulate,
        JobKind::Margins,
        JobKind::Yield,
        JobKind::Cosim,
        JobKind::Lint,
    ];

    /// The wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::Simulate => "simulate",
            JobKind::Margins => "margins",
            JobKind::Yield => "yield",
            JobKind::Cosim => "cosim",
            JobKind::Lint => "lint",
        }
    }

    /// Parses a wire name.
    pub fn parse(s: &str) -> Option<JobKind> {
        JobKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// Parses a design slug (or its display label) into a registry entry.
pub fn parse_design(s: &str) -> Option<Design> {
    match s {
        "ndro" | "ndro-baseline" | "NDRO baseline" => Some(Design::NdroBaseline),
        "hiperrf" | "HiPerRF" => Some(Design::HiPerRf),
        "dual" | "dual-banked" => Some(Design::DualBanked),
        "shift" | "shift-register" => Some(Design::ShiftRegister),
        _ => None,
    }
}

/// The wire slug of a design.
pub fn design_slug(design: Design) -> &'static str {
    match design {
        Design::NdroBaseline => "ndro",
        Design::HiPerRf => "hiperrf",
        Design::DualBanked => "dual",
        Design::ShiftRegister => "shift",
    }
}

/// Test-only chaos injection: makes the server's *own* shard execution
/// panic, to exercise the supervisor's retry path. Not part of the job's
/// content identity (it does not change the result a successful run
/// produces).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Chaos {
    /// The shard index that misbehaves.
    pub shard: u32,
    /// The shard panics on attempts `0..fail_attempts`; a high enough
    /// value outlasts every retry and fails the job.
    pub fail_attempts: u32,
}

impl Chaos {
    /// Decodes a `{"shard": n, "fail_attempts": m}` object, from a request
    /// body or a journalled job record. Either field past `u32` is refused.
    pub(crate) fn from_json(v: &Json) -> Result<Chaos, String> {
        let field = |name: &str| {
            let n = v
                .get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("chaos.{name} must be an integer"))?;
            u32::try_from(n).map_err(|_| format!("chaos.{name} out of range"))
        };
        Ok(Chaos {
            shard: field("shard")?,
            fail_attempts: field("fail_attempts")?,
        })
    }
}

/// How a job's trial range splits into contiguous shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ShardPlan {
    /// Total Monte Carlo trials.
    trials: u32,
    /// Trials per shard (the last shard may be short).
    shard_len: u32,
}

impl ShardPlan {
    /// A plan over `trials` trials in shards of `shard_len`.
    ///
    /// # Panics
    ///
    /// Panics if `shard_len` is zero.
    pub(crate) fn new(trials: u32, shard_len: u32) -> Self {
        assert!(shard_len > 0, "shard length must be positive");
        ShardPlan { trials, shard_len }
    }

    /// Number of shards (zero-trial jobs have zero shards).
    pub(crate) fn shard_count(&self) -> u32 {
        self.trials.div_ceil(self.shard_len)
    }

    /// Trial-index range of shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range.
    pub(crate) fn range(&self, shard: u32) -> std::ops::Range<u32> {
        assert!(shard < self.shard_count(), "shard {shard} out of range");
        let start = shard * self.shard_len;
        start..(start + self.shard_len).min(self.trials)
    }
}

/// A fully parsed job request.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// What to run.
    pub kind: JobKind,
    /// Which registered design.
    pub design: Design,
    /// Registers in the geometry.
    pub registers: usize,
    /// Bits per register.
    pub width: usize,
    /// Monte Carlo trials (margins/yield).
    pub trials: u32,
    /// Trials per shard (margins/yield).
    pub shard_len: u32,
    /// Root seed; all per-trial randomness forks from it.
    pub seed: u64,
    /// Peak jitter magnitude (margins), ps.
    pub jitter_ps: f64,
    /// Delay-variation σ (simulate).
    pub sigma: f64,
    /// Yield-curve σ sample points (yield).
    pub sigmas: Vec<f64>,
    /// Kernel name filter (cosim); empty string runs the whole suite.
    pub kernel: String,
    /// Test-only supervisor chaos (see [`Chaos`]).
    pub chaos: Option<Chaos>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            kind: JobKind::Yield,
            design: Design::HiPerRf,
            registers: 4,
            width: 4,
            trials: 8,
            shard_len: 4,
            seed: 0xC0FF_EE00,
            jitter_ps: 12.0,
            sigma: 0.0,
            sigmas: vec![0.0, 0.02, 0.05, 0.10, 0.20, 0.30],
            kernel: String::new(),
            chaos: None,
        }
    }
}

impl JobSpec {
    /// Parses a request body and applies the admission checks (see
    /// [`JobSpec::check_admissible`]). Unknown fields are rejected (a
    /// typoed parameter silently falling back to a default would poison
    /// the content-addressed cache key's meaning).
    pub fn from_json(v: &Json) -> Result<JobSpec, String> {
        let spec = JobSpec::parse(v)?;
        spec.check_admissible()?;
        Ok(spec)
    }

    /// Field-by-field parse, without the admission checks.
    fn parse(v: &Json) -> Result<JobSpec, String> {
        let Json::Obj(pairs) = v else {
            return Err("job spec must be a JSON object".to_string());
        };
        let mut spec = JobSpec::default();
        for (key, value) in pairs {
            match key.as_str() {
                "kind" => {
                    let name = value.as_str().ok_or("kind must be a string")?;
                    spec.kind = JobKind::parse(name).ok_or_else(|| {
                        format!("unknown kind `{name}` (simulate/margins/yield/cosim/lint)")
                    })?;
                }
                "design" => {
                    let name = value.as_str().ok_or("design must be a string")?;
                    spec.design = parse_design(name).ok_or_else(|| {
                        format!("unknown design `{name}` (ndro/hiperrf/dual/shift)")
                    })?;
                }
                "registers" => {
                    spec.registers = value
                        .as_u64()
                        .ok_or("registers must be a non-negative integer")?
                        as usize;
                }
                "width" => {
                    spec.width = value
                        .as_u64()
                        .ok_or("width must be a non-negative integer")?
                        as usize;
                }
                "trials" => {
                    spec.trials = u32::try_from(value.as_u64().ok_or("trials must be an integer")?)
                        .map_err(|_| "trials out of range")?;
                }
                "shard_len" => {
                    let len = value.as_u64().ok_or("shard_len must be an integer")?;
                    spec.shard_len = u32::try_from(len).map_err(|_| "shard_len out of range")?;
                    if spec.shard_len == 0 {
                        return Err("shard_len must be positive".to_string());
                    }
                }
                "seed" => {
                    spec.seed = value
                        .as_u64()
                        .ok_or("seed must be a u64 (number or string)")?;
                }
                "jitter_ps" => {
                    spec.jitter_ps = value.as_f64().ok_or("jitter_ps must be a number")?;
                }
                "sigma" => {
                    spec.sigma = value.as_f64().ok_or("sigma must be a number")?;
                    if spec.sigma < 0.0 {
                        return Err("sigma must be non-negative".to_string());
                    }
                }
                "sigmas" => {
                    let arr = value.as_arr().ok_or("sigmas must be an array")?;
                    spec.sigmas = arr
                        .iter()
                        .map(|s| s.as_f64().ok_or("sigmas entries must be numbers"))
                        .collect::<Result<_, _>>()?;
                }
                "kernel" => {
                    spec.kernel = value.as_str().ok_or("kernel must be a string")?.to_string();
                }
                "chaos" => spec.chaos = Some(Chaos::from_json(value)?),
                other => return Err(format!("unknown job field `{other}`")),
            }
        }
        Ok(spec)
    }

    /// The admission checks, which run before any elaboration: a valid
    /// geometry the design can realise ([`Design::check_geometry`]), of at
    /// most [`MAX_REGISTERS`] registers, at most [`MAX_TRIALS`] trials, a
    /// σ of at most [`MAX_SIGMA`] and a jitter magnitude of at most
    /// [`MAX_JITTER_PS`].
    pub fn check_admissible(&self) -> Result<(), String> {
        let geometry = self.geometry().map_err(|e| e.to_string())?;
        self.design.check_geometry(geometry)?;
        if self.registers > MAX_REGISTERS {
            return Err(format!(
                "registers must be at most {MAX_REGISTERS}, got {}",
                self.registers
            ));
        }
        if self.trials > MAX_TRIALS {
            return Err(format!(
                "trials must be at most {MAX_TRIALS}, got {}",
                self.trials
            ));
        }
        if self.sigma > MAX_SIGMA {
            return Err(format!(
                "sigma must be at most {MAX_SIGMA}, got {}",
                self.sigma
            ));
        }
        if self.jitter_ps.abs() > MAX_JITTER_PS {
            return Err(format!(
                "jitter_ps must be at most {MAX_JITTER_PS} in magnitude, got {}",
                self.jitter_ps
            ));
        }
        Ok(())
    }

    /// The requested geometry.
    pub fn geometry(&self) -> Result<RfGeometry, hiperrf::config::GeometryError> {
        RfGeometry::new(self.registers, self.width)
    }

    /// Canonical serialisation of everything that defines the job's
    /// *content* (chaos excluded: it perturbs execution, never results).
    /// This is the params half of the cache key, and what the WAL stores.
    pub fn canonical(&self) -> Json {
        Json::obj(vec![
            ("kind", Json::str(self.kind.name())),
            ("design", Json::str(design_slug(self.design))),
            ("registers", Json::u64(self.registers as u64)),
            ("width", Json::u64(self.width as u64)),
            ("trials", Json::u64(u64::from(self.trials))),
            ("shard_len", Json::u64(u64::from(self.shard_len))),
            ("seed", Json::str(self.seed.to_string())),
            ("jitter_ps", Json::Num(self.jitter_ps)),
            ("sigma", Json::Num(self.sigma)),
            (
                "sigmas",
                Json::Arr(self.sigmas.iter().map(|&s| Json::Num(s)).collect()),
            ),
            ("kernel", Json::str(self.kernel.clone())),
        ])
    }

    /// Re-parses a WAL-stored canonical spec (plus optional chaos, which
    /// `canonical` never writes). The admission checks are not applied: a
    /// journal written before a bound was tightened must still replay, and
    /// the replay decides what to do with a job that
    /// [`JobSpec::check_admissible`] now refuses.
    pub fn from_canonical(v: &Json) -> Result<JobSpec, String> {
        JobSpec::parse(v)
    }

    /// The content-addressed cache key: FNV-1a 64 over the elaborated
    /// netlist digest of `(design, geometry)` and the canonical params
    /// (which include kind and seed).
    pub fn cache_key(&self, netlist_digest: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_u64(netlist_digest);
        h.write_str(&self.canonical().to_string());
        h.finish()
    }

    /// The shard plan: Monte Carlo kinds shard their trials; single-shot
    /// kinds are one shard.
    pub fn shard_count(&self) -> u32 {
        match self.kind {
            JobKind::Margins | JobKind::Yield => {
                ShardPlan::new(self.trials, self.shard_len).shard_count()
            }
            JobKind::Simulate | JobKind::Cosim | JobKind::Lint => 1,
        }
    }
}

/// Serialises a [`BatchStats`] roll-up for a shard or job record.
fn stats_json(stats: &BatchStats) -> Json {
    Json::obj(vec![
        ("runs", Json::u64(stats.runs)),
        ("events", Json::u64(stats.totals.events_processed)),
        (
            "peak_queue_depth",
            Json::u64(stats.totals.peak_queue_depth as u64),
        ),
        (
            "sim_time_ps",
            Json::Num(stats.totals.sim_time_advanced.as_ps()),
        ),
        ("fanout_rows", Json::u64(stats.totals.fanout_rows_visited)),
    ])
}

/// Reads a stats object back into a [`BatchStats`] (for WAL-replayed
/// shards). Missing fields count as zero — stats are reporting, not
/// content — and so does a simulated time that is negative or not
/// finite; the time is rounded to whole femtoseconds.
fn stats_from_json(v: &Json) -> BatchStats {
    let mut b = BatchStats::new();
    b.runs = v.get("runs").and_then(Json::as_u64).unwrap_or(0);
    b.totals.events_processed = v.get("events").and_then(Json::as_u64).unwrap_or(0);
    b.totals.peak_queue_depth = v
        .get("peak_queue_depth")
        .and_then(Json::as_u64)
        .unwrap_or(0) as usize;
    b.totals.sim_time_advanced = v
        .get("sim_time_ps")
        .and_then(Json::as_f64)
        .filter(|ps| ps.is_finite() && *ps >= 0.0)
        .map_or(Duration::ZERO, Duration::from_ps);
    b.totals.fanout_rows_visited = v.get("fanout_rows").and_then(Json::as_u64).unwrap_or(0);
    b
}

/// Executes one shard. Pure in `(spec, shard)` — `attempt` only feeds the
/// chaos hook, which panics instead of changing results.
///
/// # Panics
///
/// Panics when the spec's [`Chaos`] targets this shard and attempt —
/// that is the supervisor-containment test hook — or on internal engine
/// bugs (which the supervisor also contains).
pub fn run_shard(spec: &JobSpec, shard: u32, attempt: u32) -> Json {
    if let Some(chaos) = spec.chaos {
        assert!(
            !(chaos.shard == shard && attempt < chaos.fail_attempts),
            "chaos: injected panic on shard {shard} attempt {attempt}"
        );
    }
    let geometry = spec.geometry().expect("validated at admission");
    // A yield trial returns its bisection's roll-up, merged in; a jitter
    // or soak trial returns one run's counters, absorbed as one run.
    let mut stats = BatchStats::new();
    match spec.kind {
        JobKind::Yield => {
            // One build per shard, rewound for every probe of every trial.
            let range = ShardPlan::new(spec.trials, spec.shard_len).range(shard);
            let mut trials = YieldTrials::new(spec.design, geometry);
            let criticals = range
                .map(|i| {
                    let (critical, batch) = trials.trial(spec.seed, i);
                    stats.merge(&batch);
                    Json::Num(critical)
                })
                .collect();
            Json::obj(vec![
                ("criticals", Json::Arr(criticals)),
                ("stats", stats_json(&stats)),
            ])
        }
        JobKind::Margins => {
            let range = ShardPlan::new(spec.trials, spec.shard_len).range(shard);
            let passes = range
                .map(|i| {
                    let (ok, run) =
                        jitter_trial(spec.design, geometry, spec.jitter_ps, spec.seed, i);
                    stats.absorb(run);
                    Json::Bool(ok)
                })
                .collect();
            Json::obj(vec![
                ("passes", Json::Arr(passes)),
                ("stats", stats_json(&stats)),
            ])
        }
        JobKind::Simulate => {
            let (ok, run) = soak_trial(spec.design, geometry, spec.sigma, spec.seed);
            stats.absorb(run);
            Json::obj(vec![("ok", Json::Bool(ok)), ("stats", stats_json(&stats))])
        }
        JobKind::Lint => {
            let report = lint_design(spec.design, geometry);
            let worst_slack_ps = report.timing.as_ref().and_then(|t| t.worst_slack_ps);
            Json::obj(vec![
                ("clean", Json::Bool(report.is_clean())),
                ("errors", Json::u64(report.errors() as u64)),
                (
                    "warnings",
                    Json::u64(report.count_severity(Severity::Warning) as u64),
                ),
                (
                    "infos",
                    Json::u64(report.count_severity(Severity::Info) as u64),
                ),
                ("jj_total", Json::u64(report.census.jj_total())),
                (
                    "worst_slack_ps",
                    worst_slack_ps.map_or(Json::Null, Json::Num),
                ),
            ])
        }
        JobKind::Cosim => run_cosim_shard(spec),
    }
}

/// Runs the cosim kernel suite (filtered by `spec.kernel`) on the design's
/// pulse netlist, checking every architectural access against the
/// functional RV32I model exactly like `repro cosim` does.
fn run_cosim_shard(spec: &JobSpec) -> Json {
    use hiperrf::backend::PulseRf;
    use sfq_cpu::{GateLevelCpu, PipelineConfig};
    use sfq_riscv::asm::assemble;
    use sfq_workloads::{cosim_suite, PASS};

    let suite = cosim_suite();
    let kernels: Vec<_> = suite
        .iter()
        .filter(|w| spec.kernel.is_empty() || w.name == spec.kernel)
        .collect();
    assert!(
        !kernels.is_empty(),
        "no cosim kernel matches `{}`",
        spec.kernel
    );
    let rows = kernels
        .iter()
        .map(|w| {
            let prog = assemble(&w.source, 0).expect("suite kernels assemble");
            let mut cpu = GateLevelCpu::with_backend(
                Box::new(PulseRf::new(spec.design)),
                PipelineConfig::sodor(),
            );
            let out = cpu.run(&prog, w.mem_size, w.budget).expect("kernel runs");
            assert_eq!(out.exit_code, PASS, "{} failed self-check", w.name);
            Json::obj(vec![
                ("kernel", Json::str(w.name)),
                ("retired", Json::u64(out.stats.retired)),
                ("cpi", Json::Num(out.stats.cpi())),
                ("clean", Json::Bool(out.rf.is_clean())),
                ("reads", Json::u64(out.rf.reads)),
                ("writes", Json::u64(out.rf.writes)),
            ])
        })
        .collect();
    Json::obj(vec![("kernels", Json::Arr(rows))])
}

/// A finalised job: the assembled result document and its content digest.
#[derive(Debug, Clone, PartialEq)]
pub struct Finished {
    /// The result document served to clients.
    pub result: Json,
    /// Digest over the job's value content (not its bookkeeping), hex in
    /// the result document.
    pub digest: u64,
}

/// Extracts shard `i`'s array field as f64s.
fn shard_f64s(shards: &[Json], field: &str) -> Result<Vec<f64>, String> {
    let mut out = Vec::new();
    for s in shards {
        let arr = s
            .get(field)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("shard record missing `{field}`"))?;
        for v in arr {
            out.push(
                v.as_f64()
                    .ok_or_else(|| format!("non-number in `{field}`"))?,
            );
        }
    }
    Ok(out)
}

/// Assembles a completed job from its in-order shard results. Shard
/// results may come from live execution or WAL replay — both paths feed
/// the same reduction, which is why a resumed job's digest is
/// bit-identical to an uninterrupted run's.
pub fn finalize(spec: &JobSpec, shards: &[Json]) -> Result<Finished, String> {
    let mut stats = BatchStats::new();
    for s in shards {
        if let Some(sj) = s.get("stats") {
            stats.merge(&stats_from_json(sj));
        }
    }
    let (digest, payload) = match spec.kind {
        JobKind::Yield => {
            let criticals = shard_f64s(shards, "criticals")?;
            if criticals.len() != spec.trials as usize {
                return Err(format!(
                    "assembled {} trials, expected {}",
                    criticals.len(),
                    spec.trials
                ));
            }
            let digest = digest_f64s(&criticals);
            let curve = assemble_yield_curve(&spec.sigmas, &criticals);
            (
                digest,
                vec![
                    (
                        "curve",
                        Json::Arr(
                            curve
                                .iter()
                                .map(|&(s, y)| Json::Arr(vec![Json::Num(s), Json::Num(y)]))
                                .collect(),
                        ),
                    ),
                    ("trials", Json::u64(u64::from(spec.trials))),
                ],
            )
        }
        JobKind::Margins => {
            let mut passes = Vec::new();
            for s in shards {
                let arr = s
                    .get("passes")
                    .and_then(Json::as_arr)
                    .ok_or("shard record missing `passes`")?;
                for v in arr {
                    passes.push(v.as_bool().ok_or("non-bool in `passes`")?);
                }
            }
            if passes.len() != spec.trials as usize {
                return Err(format!(
                    "assembled {} trials, expected {}",
                    passes.len(),
                    spec.trials
                ));
            }
            let passed = passes.iter().filter(|&&p| p).count() as u32;
            let digest = digest_bools(&passes);
            (
                digest,
                vec![
                    ("trials", Json::u64(u64::from(spec.trials))),
                    ("passed", Json::u64(u64::from(passed))),
                    (
                        "yield",
                        Json::Num(f64::from(passed) / f64::from(spec.trials.max(1))),
                    ),
                ],
            )
        }
        JobKind::Simulate => {
            let one = shards.first().ok_or("simulate job has one shard")?;
            let ok = one
                .get("ok")
                .and_then(Json::as_bool)
                .ok_or("missing `ok`")?;
            (digest_bools(&[ok]), vec![("ok", Json::Bool(ok))])
        }
        JobKind::Lint | JobKind::Cosim => {
            let one = shards.first().ok_or("single-shard job")?;
            let mut h = Fnv64::new();
            h.write_str(&one.to_string());
            let digest = h.finish();
            let Json::Obj(pairs) = one else {
                return Err("shard record must be an object".to_string());
            };
            (
                digest,
                pairs.iter().map(|(k, v)| (k.as_str(), v.clone())).collect(),
            )
        }
    };
    let mut fields = vec![
        ("kind", Json::str(spec.kind.name())),
        ("design", Json::str(design_slug(spec.design))),
        ("digest", Json::str(digest_hex(digest))),
    ];
    fields.extend(payload);
    fields.push(("work", stats_json(&stats)));
    Ok(Finished {
        result: Json::obj(fields),
        digest,
    })
}

/// Digest of an in-order f64 value sequence (per-trial criticals), by IEEE
/// bit pattern — the job-result digest the kill-and-resume differential
/// compares.
fn digest_f64s(values: &[f64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(values.len() as u64);
    for &v in values {
        h.write_f64(v);
    }
    h.finish()
}

/// Digest of an in-order pass/fail sequence.
fn digest_bools(values: &[bool]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(values.len() as u64);
    for &v in values {
        h.write(&[u8::from(v)]);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_round_trips_and_rejects_unknowns() {
        let spec = JobSpec::from_json(
            &Json::parse(
                r#"{"kind":"yield","design":"hiperrf","trials":6,"shard_len":2,
                    "seed":"18446744073709551615","sigmas":[0.0,0.1]}"#,
            )
            .unwrap(),
        )
        .expect("valid spec");
        assert_eq!(spec.kind, JobKind::Yield);
        assert_eq!(spec.seed, u64::MAX);
        assert_eq!(spec.shard_count(), 3);
        let re = JobSpec::from_canonical(&spec.canonical()).expect("canonical re-parses");
        assert_eq!(re, spec);

        assert!(JobSpec::from_json(&Json::parse(r#"{"kibd":"yield"}"#).unwrap()).is_err());
        assert!(JobSpec::from_json(&Json::parse(r#"{"design":"tpu"}"#).unwrap()).is_err());
        // The production stack runs every job: a request cannot select
        // the engine or scheduler oracle.
        for (body, field) in [
            (r#"{"kind":"yield","engine":"compiled"}"#, "engine"),
            (r#"{"scheduler":"reference-heap"}"#, "scheduler"),
        ] {
            assert_eq!(
                JobSpec::from_json(&Json::parse(body).unwrap()),
                Err(format!("unknown job field `{field}`")),
                "{body}"
            );
        }
        assert!(
            JobSpec::from_json(&Json::parse(r#"{"registers":3,"width":4}"#).unwrap()).is_err(),
            "geometry validation applies at admission"
        );
    }

    /// Number literals for the generator: valid, edge (`-0`, subnormal,
    /// the largest decade), and out of range.
    const NUMBERS: &[&str] = &[
        "0", "-0", "0.2", "12", "-3.5", "1e308", "-1e308", "5e-324", "1E-5", "1.", "007", "1e400",
        "-0.1",
    ];

    /// Per field, the literals the generator draws from; `None` marks the
    /// `sigmas` array, built from [`NUMBERS`].
    const FIELDS: &[(&str, Option<&[&str]>)] = &[
        (
            "kind",
            Some(&[r#""yield""#, r#""margins""#, r#""simulate""#, r#""x""#]),
        ),
        (
            "design",
            Some(&[r#""hiperrf""#, r#""NDRO baseline""#, r#""dual""#, "4"]),
        ),
        (
            "registers",
            Some(&["2", "4", "8", "3", "4.5", "256", "512", "65536"]),
        ),
        ("width", Some(&["4", "16", "64", "65", "66"])),
        (
            "trials",
            Some(&["0", "1", "8", "4096", "4097", "4294967295", "4294967296"]),
        ),
        ("shard_len", Some(&["1", "3", "0"])),
        (
            "seed",
            Some(&[
                "0",
                "9007199254740992",
                r#""18446744073709551615""#,
                r#""0x1f""#,
                "-1",
            ]),
        ),
        ("jitter_ps", Some(NUMBERS)),
        ("sigma", Some(NUMBERS)),
        ("sigmas", None),
        (
            "kernel",
            Some(&[
                r#""""#,
                r#""towers""#,
                r#""\u00e9\n\"q\\""#,
                r#""\u0001""#,
                "7",
            ]),
        ),
        ("chaos", Some(&[r#"{"shard":1,"fail_attempts":2}"#])),
    ];

    fn pick<'a>(rng: &mut sfq_sim::rng::Rng64, options: &[&'a str]) -> &'a str {
        options[rng.next_below(options.len())]
    }

    /// A seeded request body: each field present with probability 2/3,
    /// its value drawn from [`FIELDS`].
    fn random_body(rng: &mut sfq_sim::rng::Rng64) -> String {
        let mut fields = Vec::new();
        for &(key, options) in FIELDS {
            if rng.next_below(3) == 0 {
                continue;
            }
            let value = match options {
                Some(options) => pick(rng, options).to_string(),
                None => {
                    let n = rng.next_below(4);
                    let items: Vec<&str> = (0..n).map(|_| pick(rng, NUMBERS)).collect();
                    format!("[{}]", items.join(","))
                }
            };
            fields.push(format!("\"{key}\":{value}"));
        }
        format!("{{{}}}", fields.join(","))
    }

    #[test]
    fn every_admitted_spec_survives_wal_replay() {
        // The WAL journals `canonical()` as text and replay re-admits it
        // through `from_canonical`; a spec admission accepts but replay
        // refuses stops the server from restarting.
        let mut rng = sfq_sim::rng::Rng64::new(0x3A1);
        let mut admitted = 0;
        for _ in 0..4000 {
            let body = random_body(&mut rng);
            let Ok(spec) = Json::parse(&body)
                .map_err(|e| e.to_string())
                .and_then(|v| JobSpec::from_json(&v))
            else {
                continue;
            };
            admitted += 1;
            assert!(
                spec.registers <= MAX_REGISTERS
                    && spec.width <= RfGeometry::MAX_WIDTH
                    && spec.trials <= MAX_TRIALS
                    && (0.0..=MAX_SIGMA).contains(&spec.sigma)
                    && spec.jitter_ps.abs() <= MAX_JITTER_PS
                    && (spec.design != Design::DualBanked || spec.registers >= 4),
                "{body} passed admission past its bounds"
            );
            let journalled = spec.canonical().to_string();
            let replayed = Json::parse(&journalled)
                .map_err(|e| e.to_string())
                .and_then(|v| JobSpec::from_canonical(&v))
                .unwrap_or_else(|e| panic!("{body} journalled as {journalled}: {e}"));
            let content = JobSpec {
                chaos: None,
                ..spec
            };
            assert_eq!(replayed, content, "{body}");
            assert_eq!(replayed.canonical().to_string(), journalled, "{body}");
            assert_eq!(replayed.check_admissible(), Ok(()), "{body}");
        }
        assert!(
            admitted > 100,
            "the generator must reach admission: {admitted}"
        );
    }

    #[test]
    fn cache_key_separates_params_netlists_and_seeds() {
        let a = JobSpec::default();
        let mut b = a.clone();
        b.seed ^= 1;
        let mut c = a.clone();
        c.kind = JobKind::Margins;
        assert_ne!(a.cache_key(1), a.cache_key(2), "netlist hash matters");
        assert_ne!(a.cache_key(1), b.cache_key(1), "seed matters");
        assert_ne!(a.cache_key(1), c.cache_key(1), "kind matters");
        let mut chaotic = a.clone();
        chaotic.chaos = Some(Chaos {
            shard: 0,
            fail_attempts: 1,
        });
        assert_eq!(
            a.cache_key(1),
            chaotic.cache_key(1),
            "chaos is not content-bearing"
        );
    }

    #[test]
    fn sharded_execution_finalises_to_the_engine_result() {
        let spec = JobSpec {
            trials: 5,
            shard_len: 2,
            sigmas: vec![0.0, 0.05, 0.3],
            ..JobSpec::default()
        };
        let shards: Vec<Json> = (0..spec.shard_count())
            .map(|s| run_shard(&spec, s, 0))
            .collect();
        let fin = finalize(&spec, &shards).expect("finalises");
        let reference = hiperrf::margins::yield_curve_with_threads(
            spec.design,
            spec.geometry().unwrap(),
            &spec.sigmas,
            spec.trials,
            spec.seed,
            1,
        );
        let curve = fin.result.get("curve").and_then(Json::as_arr).unwrap();
        for (point, (rs, ry)) in curve.iter().zip(reference.points) {
            let p = point.as_arr().unwrap();
            assert_eq!(p[0].as_f64(), Some(rs));
            assert_eq!(p[1].as_f64(), Some(ry));
        }
        assert!(
            fin.result
                .get("work")
                .unwrap()
                .get("events")
                .unwrap()
                .as_u64()
                .unwrap()
                > 0
        );
    }

    #[test]
    fn chaos_fields_past_u32_are_refused() {
        for (body, error) in [
            (
                r#"{"kind":"lint","chaos":{"shard":4294967296,"fail_attempts":1}}"#,
                "chaos.shard out of range",
            ),
            (
                r#"{"kind":"lint","chaos":{"shard":0,"fail_attempts":4294967296}}"#,
                "chaos.fail_attempts out of range",
            ),
            (
                r#"{"kind":"lint","chaos":{"fail_attempts":1}}"#,
                "chaos.shard must be an integer",
            ),
        ] {
            assert_eq!(
                JobSpec::from_json(&Json::parse(body).unwrap()),
                Err(error.to_string()),
                "{body}"
            );
        }
        let widest = r#"{"kind":"lint","chaos":{"shard":4294967295,"fail_attempts":4294967295}}"#;
        let spec = JobSpec::from_json(&Json::parse(widest).unwrap()).expect("u32::MAX fits");
        assert_eq!(
            spec.chaos,
            Some(Chaos {
                shard: u32::MAX,
                fail_attempts: u32::MAX,
            })
        );
    }

    #[test]
    fn chaos_panics_only_on_its_shard_and_attempts() {
        let spec = JobSpec {
            kind: JobKind::Lint,
            chaos: Some(Chaos {
                shard: 0,
                fail_attempts: 2,
            }),
            ..JobSpec::default()
        };
        assert!(std::panic::catch_unwind(|| run_shard(&spec, 0, 0)).is_err());
        assert!(std::panic::catch_unwind(|| run_shard(&spec, 0, 1)).is_err());
        assert!(std::panic::catch_unwind(|| run_shard(&spec, 0, 2)).is_ok());
    }

    #[test]
    fn lint_and_simulate_jobs_finalise() {
        for kind in [JobKind::Lint, JobKind::Simulate] {
            let spec = JobSpec {
                kind,
                ..JobSpec::default()
            };
            let shard = run_shard(&spec, 0, 0);
            let fin = finalize(&spec, &[shard]).expect("finalises");
            assert_eq!(
                fin.result.get("kind").and_then(Json::as_str),
                Some(kind.name())
            );
            assert!(fin.result.get("digest").is_some());
        }
    }

    /// Runs a single-shard job and returns its finished result document.
    fn finish_one_shard(spec: &JobSpec) -> Json {
        let shard = run_shard(spec, 0, 0);
        finalize(spec, &[shard]).expect("finalises").result
    }

    /// A finished job's `work` counter, by name.
    fn work(result: &Json, counter: &str) -> Option<u64> {
        result.get("work")?.get(counter)?.as_u64()
    }

    #[test]
    fn lint_job_is_clean_on_registry_designs() {
        for design in hiperrf::designs::registry() {
            let result = finish_one_shard(&JobSpec {
                kind: JobKind::Lint,
                design,
                ..JobSpec::default()
            });
            let field = |name: &str| result.get(name).expect(name);
            assert_eq!(field("clean").as_bool(), Some(true), "{design}");
            assert_eq!(field("errors").as_u64(), Some(0), "{design}");
            assert!(field("jj_total").as_u64() > Some(0), "{design}");
            // Linting simulates nothing.
            assert_eq!(work(&result, "runs"), Some(0), "{design}");
            assert_eq!(work(&result, "events"), Some(0), "{design}");
        }
    }

    #[test]
    fn soak_job_reports_work() {
        let result = finish_one_shard(&JobSpec {
            kind: JobKind::Simulate,
            design: Design::NdroBaseline,
            sigma: 0.0,
            seed: 1,
            ..JobSpec::default()
        });
        assert_eq!(result.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(work(&result, "runs"), Some(1));
        assert!(work(&result, "events") > Some(0));
    }

    #[test]
    fn shard_plan_covers_every_trial_exactly_once() {
        for (trials, len) in [(0u32, 4u32), (1, 4), (7, 3), (8, 4), (9, 4), (16, 16)] {
            let plan = ShardPlan::new(trials, len);
            let mut seen = Vec::new();
            for s in 0..plan.shard_count() {
                seen.extend(plan.range(s));
            }
            assert_eq!(seen, (0..trials).collect::<Vec<_>>(), "{trials}/{len}");
        }
    }

    #[test]
    fn sharded_yield_matches_the_unsharded_engine() {
        let spec = JobSpec {
            trials: 4,
            shard_len: 3, // deliberately uneven shards
            seed: 0xBEEF,
            sigmas: vec![0.0, 0.05, 0.1, 0.3],
            ..JobSpec::default()
        };
        let geometry = spec.geometry().unwrap();
        let shards: Vec<Json> = (0..spec.shard_count())
            .map(|s| run_shard(&spec, s, 0))
            .collect();
        let result = finalize(&spec, &shards).expect("finalises").result;
        let reference = hiperrf::margins::yield_curve_with_threads(
            spec.design,
            geometry,
            &spec.sigmas,
            spec.trials,
            spec.seed,
            2,
        );
        let curve: Vec<(f64, f64)> = result
            .get("curve")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|p| {
                let p = p.as_arr().unwrap();
                (p[0].as_f64().unwrap(), p[1].as_f64().unwrap())
            })
            .collect();
        assert_eq!(curve, reference.points, "sharded curve must be identical");
        // A shard runs its trials on one rewound build; each trial's
        // critical σ and each shard's work roll-up equal the pure
        // per-trial unit's, wherever the shards split.
        let trials: Vec<(f64, BatchStats)> = (0..spec.trials)
            .map(|i| hiperrf::margins::yield_trial(spec.design, geometry, spec.seed, i))
            .collect();
        let mut unsharded = BatchStats::new();
        for (_, batch) in &trials {
            unsharded.merge(batch);
        }
        assert!(unsharded.runs > 0 && unsharded.events() > 0);
        assert_eq!(work(&result, "runs"), Some(unsharded.runs));
        assert_eq!(work(&result, "events"), Some(unsharded.events()));
        let sim_time_ps = unsharded.totals.sim_time_advanced.as_ps();
        assert!(sim_time_ps > 0.0);
        assert_eq!(
            result
                .get("work")
                .and_then(|w| w.get("sim_time_ps"))
                .and_then(Json::as_f64),
            Some(sim_time_ps)
        );
        let plan = ShardPlan::new(spec.trials, spec.shard_len);
        for (s, shard) in (0..).zip(&shards) {
            let mut want = BatchStats::new();
            let mut criticals = Vec::new();
            for i in plan.range(s) {
                let (critical, batch) = &trials[i as usize];
                want.merge(batch);
                criticals.push(Json::Num(*critical));
            }
            assert_eq!(shard.get("stats"), Some(&stats_json(&want)), "shard {s}");
            assert_eq!(
                shard.get("criticals"),
                Some(&Json::Arr(criticals)),
                "shard {s}"
            );
        }
    }

    #[test]
    fn sharded_jitter_matches_the_unsharded_engine() {
        let spec = JobSpec {
            kind: JobKind::Margins,
            trials: 10,
            shard_len: 4, // deliberately uneven shards
            seed: 42,
            jitter_ps: 12.0,
            ..JobSpec::default()
        };
        let shards: Vec<Json> = (0..spec.shard_count())
            .map(|s| run_shard(&spec, s, 0))
            .collect();
        let fin = finalize(&spec, &shards).expect("finalises");
        let reference = hiperrf::margins::monte_carlo_jitter_with_threads(
            spec.geometry().unwrap(),
            spec.jitter_ps,
            spec.trials,
            spec.seed,
            2,
        );
        assert_eq!(
            fin.result.get("passed").and_then(Json::as_u64),
            Some(u64::from(reference.passed))
        );
        assert_eq!(
            fin.result.get("yield").and_then(Json::as_f64),
            Some(reference.yield_fraction())
        );
        assert!(
            reference.passed > 0 && reference.passed < reference.trials,
            "a mixed verdict, so the count is not trivially right: {reference:?}"
        );
    }

    #[test]
    fn digests_are_order_and_value_sensitive() {
        assert_ne!(digest_f64s(&[1.0, 2.0]), digest_f64s(&[2.0, 1.0]));
        assert_ne!(digest_f64s(&[0.0]), digest_f64s(&[-0.0]));
        assert_ne!(digest_bools(&[true, false]), digest_bools(&[false, true]));
        assert_eq!(digest_bools(&[]), digest_bools(&[]));
    }
}
