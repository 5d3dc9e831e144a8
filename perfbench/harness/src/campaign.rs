//! `campaign`: the full-grid figure campaign, run in-process through
//! `opm_bench::manifest::run_figures(None)` on the global engine at its
//! default thread count, with the profile cache cleared before every
//! op so each op rebuilds every profile.
//!
//! The campaign's inputs are fixed by the paper grids and the 968-matrix
//! corpus; the seed does not change them.

use crate::calib;
use crate::stats::{self, median, Fnv, Metrics, OpTime, Outcome};
use crate::{all_configs, Args, Report, Window};
use opm_bench::manifest::{run_figures, FigureReport, FigureStatus, ALL_FIGURES};
use opm_core::perf::{PerfModel, ProfilePlan};
use opm_core::platform::{Machine, PlatformSpec};
use opm_core::profile::{AccessProfile, ProfileKey};
use opm_core::report::Series;
use opm_kernels::engine::Engine;
use opm_kernels::registry::KernelId;
use opm_kernels::sweeps::{
    paper_dense_sizes, paper_dense_tiles, paper_fft_sizes, paper_stencil_grids,
    paper_stream_footprints,
};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Figure family of a registry name, for `manifest.figure_ms.<family>`.
fn family(name: &str) -> &'static str {
    const DENSE: &[&str] = &["fig01", "fig07", "fig08", "fig15", "fig16"];
    const SPARSE: &[&str] = &[
        "fig09", "fig10", "fig11", "fig17", "fig18", "fig19", "fig20",
    ];
    const CURVE: &[&str] = &["fig12", "fig13", "fig14", "fig23", "fig24", "fig25"];
    let stem = &name[..name.len().min(5)];
    if DENSE.contains(&stem) {
        "dense"
    } else if SPARSE.contains(&stem) {
        "sparse"
    } else if CURVE.contains(&stem) {
        "curve"
    } else {
        "model"
    }
}

const FAMILIES: [&str; 4] = ["dense", "sparse", "curve", "model"];

/// What one campaign op measured.
struct OpRecord {
    /// Wall time of the pass, in milliseconds, and its full timing.
    ms: f64,
    time: OpTime,
    points: u64,
    family_ms: [f64; 4],
    figure_ms: f64,
    stage_ms: f64,
    stage_points: u64,
    hits: u64,
    misses: u64,
    csv_bytes: u64,
    csv_files: u64,
}

impl OpRecord {
    /// The counts that must repeat exactly from op to op.
    fn exact(&self) -> [u64; 5] {
        [
            self.misses,
            self.hits,
            self.stage_points,
            self.csv_bytes,
            self.points,
        ]
    }
}

/// CSV name -> (bytes, FNV-1a) of one results directory.
type Digests = BTreeMap<String, (u64, u64)>;

fn digest_dir(dir: &Path) -> Result<Digests, String> {
    let mut out = Digests::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("csv") {
            continue;
        }
        let bytes = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let name = path
            .file_name()
            .unwrap_or_default()
            .to_string_lossy()
            .into_owned();
        out.insert(name, (bytes.len() as u64, stats::fnv(&bytes)));
    }
    Ok(out)
}

fn read_pinned(path: &Path) -> Result<Digests, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut out = Digests::new();
    for line in text
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
    {
        let f: Vec<&str> = line.split_whitespace().collect();
        let parsed = match f.as_slice() {
            [name, bytes, hash] => bytes
                .parse()
                .ok()
                .zip(u64::from_str_radix(hash, 16).ok())
                .map(|v| (name.to_string(), v)),
            _ => None,
        };
        let (name, v) = parsed.ok_or_else(|| format!("{}: bad line {line:?}", path.display()))?;
        out.insert(name, v);
    }
    Ok(out)
}

fn write_pinned(path: &Path, d: &Digests) -> Result<(), String> {
    let mut s = String::from(
        "# Full-grid campaign CSVs: name, bytes, FNV-1a 64 (hex).\n\
         # Regenerate with `python3 perfbench/run.py --record`.\n",
    );
    for (name, (bytes, hash)) in d {
        s.push_str(&format!("{name} {bytes} {hash:016x}\n"));
    }
    std::fs::write(path, s).map_err(|e| format!("{}: {e}", path.display()))
}

fn compare(got: &Digests, want: &Digests) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} CSVs written, {} pinned", got.len(), want.len()));
    }
    for (name, v) in want {
        match got.get(name) {
            Some(g) if g == v => {}
            Some(_) => return Err(format!("{name}: bytes differ from the pinned digest")),
            None => return Err(format!("{name}: not written")),
        }
    }
    Ok(())
}

/// One campaign pass on a cleared cache, with its output checks.
fn op(engine: &Engine, results: &Path, pinned: Option<&Digests>) -> (OpRecord, Result<(), String>) {
    engine.clear_cache();
    let stage_mark = engine.stage_count();
    let cache0 = engine.cache_stats();
    let (reports, t) = stats::time_op(|| run_figures(None));
    let cache = engine.cache_stats().since(cache0);
    let stages = engine.stages_since(stage_mark);
    let mut family_ms = [0.0; 4];
    for r in &reports {
        let i = FAMILIES
            .iter()
            .position(|f| *f == family(r.name))
            .unwrap_or(3);
        family_ms[i] += r.wall_ns as f64 / 1e6;
    }
    let mut check = check_reports(&reports);
    let digests = digest_dir(results);
    let (csv_bytes, csv_files) = match &digests {
        Ok(dg) => (dg.values().map(|v| v.0).sum(), dg.len() as u64),
        Err(_) => (0, 0),
    };
    if check.is_ok() {
        check = digests.and_then(|got| pinned.map_or(Ok(()), |want| compare(&got, want)));
    }
    let rec = OpRecord {
        ms: t.wall.as_secs_f64() * 1e3,
        time: t,
        points: reports.iter().map(|r| r.points as u64).sum(),
        figure_ms: family_ms.iter().sum(),
        family_ms,
        stage_ms: stages.iter().map(|s| s.wall_ns as f64 / 1e6).sum(),
        stage_points: stages.iter().map(|s| s.points as u64).sum(),
        hits: cache.hits,
        misses: cache.misses,
        csv_bytes,
        csv_files,
    };
    (rec, check)
}

fn check_reports(reports: &[FigureReport]) -> Result<(), String> {
    for r in reports {
        if r.status != FigureStatus::Completed || r.failures != 0 {
            return Err(format!(
                "{}: status {}, {} engine failure(s)",
                r.name,
                r.status.label(),
                r.failures
            ));
        }
    }
    Ok(())
}

/// Digest of the registered pipelines: the campaign's fixed inputs.
fn figures_digest() -> u64 {
    let mut d = Fnv::default();
    for f in ALL_FIGURES {
        d.bytes(f.name.as_bytes());
    }
    d.0
}

/// A profile builder call with its arguments bound.
type Builder = Box<dyn Fn() -> AccessProfile>;

/// One builder per distinct profile key of the campaign, rebuilt from
/// the public paper grids.
fn campaign_profiles() -> Vec<Builder> {
    let mut seen = HashSet::new();
    let mut out: Vec<Builder> = Vec::new();
    let mut add = |key: ProfileKey, f: Builder| {
        if seen.insert(key) {
            out.push(f);
        }
    };
    let specs = opm_bench::harness_corpus();
    for machine in [Machine::Broadwell, Machine::Knl] {
        let cores = PlatformSpec::for_machine(machine).cores;
        for kernel in [KernelId::Gemm, KernelId::Cholesky] {
            let threads = kernel.threads(machine);
            for n in paper_dense_sizes(machine) {
                for tile in paper_dense_tiles() {
                    if kernel == KernelId::Gemm {
                        let key = ProfileKey::Gemm {
                            n,
                            tile,
                            threads,
                            cores,
                        };
                        add(
                            key,
                            Box::new(move || opm_dense::gemm_profile(n, tile, threads, cores)),
                        );
                    } else {
                        let key = ProfileKey::Cholesky {
                            n,
                            tile,
                            threads,
                            cores,
                        };
                        add(
                            key,
                            Box::new(move || opm_dense::cholesky_profile(n, tile, threads, cores)),
                        );
                    }
                }
            }
        }
        for spec in &specs {
            let e = spec.estimate();
            let t = KernelId::Spmv.threads(machine);
            add(
                ProfileKey::spmv(e.rows, e.nnz, e.avg_col_span, t),
                Box::new(move || opm_sparse::spmv_profile(e.rows, e.nnz, e.avg_col_span, t)),
            );
            let t = KernelId::Sptrans.threads(machine);
            add(
                ProfileKey::Sptrans {
                    rows: e.rows,
                    nnz: e.nnz,
                    threads: t,
                },
                Box::new(move || opm_sparse::sptrans_profile(e.rows, e.nnz, t)),
            );
            let t = KernelId::Sptrsv.threads(machine);
            add(
                ProfileKey::sptrsv(e.rows, e.nnz, e.avg_col_span, e.levels, t),
                Box::new(move || {
                    opm_sparse::sptrsv_profile(e.rows, e.nnz, e.avg_col_span, e.levels, t)
                }),
            );
        }
        let t = KernelId::Stream.threads(machine);
        for fp in paper_stream_footprints(machine, 64) {
            let n = (fp / 24.0).max(64.0) as usize;
            add(
                ProfileKey::Stream {
                    n,
                    unroll: 4,
                    threads: t,
                },
                Box::new(move || opm_stencil::stream_profile(n, 4, t)),
            );
        }
        let t = KernelId::Stencil.threads(machine);
        for (nx, ny, nz) in paper_stencil_grids(machine) {
            add(
                ProfileKey::Stencil {
                    grid: (nx, ny, nz),
                    block: (64, 64, 96),
                    threads: t,
                    cores,
                },
                Box::new(move || opm_stencil::stencil_profile(nx, ny, nz, (64, 64, 96), t, cores)),
            );
        }
        let t = KernelId::Fft.threads(machine);
        for n in paper_fft_sizes(machine) {
            add(
                ProfileKey::Fft3d {
                    n,
                    threads: t,
                    cores,
                },
                Box::new(move || opm_fft::fft3d_profile(n, t, cores)),
            );
        }
    }
    out
}

/// Parse a numeric CSV back into a `Series` for the write replay.
fn read_series(path: &Path) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines
        .next()
        .ok_or_else(|| format!("{}: empty", path.display()))?;
    let mut s = Series::new(header.split(',').collect());
    for line in lines {
        let row: Result<Vec<f64>, _> = line.split(',').map(str::parse).collect();
        s.rows
            .push(row.map_err(|_| format!("{}: non-numeric row {line:?}", path.display()))?);
    }
    Ok(s)
}

/// Layer replays run after each traced op, outside its timed span.
struct Replays {
    builders: Vec<Builder>,
    models: Vec<PerfModel>,
    series: Vec<(String, Series)>,
    replay_dir: std::path::PathBuf,
}

impl Replays {
    fn new(results: &Path, work: &Path) -> Result<Replays, String> {
        let mut series = Vec::new();
        for name in digest_dir(results)?.keys() {
            let stem = name.trim_end_matches(".csv").to_string();
            series.push((stem, read_series(&results.join(name))?));
        }
        Ok(Replays {
            builders: campaign_profiles(),
            models: all_configs()
                .into_iter()
                .map(PerfModel::for_config)
                .collect(),
            series,
            replay_dir: work.join("replay"),
        })
    }

    /// Returns (builds, evals) made.
    fn run(&self) -> Result<(u64, u64), String> {
        let (profiles, _) = stats::timed("profile.build", || {
            self.builders
                .iter()
                .map(|f| black_box(f()))
                .collect::<Vec<_>>()
        });
        let (plans, _) = stats::timed("perf.plan_fold", || {
            profiles
                .iter()
                .map(|p| ProfilePlan::new(black_box(p)))
                .collect::<Result<Vec<_>, _>>()
        });
        let plans = plans?;
        let evals = stats::timed("perf.eval", || {
            let mut n = 0u64;
            for m in &self.models {
                let plan = m.plan();
                for pp in &plans {
                    black_box(plan.evaluate_planned(black_box(pp)));
                    n += 1;
                }
            }
            n
        })
        .0;
        stats::timed("report.write", || -> Result<(), String> {
            for (stem, s) in &self.series {
                s.write_csv(&self.replay_dir, stem)
                    .map_err(|e| format!("replaying {stem}.csv: {e}"))?;
            }
            Ok(())
        })
        .0?;
        Ok((profiles.len() as u64, evals))
    }
}

pub fn run(a: &Args, w: &Window) -> Result<Report, String> {
    let results = a.work.join("results");
    // Before the global engine reads the environment.
    std::env::set_var("OPM_RESULTS", &results);
    let engine = Engine::global();
    let pinned_path = a.digests.join("campaign.txt");
    let mut outcome = Outcome::default();

    // Set-up: engine start and a warm pass on a cleared cache.
    let (first, check) = op(engine, &results, None);
    if let Err(e) = check {
        outcome.fail(format!("warm-up pass: {e}"));
    }
    let produced = digest_dir(&results)?;
    let pinned = if a.record {
        write_pinned(&pinned_path, &produced)?;
        produced.clone()
    } else {
        read_pinned(&pinned_path)?
    };
    if let Err(e) = compare(&produced, &pinned) {
        outcome.fail(format!("warm-up pass: {e}"));
    }

    let exact_check = |rec: &OpRecord| -> Result<(), String> {
        if rec.exact() == first.exact() {
            Ok(())
        } else {
            Err("exact counts differ between ops".to_string())
        }
    };
    let mut untraced = stats::Samples::new(calib::STANDARD);
    let setup_s = untraced.setup_s();
    let t0 = Instant::now();
    while t0.elapsed() < w.untraced || untraced.count() == 0 {
        let (rec, check) = op(engine, &results, Some(&pinned));
        outcome.record(check.and_then(|_| exact_check(&rec)));
        untraced.push(rec.time, rec.points);
    }
    let window = untraced.summary();

    let mut m = Metrics::default();
    if !a.trace {
        crate::set_end_to_end(&mut m, &window, setup_s);
    } else {
        let replays = Replays::new(&results, &a.work)?;
        stats::set_tracing(true);
        let mut traced = Vec::new();
        let mut counts = (0, 0);
        let t1 = Instant::now();
        while t1.elapsed() < w.traced || traced.is_empty() {
            stats::set_op(traced.len() as u32);
            let (rec, check) = op(engine, &results, Some(&pinned));
            outcome.record(check.and_then(|_| exact_check(&rec)));
            counts = replays.run()?;
            traced.push(rec);
        }
        stats::set_tracing(false);
        let col = |f: &dyn Fn(&OpRecord) -> f64| -> f64 {
            median(&traced.iter().map(f).collect::<Vec<_>>())
        };
        for (i, fam) in FAMILIES.iter().enumerate() {
            m.set(
                format!("manifest.figure_ms.{fam}"),
                col(&|r| r.family_ms[i]),
                "ms",
            );
        }
        m.set(
            "manifest.outside_stage_ms",
            col(&|r| r.figure_ms - r.stage_ms),
            "ms",
        );
        m.set("engine.stage_ms", col(&|r| r.stage_ms), "ms");
        m.set("engine.stage_points", first.stage_points as f64, "count");
        m.set("engine.cache_misses", first.misses as f64, "count");
        let lookups = first.hits + first.misses;
        m.set("engine.cache_lookups", lookups as f64, "count");
        m.set(
            "engine.cache_hit_ratio",
            first.hits as f64 / lookups.max(1) as f64,
            "ratio",
        );
        m.set(
            "profile.build_us",
            stats::median_ms("profile.build") * 1e3,
            "us",
        );
        m.set("profile.builds", counts.0 as f64, "count");
        m.set(
            "perf.plan_fold_us",
            stats::median_ms("perf.plan_fold") * 1e3,
            "us",
        );
        m.set(
            "perf.eval_ns",
            stats::median_ms("perf.eval") * 1e6 / counts.1.max(1) as f64,
            "ns",
        );
        m.set("perf.evals", counts.1 as f64, "count");
        m.set("report.csv_bytes", first.csv_bytes as f64, "bytes");
        m.set("report.csv_files", first.csv_files as f64, "count");
        m.set("report.write_ms", stats::median_ms("report.write"), "ms");
        m.set("unattributed_ms", col(&|r| r.ms - r.figure_ms), "ms");
        crate::set_overhead(&mut m, &window, col(&|r| r.ms));
    }
    let exact = vec![
        ("engine.cache_misses".to_string(), first.misses),
        ("engine.cache_hits".to_string(), first.hits),
        ("engine.stage_points".to_string(), first.stage_points),
        ("report.csv_bytes".to_string(), first.csv_bytes),
        ("campaign.points".to_string(), first.points),
    ];
    Ok(Report {
        outcome,
        metrics: m,
        exact,
        inputs_digest: figures_digest(),
        engine_threads: engine.config().threads,
        window: window.json(),
    })
}
