//! Determinism guarantees of the sweep-execution engine. A stage's
//! points run in order on the calling thread, so the thread count that
//! remains is the number of callers: one engine is shared by every thread
//! of a process (`Engine::global`, this harness's parallel tests, the
//! daemon's connections), and the CSV bytes a sweep produces must not
//! depend on how many threads drive that engine at once. Injected faults
//! (quarantined NaN placeholders, recovered retries, the failure log
//! itself) must land on the same points however many callers share the
//! engine — which is what makes a killed run resumable to byte-identical
//! output. The daemon's answers must equal the sweep's points.

use opm_bench::serve::{answer_query, query_profile};
use opm_core::api::Query;
use opm_core::platform::{EdramMode, Machine, McdramMode, OpmConfig};
use opm_core::report::Series;
use opm_kernels::engine::{Engine, EngineConfig, PlannedProfile};
use opm_kernels::sweeps::{
    cholesky_sweep_on, fft_curve_on, gemm_sweep_on, paper_fft_sizes, paper_stream_footprints,
    sparse_sweep_on, stream_curve_on, CurvePoint, HeatPoint, SparseKernelId, SparsePoint,
};
use opm_kernels::{FaultPlan, KernelId};
use opm_sparse::gen::corpus;

fn engine() -> Engine {
    Engine::new(EngineConfig::default())
}

/// Run `f` on `threads` concurrent caller threads and collect every
/// caller's result.
fn on_threads<R: Send>(threads: usize, f: impl Fn() -> R + Sync) -> Vec<R> {
    std::thread::scope(|s| {
        let callers: Vec<_> = (0..threads).map(|_| s.spawn(&f)).collect();
        callers
            .into_iter()
            .map(|c| c.join().expect("caller thread"))
            .collect()
    })
}

/// Render a dense sweep the way the figure pipelines do, so "identical
/// CSV bytes" is tested end to end through the float formatter.
fn heat_csv(points: &[HeatPoint]) -> String {
    let mut s = Series::new(vec!["n", "tile", "gflops"]);
    for p in points {
        s.push(vec![p.n as f64, p.tile as f64, p.gflops]);
    }
    s.to_csv()
}

fn curve_csv(points: &[CurvePoint]) -> String {
    let mut s = Series::new(vec!["footprint", "gflops"]);
    for p in points {
        s.push(vec![p.footprint, p.gflops]);
    }
    s.to_csv()
}

fn sparse_csv(points: &[SparsePoint]) -> String {
    let mut s = Series::new(vec!["rows", "nnz", "footprint", "gflops"]);
    for p in points {
        s.push(vec![
            p.spec.rows as f64,
            p.spec.nnz_target as f64,
            p.footprint,
            p.gflops,
        ]);
    }
    s.to_csv()
}

const THREAD_COUNTS: [usize; 4] = [2, 3, 5, 16];

#[test]
fn gemm_sweep_is_byte_identical_across_thread_counts() {
    let sizes = [256, 2304, 8448, 16128];
    let tiles = [128, 512, 1024, 4096];
    let config = OpmConfig::Broadwell(EdramMode::On);
    let baseline = heat_csv(&gemm_sweep_on(&engine(), config, &sizes, &tiles));
    for threads in THREAD_COUNTS {
        let shared = engine();
        for got in on_threads(threads, || {
            heat_csv(&gemm_sweep_on(&shared, config, &sizes, &tiles))
        }) {
            assert_eq!(got, baseline, "threads={threads}");
        }
    }
}

#[test]
fn cholesky_sweep_is_byte_identical_across_thread_counts() {
    let sizes = [1280, 5376];
    let tiles = [256, 640, 2048];
    let config = OpmConfig::Knl(McdramMode::Cache);
    let baseline = heat_csv(&cholesky_sweep_on(&engine(), config, &sizes, &tiles));
    for threads in THREAD_COUNTS {
        let shared = engine();
        for got in on_threads(threads, || {
            heat_csv(&cholesky_sweep_on(&shared, config, &sizes, &tiles))
        }) {
            assert_eq!(got, baseline, "threads={threads}");
        }
    }
}

#[test]
fn sparse_sweep_is_byte_identical_across_thread_counts() {
    let specs = corpus(32);
    let config = OpmConfig::Knl(McdramMode::Flat);
    for kernel in [
        SparseKernelId::Spmv,
        SparseKernelId::Sptrans,
        SparseKernelId::Sptrsv,
    ] {
        let baseline = sparse_csv(&sparse_sweep_on(&engine(), config, kernel, &specs));
        for threads in THREAD_COUNTS {
            let shared = engine();
            for got in on_threads(threads, || {
                sparse_csv(&sparse_sweep_on(&shared, config, kernel, &specs))
            }) {
                assert_eq!(got, baseline, "{kernel:?} threads={threads}");
            }
        }
    }
}

#[test]
fn curves_are_byte_identical_across_thread_counts() {
    let footprints = paper_stream_footprints(Machine::Broadwell, 24);
    let fft_sizes = paper_fft_sizes(Machine::Knl);
    let curves = |eng: &Engine| {
        (
            curve_csv(&stream_curve_on(
                eng,
                OpmConfig::Broadwell(EdramMode::On),
                &footprints,
            )),
            curve_csv(&fft_curve_on(
                eng,
                OpmConfig::Knl(McdramMode::Flat),
                &fft_sizes,
            )),
        )
    };
    let (stream_base, fft_base) = curves(&engine());
    for threads in THREAD_COUNTS {
        let shared = engine();
        for (stream, fft) in on_threads(threads, || curves(&shared)) {
            assert_eq!(stream, stream_base, "stream threads={threads}");
            assert_eq!(fft, fft_base, "fft threads={threads}");
        }
    }
}

/// Engine with a fault plan and no backoff sleep (the delays are real
/// wall time and irrelevant to determinism).
fn faulted_engine(spec: &str) -> Engine {
    let plan = FaultPlan::parse(spec).expect("valid fault spec");
    let mut config = EngineConfig::default().with_fault_plan(plan);
    config.backoff_base_us = 0;
    Engine::new(config)
}

/// The acceptance matrix for fault tolerance: one caller, a few, and
/// more callers than the machine has cores.
const FAULT_THREADS: [usize; 3] = [1, 4, 8];

#[test]
fn quarantined_points_are_byte_identical_across_thread_counts() {
    // Persistent faults exhaust the retry budget and quarantine the
    // point as a NaN placeholder; the seeded rate rule keys on (stage,
    // point index), never on scheduling, so the NaN rows must land on
    // the same grid points however many callers share the engine.
    let footprints = paper_stream_footprints(Machine::Knl, 24);
    let spec = "panic@rate:0.2:seed:11:persist";
    let config = OpmConfig::Knl(McdramMode::Cache);
    let baseline = curve_csv(&stream_curve_on(&faulted_engine(spec), config, &footprints));
    assert!(
        baseline.contains("NaN"),
        "a persistent 20% panic rate must quarantine some of {} points:\n{baseline}",
        footprints.len()
    );
    for threads in FAULT_THREADS {
        let shared = faulted_engine(spec);
        for got in on_threads(threads, || {
            curve_csv(&stream_curve_on(&shared, config, &footprints))
        }) {
            assert_eq!(got, baseline, "threads={threads}");
        }
    }
}

#[test]
fn recovered_faults_leave_output_identical_to_fault_free_run() {
    // Non-persistent io faults fire once and succeed on the first
    // retry: the output must be indistinguishable from a fault-free
    // run, with the recoveries visible only in the failure log.
    let footprints = paper_stream_footprints(Machine::Broadwell, 24);
    let config = OpmConfig::Broadwell(EdramMode::On);
    let clean = curve_csv(&stream_curve_on(&engine(), config, &footprints));
    for threads in FAULT_THREADS {
        let eng = faulted_engine("io@rate:0.5:seed:3");
        for got in on_threads(threads, || {
            curve_csv(&stream_curve_on(&eng, config, &footprints))
        }) {
            assert_eq!(got, clean, "threads={threads}");
        }
        let failures = eng.failures();
        assert!(
            !failures.is_empty(),
            "a 50% fault rate must hit some of {} points",
            footprints.len()
        );
        assert!(
            failures.iter().all(|f| f.recovered && f.attempts == 2),
            "one-shot io faults recover on the first retry: {failures:?}"
        );
    }
}

#[test]
fn failure_log_is_identical_across_thread_counts() {
    // run_errors.csv is written from this log sorted by (stage, point,
    // message); for that file to be byte-identical however the engine
    // is driven, the sorted log itself must be: each caller files the
    // same rows, whatever the interleaving.
    let footprints = paper_stream_footprints(Machine::Knl, 24);
    let config = OpmConfig::Knl(McdramMode::Flat);
    let spec = "panic@rate:0.3:seed:5:persist,io@point:2";
    let render = |eng: &Engine| {
        let mut rows: Vec<String> = eng
            .failures()
            .iter()
            .map(|f| {
                format!(
                    "{} {} {} {} {} {} {}",
                    f.stage,
                    f.index,
                    f.kind.label(),
                    f.attempts,
                    f.transient,
                    f.outcome(),
                    f.message
                )
            })
            .collect();
        rows.sort();
        rows
    };
    let eng1 = faulted_engine(spec);
    let _ = stream_curve_on(&eng1, config, &footprints);
    let baseline = render(&eng1);
    assert!(
        baseline.iter().any(|r| r.contains("quarantined")),
        "{baseline:?}"
    );
    for threads in FAULT_THREADS {
        let shared = faulted_engine(spec);
        on_threads(threads, || stream_curve_on(&shared, config, &footprints));
        let mut expect: Vec<String> = baseline
            .iter()
            .flat_map(|row| std::iter::repeat_n(row.clone(), threads))
            .collect();
        expect.sort();
        assert_eq!(render(&shared), expect, "threads={threads}");
    }
}

#[test]
fn served_answers_equal_sweep_points() {
    // The daemon's path (`answer_query`, resolving a query against the
    // documented defaults) must reproduce the sweep's points bit for bit.
    let sizes = [256, 4352, 16128];
    let tiles = [128, 1152, 4096];
    let specs = corpus(16);
    for config in [
        OpmConfig::Broadwell(EdramMode::Off),
        OpmConfig::Broadwell(EdramMode::On),
        OpmConfig::Knl(McdramMode::Flat),
    ] {
        let eng = engine();
        let ask = |q: Query| answer_query(&q).expect("answer");
        for p in gemm_sweep_on(&eng, config, &sizes, &tiles) {
            let a = ask(Query {
                kernel: "GEMM".into(),
                config: config.label().into(),
                n: Some(p.n as u64),
                tile: Some(p.tile as u64),
                ..Query::default()
            });
            assert_eq!(
                a.gflops.to_bits(),
                p.gflops.to_bits(),
                "GEMM {} {}",
                p.n,
                p.tile
            );
        }
        for p in sparse_sweep_on(&eng, config, SparseKernelId::Spmv, &specs) {
            let e = p.spec.estimate();
            let a = ask(Query {
                kernel: "SpMV".into(),
                config: config.label().into(),
                rows: Some(e.rows as u64),
                nnz: Some(e.nnz as u64),
                span: Some(e.avg_col_span),
                ..Query::default()
            });
            assert_eq!(a.gflops.to_bits(), p.gflops.to_bits(), "SpMV {:?}", p.spec);
            assert_eq!(a.footprint_mb, p.footprint / opm_core::units::MIB);
        }
    }
}

#[test]
fn planned_profile_equals_direct_computation() {
    for (n, tile) in [(256, 128), (8448, 1024)] {
        let direct = opm_dense::gemm_profile(n, tile, 4, 4);
        let planned = PlannedProfile::compute(|| opm_dense::gemm_profile(n, tile, 4, 4));
        assert_eq!(*planned, direct);
    }
    let (_, _, served) = query_profile(&Query {
        kernel: "SpMV".into(),
        config: "knl-flat".into(),
        rows: Some(100_000),
        nnz: Some(1_500_000),
        span: Some(40_000.0),
        threads: Some(14),
        ..Query::default()
    })
    .expect("profile");
    assert_eq!(
        served,
        opm_sparse::spmv_profile(100_000, 1_500_000, 40_000.0, 14)
    );
}

#[test]
fn profile_is_independent_of_the_config_of_one_machine() {
    // A profile depends on the kernel and problem only: a what-if query
    // asked again under another OPM mode of the same machine describes
    // the same memory behaviour.
    for (machine, labels) in [
        (Machine::Broadwell, &["brd-no-edram", "brd-edram"][..]),
        (
            Machine::Knl,
            &["knl-ddr", "knl-flat", "knl-cache", "knl-hybrid"][..],
        ),
    ] {
        for kernel in KernelId::ALL {
            let profile = |config: &str| {
                let q = Query {
                    kernel: kernel.name().into(),
                    config: config.into(),
                    ..Query::default()
                };
                query_profile(&q).expect("profile").2
            };
            let first = profile(labels[0]);
            for config in &labels[1..] {
                assert_eq!(profile(config), first, "{machine:?} {}", kernel.name());
            }
        }
    }
}

/// Rebuild the Fig. 12 CSV (Stream on Broadwell, both eDRAM modes)
/// exactly the way `opm_bench::figures::curve_figure` does, but on an
/// explicit engine.
fn fig12_csv(eng: &Engine) -> String {
    let footprints = paper_stream_footprints(Machine::Broadwell, 64);
    let configs = OpmConfig::broadwell_modes();
    let curves: Vec<Vec<CurvePoint>> = configs
        .iter()
        .map(|&c| stream_curve_on(eng, c, &footprints))
        .collect();
    let mut columns = vec!["footprint_mb".to_string()];
    columns.extend(configs.iter().map(|c| format!("gflops_{}", c.label())));
    let mut s = Series::new(columns);
    for i in 0..curves[0].len() {
        let mut row = vec![curves[0][i].footprint / opm_core::units::MIB];
        row.extend(curves.iter().map(|cv| cv[i].gflops));
        s.push(row);
    }
    s.to_csv()
}

#[test]
fn figure_is_byte_identical_to_golden_at_every_thread_count() {
    // A figure, built by one caller or by several sharing the engine,
    // must reproduce the committed full-grid CSV byte for byte. Any diff
    // here means model or engine behaviour changed.
    let golden_path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("results/fig12_stream_broadwell.csv");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    for threads in [1usize, 4, 8] {
        let shared = engine();
        for got in on_threads(threads, || fig12_csv(&shared)) {
            assert_eq!(
                got, golden,
                "threads={threads}: fig12 CSV diverged from results/"
            );
        }
    }
}
