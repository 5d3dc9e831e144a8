//! Determinism guarantees of the sweep-execution engine: a parallel run
//! must emit byte-identical CSVs to a serial run for every thread count,
//! the memoized profile cache must return exactly the profiles an
//! uncached computation would, and injected faults (quarantined NaN
//! placeholders, recovered retries, the failure log itself) must land on
//! the same points at every thread count — which is what makes a killed
//! run resumable to byte-identical output.

use opm_core::platform::{EdramMode, Machine, McdramMode, OpmConfig};
use opm_core::profile::ProfileKey;
use opm_core::report::Series;
use opm_kernels::engine::{Engine, EngineConfig};
use opm_kernels::sweeps::{
    cholesky_sweep_on, fft_curve_on, gemm_sweep_on, paper_fft_sizes, paper_stream_footprints,
    sparse_sweep_on, stream_curve_on, CurvePoint, HeatPoint, SparseKernelId, SparsePoint,
};
use opm_kernels::FaultPlan;
use opm_sparse::gen::corpus;

fn engine(threads: usize, cache_enabled: bool) -> Engine {
    Engine::new(EngineConfig {
        threads,
        cache_enabled,
        ..EngineConfig::default()
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
    let baseline = heat_csv(&gemm_sweep_on(&engine(1, true), config, &sizes, &tiles));
    for threads in THREAD_COUNTS {
        let got = heat_csv(&gemm_sweep_on(
            &engine(threads, true),
            config,
            &sizes,
            &tiles,
        ));
        assert_eq!(got, baseline, "threads={threads}");
    }
}

#[test]
fn cholesky_sweep_is_byte_identical_across_thread_counts() {
    let sizes = [1280, 5376];
    let tiles = [256, 640, 2048];
    let config = OpmConfig::Knl(McdramMode::Cache);
    let baseline = heat_csv(&cholesky_sweep_on(&engine(1, true), config, &sizes, &tiles));
    for threads in THREAD_COUNTS {
        let got = heat_csv(&cholesky_sweep_on(
            &engine(threads, true),
            config,
            &sizes,
            &tiles,
        ));
        assert_eq!(got, baseline, "threads={threads}");
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
        let baseline = sparse_csv(&sparse_sweep_on(&engine(1, true), config, kernel, &specs));
        for threads in THREAD_COUNTS {
            let got = sparse_csv(&sparse_sweep_on(
                &engine(threads, true),
                config,
                kernel,
                &specs,
            ));
            assert_eq!(got, baseline, "{kernel:?} threads={threads}");
        }
    }
}

#[test]
fn curves_are_byte_identical_across_thread_counts() {
    let footprints = paper_stream_footprints(Machine::Broadwell, 24);
    let fft_sizes = paper_fft_sizes(Machine::Knl);
    let stream_base = curve_csv(&stream_curve_on(
        &engine(1, true),
        OpmConfig::Broadwell(EdramMode::On),
        &footprints,
    ));
    let fft_base = curve_csv(&fft_curve_on(
        &engine(1, true),
        OpmConfig::Knl(McdramMode::Flat),
        &fft_sizes,
    ));
    for threads in THREAD_COUNTS {
        let stream = curve_csv(&stream_curve_on(
            &engine(threads, true),
            OpmConfig::Broadwell(EdramMode::On),
            &footprints,
        ));
        let fft = curve_csv(&fft_curve_on(
            &engine(threads, true),
            OpmConfig::Knl(McdramMode::Flat),
            &fft_sizes,
        ));
        assert_eq!(stream, stream_base, "stream threads={threads}");
        assert_eq!(fft, fft_base, "fft threads={threads}");
    }
}

/// Engine with a fault plan and no backoff sleep (the delays are real
/// wall time and irrelevant to determinism).
fn faulted_engine(threads: usize, spec: &str) -> Engine {
    let plan = FaultPlan::parse(spec).expect("valid fault spec");
    let mut config = EngineConfig {
        threads,
        cache_enabled: true,
        ..EngineConfig::default()
    }
    .with_fault_plan(plan);
    config.backoff_base_us = 0;
    Engine::new(config)
}

/// The acceptance matrix for fault tolerance: serial, small-parallel,
/// and wider-than-the-grid parallel.
const FAULT_THREADS: [usize; 3] = [1, 4, 8];

#[test]
fn quarantined_points_are_byte_identical_across_thread_counts() {
    // Persistent faults exhaust the retry budget and quarantine the
    // point as a NaN placeholder; the seeded rate rule keys on (stage,
    // point index), never on scheduling, so the NaN rows must land on
    // the same grid points at every thread count.
    let footprints = paper_stream_footprints(Machine::Knl, 24);
    let spec = "panic@rate:0.2:seed:11:persist";
    let config = OpmConfig::Knl(McdramMode::Cache);
    let baseline = curve_csv(&stream_curve_on(
        &faulted_engine(1, spec),
        config,
        &footprints,
    ));
    assert!(
        baseline.contains("NaN"),
        "a persistent 20% panic rate must quarantine some of {} points:\n{baseline}",
        footprints.len()
    );
    for threads in FAULT_THREADS {
        let got = curve_csv(&stream_curve_on(
            &faulted_engine(threads, spec),
            config,
            &footprints,
        ));
        assert_eq!(got, baseline, "threads={threads}");
    }
}

#[test]
fn recovered_faults_leave_output_identical_to_fault_free_run() {
    // Non-persistent io faults fire once and succeed on the first
    // retry: the output must be indistinguishable from a fault-free
    // run, with the recoveries visible only in the failure log.
    let footprints = paper_stream_footprints(Machine::Broadwell, 24);
    let config = OpmConfig::Broadwell(EdramMode::On);
    let clean = curve_csv(&stream_curve_on(&engine(1, true), config, &footprints));
    for threads in FAULT_THREADS {
        let eng = faulted_engine(threads, "io@rate:0.5:seed:3");
        let got = curve_csv(&stream_curve_on(&eng, config, &footprints));
        assert_eq!(got, clean, "threads={threads}");
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
    // message); for that file to be byte-identical at any thread count,
    // the sorted log itself must be.
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
    let eng1 = faulted_engine(1, spec);
    let _ = stream_curve_on(&eng1, config, &footprints);
    let baseline = render(&eng1);
    assert!(
        baseline.iter().any(|r| r.contains("quarantined")),
        "{baseline:?}"
    );
    for threads in FAULT_THREADS {
        let eng = faulted_engine(threads, spec);
        let _ = stream_curve_on(&eng, config, &footprints);
        assert_eq!(render(&eng), baseline, "threads={threads}");
    }
}

#[test]
fn cached_sweep_equals_uncached_sweep() {
    let sizes = [256, 4352, 16128];
    let tiles = [128, 1152, 4096];
    let specs = corpus(16);
    for config in [
        OpmConfig::Broadwell(EdramMode::Off),
        OpmConfig::Broadwell(EdramMode::On),
        OpmConfig::Knl(McdramMode::Flat),
    ] {
        let cached = engine(2, true);
        let uncached = engine(2, false);
        // Run each sweep twice on the cached engine so the second pass is
        // answered from the cache, then demand equality with no-cache.
        let _ = gemm_sweep_on(&cached, config, &sizes, &tiles);
        let warm = gemm_sweep_on(&cached, config, &sizes, &tiles);
        let cold = gemm_sweep_on(&uncached, config, &sizes, &tiles);
        assert_eq!(heat_csv(&warm), heat_csv(&cold));
        let _ = sparse_sweep_on(&cached, config, SparseKernelId::Spmv, &specs);
        let warm = sparse_sweep_on(&cached, config, SparseKernelId::Spmv, &specs);
        let cold = sparse_sweep_on(&uncached, config, SparseKernelId::Spmv, &specs);
        assert_eq!(sparse_csv(&warm), sparse_csv(&cold));
        assert!(
            cached.cache_stats().hits > 0,
            "second pass should hit the cache"
        );
        assert_eq!(uncached.cache_stats(), opm_kernels::CacheStats::default());
    }
}

#[test]
fn memoized_profile_equals_direct_computation() {
    let eng = engine(1, true);
    for (n, tile) in [(256, 128), (8448, 1024)] {
        let key = ProfileKey::Gemm {
            n,
            tile,
            threads: 4,
            cores: 4,
        };
        // First call computes and memoizes, second answers from cache;
        // both must equal the direct constructor output.
        let direct = opm_dense::gemm_profile(n, tile, 4, 4);
        let first = eng.profile(key, || opm_dense::gemm_profile(n, tile, 4, 4));
        let second = eng.profile(key, || unreachable!("cache must hit"));
        assert_eq!(*first, direct);
        assert_eq!(*second, direct);
    }
    let direct = opm_sparse::spmv_profile(100_000, 1_500_000, 40_000.0, 14);
    let key = ProfileKey::spmv(100_000, 1_500_000, 40_000.0, 14);
    let first = eng.profile(key, || {
        opm_sparse::spmv_profile(100_000, 1_500_000, 40_000.0, 14)
    });
    assert_eq!(*first, direct);
}

#[test]
fn profiles_are_shared_across_configs_of_one_machine() {
    let eng = engine(1, true);
    let sizes = [2304, 8448];
    let tiles = [256, 1024];
    let _ = gemm_sweep_on(&eng, OpmConfig::Broadwell(EdramMode::Off), &sizes, &tiles);
    let cold = eng.cache_stats();
    assert_eq!(cold.hits, 0);
    assert_eq!(cold.misses as usize, sizes.len() * tiles.len());
    // The second configuration re-uses every profile of the first.
    let _ = gemm_sweep_on(&eng, OpmConfig::Broadwell(EdramMode::On), &sizes, &tiles);
    let warm = eng.cache_stats();
    assert_eq!(warm.misses, cold.misses, "no new profile computations");
    assert_eq!(warm.hits as usize, sizes.len() * tiles.len());
}

/// Rebuild the reduced Fig. 12 CSV (Stream on Broadwell, both eDRAM
/// modes) exactly the way `opm_bench::figures::curve_figure` does, but on
/// an explicit engine so the thread count can vary within one process.
fn fig12_reduced_csv(threads: usize, cache_enabled: bool) -> String {
    // The reduced harness grid: `harness_stream_footprints` thins the
    // 64-sample paper sweep to `(64 / 3).max(12)` = 21 points.
    let footprints = paper_stream_footprints(Machine::Broadwell, 64 / 3);
    let eng = engine(threads, cache_enabled);
    let configs = OpmConfig::broadwell_modes();
    let curves: Vec<Vec<CurvePoint>> = configs
        .iter()
        .map(|&c| stream_curve_on(&eng, c, &footprints))
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
fn reduced_figure_is_byte_identical_to_golden_at_every_thread_count() {
    // The acceptance gate for the memsim hot-path optimization work: a
    // reduced figure, serial and parallel, must reproduce the golden CSV
    // byte for byte. Any diff here means simulator behaviour changed.
    let golden_path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden/fig12_stream_broadwell.csv");
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("read {}: {e}", golden_path.display()));
    for threads in [1usize, 4, 8] {
        for cache_enabled in [true, false] {
            assert_eq!(
                fig12_reduced_csv(threads, cache_enabled),
                golden,
                "threads={threads} cache={cache_enabled}: reduced fig12 CSV diverged from tests/golden/"
            );
        }
    }
}
