//! Property-based tests (proptest) on the core data structures and
//! numerical invariants across the workspace.

use opm_repro::core::perf::{absorb, absorb_proportional, ramp, PerfModel, RAMP_FLOOR};
use opm_repro::core::platform::{EdramMode, McdramMode, OpmConfig};
use opm_repro::core::profile::{AccessProfile, Phase, Tier};
use opm_repro::core::stats::{
    gaussian_kde, linspace, log2_bucket_index, quantile, summarize, LOG2_BUCKETS,
};
use opm_repro::core::telemetry::{HistogramSnapshot, PromDump, Telemetry, TelemetryMode};
use opm_repro::dense::{cholesky_blocked, gemm_blocked, gemm_naive, DenseMatrix};
use opm_repro::fft::{fft_inplace, Complex, Direction};
use opm_repro::memsim::{
    reuse_histogram, HierarchySim, Lookup, ReuseHistogram, SetAssocCache, Trace,
};
use opm_repro::sparse::spmv::nnz_balanced_partition;
use opm_repro::sparse::{
    parse_matrix_market, spmv_csr5, spmv_parallel, spmv_serial, sptrans_merge, sptrans_scan,
    sptrsv_levelset, sptrsv_serial, sptrsv_syncfree, to_matrix_market, CooMatrix, Csr5Matrix,
    CsrMatrix,
};
use proptest::prelude::*;

/// Arbitrary small sparse matrix as COO triplets.
fn arb_csr(max_n: usize, max_nnz: usize) -> impl Strategy<Value = CsrMatrix> {
    (2..max_n)
        .prop_flat_map(move |n| {
            let entry = (0..n, 0..n, -10.0f64..10.0);
            (Just(n), proptest::collection::vec(entry, 1..max_nnz))
        })
        .prop_map(|(n, entries)| {
            let mut coo = CooMatrix::new(n, n);
            for (r, c, v) in entries {
                coo.push(r, c, v);
            }
            CsrMatrix::from_coo(coo)
        })
}

/// A latency histogram snapshot built bucket-by-bucket from raw
/// observations — the reference the atomic observe path must match.
fn hist_of(vals: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot {
        metric: "opm_point_latency_ns".into(),
        labels: "stage=\"p\"".into(),
        buckets: vec![0; LOG2_BUCKETS],
        sum: 0,
        count: 0,
    };
    for &v in vals {
        h.buckets[log2_bucket_index(v)] += 1;
        h.sum += v;
        h.count += 1;
    }
    h
}

/// Exact LRU hit count of a fully-associative cache with `lines` lines,
/// by the stack-distance theorem (integer counterpart of `hit_ratio`).
fn lru_hits(h: &ReuseHistogram, lines: u64) -> u64 {
    h.finite
        .iter()
        .filter(|(d, _)| *d < lines)
        .map(|(_, c)| *c)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csr_from_coo_always_validates(m in arb_csr(40, 300)) {
        prop_assert!(m.validate().is_ok());
    }

    #[test]
    fn transpose_is_involution(m in arb_csr(30, 200)) {
        let t = sptrans_scan(&m).into_transposed_csr();
        prop_assert!(t.validate().is_ok());
        let back = sptrans_scan(&t).into_transposed_csr();
        prop_assert_eq!(back, m);
    }

    #[test]
    fn merge_trans_matches_scan_trans(m in arb_csr(30, 200), chunks in 1usize..12) {
        prop_assert_eq!(sptrans_merge(&m, chunks), sptrans_scan(&m));
    }

    #[test]
    fn spmv_parallel_matches_serial(m in arb_csr(40, 300), seed in 0u64..100) {
        let x: Vec<f64> = (0..m.cols).map(|i| ((i as u64 * 31 + seed) % 17) as f64 - 8.0).collect();
        let mut ys = vec![0.0; m.rows];
        let mut yp = vec![0.0; m.rows];
        spmv_serial(&m, &x, &mut ys);
        spmv_parallel(&m, &x, &mut yp);
        for (a, b) in ys.iter().zip(&yp) {
            prop_assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn csr5_round_trips_and_matches_spmv(m in arb_csr(40, 300), omega in 1usize..6, sigma in 1usize..20) {
        let c5 = Csr5Matrix::from_csr_with(&m, omega, sigma);
        prop_assert_eq!(c5.to_csr(), m.clone());
        let x: Vec<f64> = (0..m.cols).map(|i| 1.0 + (i % 11) as f64).collect();
        let mut y_ref = vec![0.0; m.rows];
        let mut y = vec![0.0; m.rows];
        spmv_serial(&m, &x, &mut y_ref);
        spmv_csr5(&c5, &x, &mut y);
        for (a, b) in y.iter().zip(&y_ref) {
            prop_assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn sptrsv_syncfree_matches_serial(m in arb_csr(30, 250)) {
        let l = m.to_lower_triangular();
        let b: Vec<f64> = (0..l.rows).map(|i| 1.0 + (i as f64 * 0.3).sin()).collect();
        let xs = sptrsv_serial(&l, &b).unwrap();
        let xf = sptrsv_syncfree(&l, &b).unwrap();
        for (a, c) in xs.iter().zip(&xf) {
            prop_assert!((a - c).abs() < 1e-9);
        }
    }

    #[test]
    fn fft_plan_matches_direct(n in 1usize..160, seed in 0u64..20) {
        let plan = opm_repro::fft::FftPlan::new(n);
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = (i as u64).wrapping_mul(seed + 7) as f64;
                Complex::new((t * 0.013).sin(), (t * 0.029).cos())
            })
            .collect();
        let mut a = x.clone();
        let mut b = x.clone();
        plan.execute(&mut a, Direction::Forward);
        fft_inplace(&mut b, Direction::Forward);
        for (u, v) in a.iter().zip(&b) {
            prop_assert!((*u - *v).abs() < 1e-7 * (n as f64).max(1.0));
        }
    }

    #[test]
    fn reuse_tiers_round_trip_mass(count in 100usize..600, region_kb in 2u64..64, seed in 0u64..200) {
        // Trace -> reuse histogram -> tier model: tier mass equals the
        // finite-reuse mass, and the largest tier bounds the region.
        let t = Trace::random(0, region_kb * 1024, count, seed);
        let h = reuse_histogram(&t);
        let tiers = h.to_tiers(6);
        let mass: f64 = tiers.iter().map(|t| t.fraction).sum();
        let finite_mass = 1.0 - h.cold as f64 / h.total.max(1) as f64;
        prop_assert!((mass - finite_mass).abs() < 1e-9);
        for tier in &tiers {
            prop_assert!(tier.working_set <= (region_kb * 1024 + 128) as f64 * 2.0);
        }
    }

    #[test]
    fn sptrsv_levelset_matches_serial_and_solves(m in arb_csr(30, 250)) {
        let l = m.to_lower_triangular();
        let b: Vec<f64> = (0..l.rows).map(|i| (i as f64 * 0.7).cos()).collect();
        let xs = sptrsv_serial(&l, &b).unwrap();
        let xp = sptrsv_levelset(&l, &b).unwrap();
        for (a, c) in xs.iter().zip(&xp) {
            prop_assert!((a - c).abs() < 1e-9);
        }
        // Residual check.
        let mut r = vec![0.0; l.rows];
        spmv_serial(&l, &xs, &mut r);
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-7);
        }
    }

    #[test]
    fn nnz_partition_is_monotone_and_complete(
        lens in proptest::collection::vec(0usize..50, 1..60),
        tasks in 1usize..16,
    ) {
        let mut row_ptr = vec![0usize];
        for l in &lens {
            row_ptr.push(row_ptr.last().unwrap() + l);
        }
        let b = nnz_balanced_partition(&row_ptr, tasks);
        prop_assert_eq!(b[0], 0);
        prop_assert_eq!(*b.last().unwrap(), lens.len());
        for w in b.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
    }

    #[test]
    fn gemm_blocked_matches_naive(
        m in 1usize..12, n in 1usize..12, k in 1usize..12,
        tile in 1usize..15, seed in 0u64..50,
    ) {
        let a = DenseMatrix::random(m, k, seed);
        let b = DenseMatrix::random(k, n, seed + 1);
        let mut c1 = DenseMatrix::random(m, n, seed + 2);
        let mut c2 = c1.clone();
        gemm_naive(1.3, &a, &b, -0.4, &mut c1);
        gemm_blocked(1.3, &a, &b, -0.4, &mut c2, tile);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-11);
    }

    #[test]
    fn cholesky_reconstructs_arbitrary_spd(n in 2usize..20, tile in 1usize..8, seed in 0u64..50) {
        let a = DenseMatrix::random_spd(n, seed);
        let l = cholesky_blocked(&a, tile).unwrap();
        let r = opm_repro::dense::cholesky::reconstruct(&l);
        prop_assert!(a.max_abs_diff(&r) < 1e-8);
    }

    #[test]
    fn fft_round_trip_arbitrary_length(n in 1usize..200, seed in 0u64..20) {
        let x: Vec<Complex> = (0..n)
            .map(|i| {
                let t = (i as u64).wrapping_mul(seed + 3) as f64;
                Complex::new((t * 0.01).sin(), (t * 0.02).cos())
            })
            .collect();
        let mut y = x.clone();
        fft_inplace(&mut y, Direction::Forward);
        fft_inplace(&mut y, Direction::Inverse);
        for (a, b) in x.iter().zip(&y) {
            prop_assert!((*a - *b).abs() < 1e-8);
        }
    }

    #[test]
    fn fft_parseval(n in 2usize..150) {
        let x: Vec<Complex> = (0..n)
            .map(|i| Complex::new((i as f64 * 0.37).sin(), (i as f64 * 0.11).cos()))
            .collect();
        let mut y = x.clone();
        fft_inplace(&mut y, Direction::Forward);
        let et: f64 = x.iter().map(|c| c.norm_sqr()).sum();
        let ef: f64 = y.iter().map(|c| c.norm_sqr()).sum::<f64>() / n as f64;
        prop_assert!((et - ef).abs() < 1e-7 * et.max(1.0));
    }

    #[test]
    fn stack_distance_theorem_on_random_traces(
        count in 50usize..400, region_kb in 1u64..64, seed in 0u64..1000, cap_lines in 4u64..128,
    ) {
        let t = Trace::random(0, region_kb * 1024, count, seed);
        let h = reuse_histogram(&t);
        let mut c = SetAssocCache::new("fa", cap_lines * 64, cap_lines as usize);
        for a in &t.accesses {
            for l in a.lines() {
                c.access(l, false);
            }
        }
        prop_assert!((c.stats().hit_ratio() - h.hit_ratio(cap_lines)).abs() < 1e-9);
    }

    #[test]
    fn absorb_functions_are_monotone_in_capacity(w in 1.0f64..1e9, c1 in 1.0f64..1e9, c2 in 1.0f64..1e9) {
        let (lo, hi) = if c1 < c2 { (c1, c2) } else { (c2, c1) };
        prop_assert!(absorb(lo, w) <= absorb(hi, w) + 1e-12);
        prop_assert!(absorb_proportional(lo, w) <= absorb_proportional(hi, w) + 1e-12);
        prop_assert!((0.0..=1.0).contains(&absorb(c1, w)));
        prop_assert!((0.0..=1.0).contains(&absorb_proportional(c1, w)));
    }

    #[test]
    fn ramp_is_bounded_and_monotone(w in 1.0f64..1e12, c in 1.0f64..1e10) {
        let r = ramp(w, c);
        prop_assert!((RAMP_FLOOR..=1.0).contains(&r));
        prop_assert!(ramp(w * 2.0, c) >= r - 1e-12);
    }

    #[test]
    fn model_is_deterministic_and_positive(
        footprint_mb in 1.0f64..4096.0,
        ai in 0.01f64..64.0,
        mlp in 1.0f64..16.0,
        threads in 1usize..256,
    ) {
        let fp = footprint_mb * 1024.0 * 1024.0;
        let mut ph = Phase::new("p", fp * ai, fp);
        ph.tiers = vec![Tier::new(fp, 1.0)];
        ph.mlp = mlp;
        ph.threads = threads;
        let prof = AccessProfile::single("p", ph, fp);
        for config in [
            OpmConfig::Broadwell(EdramMode::Off),
            OpmConfig::Broadwell(EdramMode::On),
            OpmConfig::Knl(McdramMode::Off),
            OpmConfig::Knl(McdramMode::Flat),
            OpmConfig::Knl(McdramMode::Cache),
            OpmConfig::Knl(McdramMode::Hybrid),
        ] {
            let model = PerfModel::for_config(config);
            let a = model.evaluate(&prof);
            let b = model.evaluate(&prof);
            prop_assert_eq!(a.gflops.to_bits(), b.gflops.to_bits());
            prop_assert!(a.gflops.is_finite() && a.gflops > 0.0);
            prop_assert!(a.time_ns > 0.0);
            // Served bytes are conserved.
            let served: f64 = a.components.iter().map(|c| c.bytes).sum();
            prop_assert!((served - fp).abs() < 1e-6 * fp);
        }
    }

    #[test]
    fn edram_never_hurts_property(
        footprint_mb in 0.1f64..8192.0,
        ai in 0.01f64..64.0,
        prefetch in 0.0f64..1.0,
        mlp in 1.0f64..16.0,
    ) {
        let fp = footprint_mb * 1024.0 * 1024.0;
        let mut ph = Phase::new("p", fp * ai, fp);
        ph.tiers = vec![Tier::new(fp, 1.0)];
        ph.prefetch = prefetch;
        ph.stream_prefetch = prefetch;
        ph.mlp = mlp;
        ph.threads = 8;
        let prof = AccessProfile::single("p", ph, fp);
        let on = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::On)).evaluate(&prof);
        let off = PerfModel::for_config(OpmConfig::Broadwell(EdramMode::Off)).evaluate(&prof);
        prop_assert!(
            on.gflops >= off.gflops * 0.999,
            "eDRAM hurt: {} vs {} at {} MB", on.gflops, off.gflops, footprint_mb
        );
    }

    #[test]
    fn prefetcher_accuracy_is_bounded(streams in 1usize..8, degree in 1usize..8, seed in 0u64..50) {
        use opm_repro::memsim::StreamPrefetcher;
        let mut pf = StreamPrefetcher::new(streams, degree);
        let t = Trace::random(0, 1 << 18, 500, seed);
        for a in &t.accesses {
            for l in a.lines() {
                let _ = pf.observe(l);
            }
        }
        let s = pf.stats();
        prop_assert!(s.useful <= s.issued);
        prop_assert!((0.0..=1.0).contains(&pf.accuracy()));
    }

    #[test]
    fn sharing_outcome_is_sane(
        fp_a in 0.5f64..20.0, fp_b in 0.5f64..20.0, weight in 0.1f64..10.0,
    ) {
        use opm_repro::core::sharing::{evaluate_sharing, SharingPolicy};
        let gib = 1024.0 * 1024.0 * 1024.0;
        let mk = |fp: f64| {
            let fpb = fp * gib;
            let mut ph = Phase::new("p", fpb / 4.0, fpb * 4.0);
            ph.tiers = vec![Tier::new(fpb, 1.0)];
            ph.threads = 128;
            AccessProfile::single("p", ph, fpb)
        };
        let apps = [mk(fp_a), mk(fp_b)];
        for policy in [
            SharingPolicy::EqualPartition,
            SharingPolicy::WeightedPartition(vec![weight, 1.0]),
            SharingPolicy::Shared,
            SharingPolicy::Priority(0),
        ] {
            let out = evaluate_sharing(
                OpmConfig::Knl(McdramMode::Flat),
                &apps,
                &policy,
            );
            prop_assert!(out.fairness > 0.0 && out.fairness <= 1.0 + 1e-12);
            prop_assert!(out.system_throughput > 0.0);
            for a in &out.apps {
                prop_assert!(a.progress.is_finite() && a.progress > 0.0);
            }
        }
    }

    #[test]
    fn cli_parse_never_panics(words in proptest::collection::vec("[a-z0-9-]{1,8}", 0..8)) {
        let raw: Vec<String> = words;
        let args = opm_bench::cli::parse_args(&raw);
        prop_assert!(args.positional.len() + args.options.len() <= raw.len());
    }

    #[test]
    fn stats_quantiles_bracket_summary(xs in proptest::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = summarize(&xs);
        prop_assert!(quantile(&xs, 0.0) <= s.mean + 1e-9 || s.n == 1);
        prop_assert_eq!(quantile(&xs, 0.0), s.min);
        prop_assert_eq!(quantile(&xs, 1.0), s.max);
        prop_assert!(s.min <= s.mean && s.mean <= s.max);
    }

    #[test]
    fn kde_is_nonnegative_everywhere(xs in proptest::collection::vec(0.0f64..100.0, 2..50)) {
        let grid = linspace(-50.0, 150.0, 64);
        let kde = gaussian_kde(&xs, &grid, 5.0);
        for (_, d) in kde {
            prop_assert!(d >= 0.0);
        }
    }

    #[test]
    fn victim_cache_captures_every_eviction(
        count in 50usize..400, region_kb in 4u64..64, seed in 0u64..500,
    ) {
        // An L3 stand-in backed by an eDRAM-style victim cache: every line
        // the L3 evicts must be resident in the victim right after the fill
        // (and gone from the L3), which is what makes eDRAM absorb L3
        // capacity misses in the hierarchy model.
        let mut l3 = SetAssocCache::new("l3", 16 * 64, 4);
        let mut victim = SetAssocCache::new("victim", 64 * 64, 8);
        let t = Trace::random(0, region_kb * 1024, count, seed);
        for a in &t.accesses {
            for line in a.lines() {
                if let Lookup::Miss { evicted: Some(tag), dirty } = l3.access(line, false) {
                    victim.fill(tag, dirty);
                    prop_assert!(victim.contains(tag), "evicted line {} missing from victim", tag);
                    prop_assert!(!l3.contains(tag));
                }
            }
        }
        // The full hierarchy accounts for every touch exactly once.
        let mut sim = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::On), 8192);
        let r = sim.run(&t).clone();
        let served = r.level_hits.iter().sum::<u64>() + r.victim_hits + r.opm_flat + r.dram;
        prop_assert_eq!(served, r.accesses);
    }

    #[test]
    fn direct_mapped_aliasing_thrashes_but_two_way_coexists(
        sets_pow in 2u32..9, base in 0u64..1024, rounds in 2usize..32,
    ) {
        // Cache-mode MCDRAM is direct-mapped: two lines whose addresses
        // differ by exactly the set count alias to the same set and evict
        // each other forever, while one extra way removes the conflict.
        let sets = 1u64 << sets_pow;
        let mut dm = SetAssocCache::direct_mapped("mcdram", sets * 64);
        prop_assert_eq!(dm.sets() as u64, sets);
        let (a, b) = (base, base + sets);
        for _ in 0..rounds {
            prop_assert!(matches!(dm.access(a, false), Lookup::Miss { .. }));
            prop_assert!(matches!(dm.access(b, false), Lookup::Miss { .. }));
        }
        let mut two_way = SetAssocCache::new("mcdram-2w", sets * 2 * 64, 2);
        prop_assert_eq!(two_way.sets() as u64, sets);
        two_way.access(a, false);
        two_way.access(b, false);
        for _ in 0..rounds {
            prop_assert!(matches!(two_way.access(a, false), Lookup::Hit));
            prop_assert!(matches!(two_way.access(b, false), Lookup::Hit));
        }
    }

    #[test]
    fn mtx_parser_never_panics_on_mutated_files(
        m in arb_csr(20, 100),
        pos in 0usize..10_000,
        kind in 0usize..6,
        byte in 0usize..256,
    ) {
        // Fuzz `parse_matrix_market` with structured corruptions of a
        // valid document: the parser must return a typed error (or a
        // matrix) for every mutation — never panic, never overflow, never
        // attempt an absurd allocation.
        let text = to_matrix_market(&m);
        let mutated = match kind {
            0 => {
                // Truncate mid-document (possibly mid-line).
                let mut cut = pos % (text.len() + 1);
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                text[..cut].to_string()
            }
            1 => {
                // Replace one byte with an arbitrary one.
                let mut bytes = text.clone().into_bytes();
                let i = pos % bytes.len();
                bytes[i] = byte as u8;
                String::from_utf8_lossy(&bytes).into_owned()
            }
            2 => {
                // Duplicate a line (often creates excess entries).
                let lines: Vec<&str> = text.lines().collect();
                let i = pos % lines.len();
                let mut out = lines.clone();
                out.insert(i, lines[i]);
                out.join("\n")
            }
            3 => {
                // Delete a line (often truncates the entry section).
                let mut lines: Vec<&str> = text.lines().collect();
                lines.remove(pos % lines.len());
                lines.join("\n")
            }
            4 => {
                // Blow up every occurrence of the row count, pushing
                // indices and dimensions out of range.
                let big = m.rows.saturating_mul(pos.max(2));
                text.replace(&m.rows.to_string(), &big.to_string())
            }
            _ => {
                // Overwrite the size line with an overflowing one.
                let huge = format!("{} {} {}", usize::MAX, usize::MAX, pos);
                let mut lines: Vec<&str> = text.lines().collect();
                lines[2] = &huge;
                lines.join("\n")
            }
        };
        let _ = parse_matrix_market(&mutated);
        // The unmutated document still round-trips exactly.
        prop_assert_eq!(parse_matrix_market(&text).unwrap(), m);
    }

    #[test]
    fn reuse_hits_are_superadditive_under_concatenation(
        c1 in 20usize..200, c2 in 20usize..200, region_kb in 1u64..32,
        s1 in 0u64..500, s2 in 0u64..500,
    ) {
        // Prefixing a trace can only turn t2's cold misses into finite
        // reuses — distances of reuses internal to either half are
        // untouched — so LRU hits at every capacity are superadditive and
        // cold misses subadditive under concatenation.
        let t1 = Trace::random(0, region_kb * 1024, c1, s1);
        let t2 = Trace::random(0, region_kb * 1024, c2, s2);
        let mut cat = t1.clone();
        cat.accesses.extend(&t2.accesses);
        let h1 = reuse_histogram(&t1);
        let h2 = reuse_histogram(&t2);
        let h12 = reuse_histogram(&cat);
        prop_assert_eq!(h12.total, h1.total + h2.total);
        prop_assert!(h12.cold <= h1.cold + h2.cold);
        for cap in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 1 << 20] {
            prop_assert!(
                lru_hits(&h12, cap) >= lru_hits(&h1, cap) + lru_hits(&h2, cap),
                "capacity {} lines: concatenated hits fell below the sum", cap
            );
        }
    }

    #[test]
    fn histogram_observe_matches_reference_and_quantiles_are_monotone(
        vals in proptest::collection::vec(0u64..1_000_000_000_000, 1..128),
    ) {
        let want = hist_of(&vals);
        prop_assert_eq!(want.buckets.len(), LOG2_BUCKETS);
        // The atomic observe path produces the same snapshot as the
        // bucket-by-bucket reference.
        let tele = Telemetry::new(TelemetryMode::Summary);
        for &v in &vals {
            tele.observe("opm_point_latency_ns", "stage=\"p\"", v);
        }
        let got = &tele.snapshot_histograms()[0];
        prop_assert_eq!(got, &want);
        // Quantiles are monotone in q.
        let qs: Vec<u64> = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
            .iter()
            .map(|&q| got.quantile(q))
            .collect();
        prop_assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{:?}", qs);
    }

    #[test]
    fn prom_dump_render_parse_round_trips(
        counters in proptest::collection::vec((0usize..2, 1u64..1000), 0..6),
        gauges in proptest::collection::vec((0usize..2, 0u64..1_000_000), 0..6),
        obs in proptest::collection::vec((0usize..3, 0u64..1_000_000_000), 0..12),
    ) {
        const COUNTERS: [&str; 2] = ["opm_a_total", "opm_b_total"];
        const GAUGES: [&str; 2] = ["opm_g_milli", "opm_h_milli"];
        const SERIES: [&str; 3] = ["stage=\"x\"", "stage=\"y\"", ""];
        let tele = Telemetry::new(TelemetryMode::Summary);
        for (i, v) in &counters {
            tele.add(COUNTERS[*i], SERIES[*i], *v);
        }
        for (i, v) in &gauges {
            tele.set_gauge(GAUGES[*i], SERIES[*i], *v);
        }
        for (i, v) in &obs {
            tele.observe("opm_point_latency_ns", SERIES[*i], *v);
        }
        let dump = tele.prom_dump();
        // Render ∘ parse is the identity on the typed dump.
        let text = dump.render();
        let parsed = PromDump::parse(&text).unwrap();
        prop_assert_eq!(&parsed, &dump);
        prop_assert_eq!(parsed.render(), text);
    }
}
