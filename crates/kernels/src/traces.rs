//! Address-trace twins of the kernel loop structures, for exact simulation
//! and for validating the analytic access profiles: each generator replays
//! the memory references the corresponding implementation makes (same loop
//! order, same operands, real sparse structure), producing a
//! [`Trace`] that `opm-memsim` can run or analyze with
//! reuse-distance histograms.

use opm_memsim::Trace;
use opm_sparse::CsrMatrix;

/// Byte sizes of the traced element types.
const F64: u32 = 8;
const IDX: u32 = 4;
const PTR: u32 = 8;

/// STREAM TRIAD `a = b + α·c` over `n` doubles, `passes` repetitions.
/// Layout: `a @ 0`, `b`, `c` contiguous.
pub fn stream_triad_trace(n: usize, passes: usize) -> Trace {
    let mut t = Trace::with_capacity(3 * n * passes);
    let a0 = 0u64;
    let b0 = (n as u64) * 8;
    let c0 = 2 * (n as u64) * 8;
    for _ in 0..passes {
        for i in 0..n as u64 {
            t.read(b0 + i * 8, F64);
            t.read(c0 + i * 8, F64);
            t.write(a0 + i * 8, F64);
        }
    }
    t
}

/// CSR SpMV `y = A·x`: row-pointer walk, value/index streaming, `x`
/// gathers, `y` writes — the reference loop of
/// [`opm_sparse::spmv_serial`]. Layout: `row_ptr @ 0`, then `col_idx`,
/// `vals`, `x`, `y`.
pub fn spmv_trace(a: &CsrMatrix, passes: usize) -> Trace {
    let mut t = Trace::with_capacity(passes * 3 * (a.rows + a.nnz()));
    let ptr0 = 0u64;
    let idx0 = ptr0 + (a.row_ptr.len() as u64) * 8;
    let val0 = idx0 + (a.col_idx.len() as u64) * 4;
    let x0 = val0 + (a.vals.len() as u64) * 8;
    let y0 = x0 + (a.cols as u64) * 8;
    for _ in 0..passes {
        for i in 0..a.rows {
            t.read(ptr0 + (i as u64) * 8, PTR);
            t.read(ptr0 + (i as u64 + 1) * 8, PTR);
            let (cols, _) = a.row(i);
            let base = a.row_ptr[i] as u64;
            for (k, &c) in cols.iter().enumerate() {
                t.read(idx0 + (base + k as u64) * 4, IDX);
                t.read(val0 + (base + k as u64) * 8, F64);
                t.read(x0 + (c as u64) * 8, F64);
            }
            t.write(y0 + (i as u64) * 8, F64);
        }
    }
    t
}

/// Blocked GEMM `C += A·B` with square tiles — the loop order of
/// [`opm_dense::gemm_blocked`]. Layout: `A @ 0`, `B`, `C`.
pub fn gemm_blocked_trace(n: usize, tile: usize) -> Trace {
    // Per (i, l) pair: one A read per j-tile and three touches per j.
    let mut t = Trace::with_capacity(n * n * (n.div_ceil(tile) + 3 * n));
    let a0 = 0u64;
    let b0 = (n * n) as u64 * 8;
    let c0 = 2 * (n * n) as u64 * 8;
    let at = |i: usize, j: usize| a0 + ((i * n + j) as u64) * 8;
    let bt = |i: usize, j: usize| b0 + ((i * n + j) as u64) * 8;
    let ct = |i: usize, j: usize| c0 + ((i * n + j) as u64) * 8;
    for i0 in (0..n).step_by(tile) {
        let i1 = (i0 + tile).min(n);
        for l0 in (0..n).step_by(tile) {
            let l1 = (l0 + tile).min(n);
            for j0 in (0..n).step_by(tile) {
                let j1 = (j0 + tile).min(n);
                for i in i0..i1 {
                    for l in l0..l1 {
                        t.read(at(i, l), F64);
                        for j in j0..j1 {
                            t.read(bt(l, j), F64);
                            t.read(ct(i, j), F64);
                            t.write(ct(i, j), F64);
                        }
                    }
                }
            }
        }
    }
    t
}

/// iso3dfd sweep over an `n³` grid (interior only), z fastest —
/// the loop order of [`opm_stencil::step_naive`]. Layout: `prev @ 0`,
/// `cur`, `next`.
pub fn stencil_trace(n: usize) -> Trace {
    use opm_stencil::HALF;
    assert!(n > 2 * HALF, "grid too small");
    let m = n - 2 * HALF;
    let mut t = Trace::with_capacity(m * m * m * (6 * HALF + 3));
    let cells = (n * n * n) as u64;
    let prev0 = 0u64;
    let cur0 = cells * 8;
    let next0 = 2 * cells * 8;
    let idx = |x: usize, y: usize, z: usize| (((x * n) + y) as u64 * n as u64 + z as u64) * 8;
    for x in HALF..n - HALF {
        for y in HALF..n - HALF {
            for z in HALF..n - HALF {
                t.read(cur0 + idx(x, y, z), F64);
                for r in 1..=HALF {
                    t.read(cur0 + idx(x + r, y, z), F64);
                    t.read(cur0 + idx(x - r, y, z), F64);
                    t.read(cur0 + idx(x, y + r, z), F64);
                    t.read(cur0 + idx(x, y - r, z), F64);
                    t.read(cur0 + idx(x, y, z + r), F64);
                    t.read(cur0 + idx(x, y, z - r), F64);
                }
                t.read(prev0 + idx(x, y, z), F64);
                t.write(next0 + idx(x, y, z), F64);
            }
        }
    }
    t
}

/// ScanTrans sparse transposition: histogram pass, scan, scatter pass —
/// the loop order of [`opm_sparse::sptrans_scan`]. Layout: input CSR
/// arrays, then the output CSC arrays.
pub fn sptrans_trace(a: &CsrMatrix) -> Trace {
    let mut t = Trace::with_capacity(7 * a.nnz() + 2 * (a.cols + 1));
    let nnz = a.nnz() as u64;
    let in_idx = 0u64;
    let in_val = in_idx + nnz * 4;
    let col_ptr0 = in_val + nnz * 8;
    let out_row = col_ptr0 + (a.cols as u64 + 1) * 8;
    let out_val = out_row + nnz * 4;
    // Pass 1: histogram of column counts (stream indices, RMW the bucket).
    for (k, &c) in a.col_idx.iter().enumerate() {
        t.read(in_idx + k as u64 * 4, IDX);
        t.read(col_ptr0 + (c as u64 + 1) * 8, PTR);
        t.write(col_ptr0 + (c as u64 + 1) * 8, PTR);
    }
    // Pass 2: prefix scan over col_ptr.
    for j in 0..=a.cols as u64 {
        t.read(col_ptr0 + j * 8, PTR);
        t.write(col_ptr0 + j * 8, PTR);
    }
    // Pass 3: ordered scatter to the real CSC destinations.
    let mut col_start = vec![0u64; a.cols + 1];
    for &c in &a.col_idx {
        col_start[c as usize + 1] += 1;
    }
    for j in 0..a.cols {
        col_start[j + 1] += col_start[j];
    }
    let mut cursor = vec![0u64; a.cols];
    for i in 0..a.rows {
        let (cols, _) = a.row(i);
        let base = a.row_ptr[i] as u64;
        for (k, &c) in cols.iter().enumerate() {
            t.read(in_idx + (base + k as u64) * 4, IDX);
            t.read(in_val + (base + k as u64) * 8, F64);
            let dst = col_start[c as usize] + cursor[c as usize];
            cursor[c as usize] += 1;
            t.write(out_row + dst * 4, IDX);
            t.write(out_val + dst * 8, F64);
        }
    }
    t
}

/// Forward substitution (serial SpTRSV): the loop order of
/// [`opm_sparse::sptrsv_serial`] — like SpMV but the gathered vector is
/// the output `x` itself (the dependency that kills MLP).
pub fn sptrsv_trace(l: &CsrMatrix) -> Trace {
    let gathers: usize = (0..l.rows)
        .map(|i| l.row(i).0.iter().filter(|&&c| (c as usize) < i).count())
        .sum();
    let mut t = Trace::with_capacity(3 * l.rows + 2 * l.nnz() + gathers);
    let ptr0 = 0u64;
    let idx0 = ptr0 + (l.row_ptr.len() as u64) * 8;
    let val0 = idx0 + (l.col_idx.len() as u64) * 4;
    let b0 = val0 + (l.vals.len() as u64) * 8;
    let x0 = b0 + (l.rows as u64) * 8;
    for i in 0..l.rows {
        t.read(ptr0 + (i as u64) * 8, PTR);
        t.read(b0 + (i as u64) * 8, F64);
        let (cols, _) = l.row(i);
        let base = l.row_ptr[i] as u64;
        for (k, &c) in cols.iter().enumerate() {
            t.read(idx0 + (base + k as u64) * 4, IDX);
            t.read(val0 + (base + k as u64) * 8, F64);
            if (c as usize) < i {
                t.read(x0 + (c as u64) * 8, F64);
            }
        }
        t.write(x0 + (i as u64) * 8, F64);
    }
    t
}

/// One pencil-decomposed 3D FFT pass structure (Z pencils contiguous, then
/// strided Y and X gathers), matching [`opm_fft::fft3d()`]'s access order at
/// pencil granularity (butterfly-internal reuse folded to `log n` touches).
pub fn fft3d_trace(n: usize) -> Trace {
    let elem = 16u32; // complex
    let log_n = (n as f64).log2().ceil().max(1.0) as u64;
    let z_sweeps = log_n.min(3) as usize;
    let mut t = Trace::with_capacity(n * n * n * (2 * z_sweeps + 4));
    let at = |x: usize, y: usize, z: usize| (((x * n + y) * n + z) as u64) * 16;
    // Z pass: contiguous pencils, log n sweeps each.
    for x in 0..n {
        for y in 0..n {
            for _pass in 0..z_sweeps {
                for z in 0..n {
                    t.read(at(x, y, z), elem);
                    t.write(at(x, y, z), elem);
                }
            }
        }
    }
    // Y pass: stride-n gathers.
    for x in 0..n {
        for z in 0..n {
            for y in 0..n {
                t.read(at(x, y, z), elem);
            }
            for y in 0..n {
                t.write(at(x, y, z), elem);
            }
        }
    }
    // X pass: stride-n² gathers.
    for y in 0..n {
        for z in 0..n {
            for x in 0..n {
                t.read(at(x, y, z), elem);
            }
            for x in 0..n {
                t.write(at(x, y, z), elem);
            }
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use opm_memsim::reuse_histogram;
    use opm_sparse::{MatrixKind, MatrixSpec};

    #[test]
    fn every_twin_is_sized_exactly() {
        let m = MatrixSpec::new(MatrixKind::RandomUniform, 512, 4096, 4).build();
        let lower = m.to_lower_triangular();
        for (name, t) in [
            ("triad", stream_triad_trace(1000, 3)),
            ("spmv", spmv_trace(&m, 2)),
            ("gemm", gemm_blocked_trace(20, 8)),
            ("gemm untiled", gemm_blocked_trace(12, 12)),
            ("stencil", stencil_trace(2 * opm_stencil::HALF + 5)),
            ("sptrans", sptrans_trace(&m)),
            ("sptrsv", sptrsv_trace(&lower)),
            ("fft", fft3d_trace(8)),
            ("fft small", fft3d_trace(2)),
        ] {
            assert_eq!(t.accesses.capacity(), t.len(), "{name}");
        }
    }

    #[test]
    fn stream_trace_counts() {
        let t = stream_triad_trace(100, 2);
        assert_eq!(t.len(), 2 * 300);
        assert_eq!(t.bytes(), 2 * 300 * 8);
    }

    #[test]
    fn stream_trace_reuse_is_footprint_sized() {
        // Second pass re-touches everything: finite reuse ≈ footprint.
        let n = 512;
        let t = stream_triad_trace(n, 2);
        let h = reuse_histogram(&t);
        let footprint_lines = (3 * n * 8 / 64) as u64;
        // A cache of the whole footprint captures the second pass.
        assert!(h.hit_ratio(footprint_lines + 8) > 0.45);
        // A half-footprint cache captures only intra-line locality.
        let small = h.hit_ratio(footprint_lines / 4);
        assert!(small < h.hit_ratio(footprint_lines + 8));
    }

    #[test]
    fn spmv_trace_structure_drives_gather_locality() {
        // The banded matrix's x-gathers hit in a small cache; the random
        // matrix's don't — the mechanism behind the paper's structure heat
        // maps, measured on real traces.
        let n = 4096;
        let banded = MatrixSpec::new(MatrixKind::Banded { half_band: 8 }, n, 8 * n, 1).build();
        let random = MatrixSpec::new(MatrixKind::RandomUniform, n, 8 * n, 1).build();
        let hb = reuse_histogram(&spmv_trace(&banded, 1));
        let hr = reuse_histogram(&spmv_trace(&random, 1));
        let small_cache_lines = 64; // 4 KiB
        assert!(
            hb.hit_ratio(small_cache_lines) > hr.hit_ratio(small_cache_lines) + 0.05,
            "banded {} vs random {}",
            hb.hit_ratio(small_cache_lines),
            hr.hit_ratio(small_cache_lines)
        );
    }

    #[test]
    fn spmv_trace_matches_profile_tier_working_set() {
        // The analytic profile's gather tier working set should predict the
        // capacity where the trace's hit ratio saturates.
        let n = 2048;
        let band = 8usize;
        let m = MatrixSpec::new(MatrixKind::Banded { half_band: band }, n, 6 * n, 2).build();
        let stats = m.stats();
        let prof = opm_sparse::spmv_profile(stats.rows, stats.nnz, stats.avg_col_span, 8);
        let gather_ws = prof.phases[0].tiers[1].working_set;
        // Within one pass, a cache of ~the gather working set captures the
        // x reuse.
        let h = reuse_histogram(&spmv_trace(&m, 1));
        let at_ws = h.hit_ratio((gather_ws / 64.0).ceil() as u64 * 4);
        let tiny = h.hit_ratio(2);
        assert!(at_ws > tiny + 0.2, "ws {at_ws} vs tiny {tiny}");
    }

    #[test]
    fn gemm_trace_tile_working_set_is_visible() {
        // With tiling, a cache holding ~3 tiles captures most traffic; the
        // same cache on the untiled (tile = n) trace captures much less.
        let n = 48;
        let tile = 8;
        let tiled = reuse_histogram(&gemm_blocked_trace(n, tile));
        let untiled = reuse_histogram(&gemm_blocked_trace(n, n));
        // Register-level reuse keeps both hit ratios high; the *miss*
        // ratio — what escapes a tile-sized cache — is what tiling cuts.
        let tile_ws_lines = (3 * tile * tile * 8 / 64) as u64 * 2;
        let miss = |h: &opm_memsim::ReuseHistogram| 1.0 - h.hit_ratio(tile_ws_lines);
        assert!(
            miss(&untiled) > 2.0 * miss(&tiled),
            "untiled miss {} vs tiled miss {}",
            miss(&untiled),
            miss(&tiled)
        );
    }

    #[test]
    fn stencil_trace_has_strong_neighbor_reuse() {
        let n = 2 * opm_stencil::HALF + 6;
        let h = reuse_histogram(&stencil_trace(n));
        // 49 reads per cell, each cell read ~49 times across neighbors: a
        // plane-sized cache captures nearly everything.
        let plane_lines = ((n * n * 8 * 20) / 64) as u64;
        assert!(
            h.hit_ratio(plane_lines) > 0.8,
            "{}",
            h.hit_ratio(plane_lines)
        );
    }

    #[test]
    fn sptrsv_trace_gathers_from_its_own_output() {
        // The x-vector appears both as writes and reads; reuse of x is
        // short-range for banded systems.
        let banded = MatrixSpec::new(MatrixKind::Banded { half_band: 4 }, 2048, 12288, 5)
            .build()
            .to_lower_triangular();
        let random = MatrixSpec::new(MatrixKind::RandomUniform, 2048, 12288, 5)
            .build()
            .to_lower_triangular();
        let hb = reuse_histogram(&sptrsv_trace(&banded));
        let hr = reuse_histogram(&sptrsv_trace(&random));
        assert!(
            hb.hit_ratio(64) > hr.hit_ratio(64),
            "banded x-reuse should be tighter"
        );
    }

    #[test]
    fn sptrans_trace_has_little_reuse() {
        // SpTRANS "has less data reuse" (§4.1.2): a mid-size cache helps it
        // far less than it helps SpMV on the same matrix.
        let m = MatrixSpec::new(MatrixKind::RandomUniform, 4096, 32768, 6).build();
        let h_trans = reuse_histogram(&sptrans_trace(&m));
        let h_spmv = reuse_histogram(&spmv_trace(&m, 2));
        let lines = 2048; // 128 KiB
        assert!(
            h_spmv.hit_ratio(lines) > h_trans.hit_ratio(lines),
            "spmv {} vs sptrans {}",
            h_spmv.hit_ratio(lines),
            h_trans.hit_ratio(lines)
        );
    }

    #[test]
    fn fft_trace_z_pass_is_local_x_pass_is_not() {
        let n = 16;
        let t = fft3d_trace(n);
        let h = reuse_histogram(&t);
        // Pencil-sized cache captures the Z-pass repeats but not the
        // strided X gathers; a grid-sized cache captures everything finite.
        let pencil_lines = (n * 16 / 64 + 2) as u64;
        let grid_lines = (n * n * n * 16 / 64 + 16) as u64;
        assert!(h.hit_ratio(grid_lines) > h.hit_ratio(pencil_lines) + 0.2);
        assert!(h.hit_ratio(pencil_lines) > 0.2);
    }

    #[test]
    fn traces_feed_the_hierarchy_simulator() {
        use opm_core::platform::{EdramMode, OpmConfig};
        use opm_memsim::HierarchySim;
        let m = MatrixSpec::new(MatrixKind::Banded { half_band: 4 }, 1024, 6144, 3).build();
        let t = spmv_trace(&m, 2);
        let mut sim = HierarchySim::for_config(OpmConfig::Broadwell(EdramMode::On), 1024);
        let r = sim.run(&t);
        assert_eq!(r.accesses, t.accesses.line_touches());
        assert!(r.on_package_ratio() > 0.5);
    }
}
