//! `memsim`: the kernel trace twins of `opm_kernels::traces` (blocked
//! GEMM, SpMV on a seeded corpus matrix, iso3dfd stencil, STREAM triad)
//! run through `HierarchySim::for_config(c, 1024)` for all six OPM
//! configurations, plus `reuse_histogram` of each trace.
//!
//! Footprints lie on both sides of the milli-scaled eDRAM (128 KiB) and
//! MCDRAM (16 MiB): GEMM (75 KiB) below both, SpMV (~3.5 MiB) and the
//! stencil (1.1 MiB) between, the triad (16.5 MiB) above both.

use crate::calib;
use crate::stats::{self, Fnv, Metrics, OpTime, Outcome};
use crate::{Args, Report, Window};
use opm_core::platform::OpmConfig;
use opm_kernels::traces::{gemm_blocked_trace, spmv_trace, stencil_trace, stream_triad_trace};
use opm_memsim::{reuse_histogram, HierarchySim, SimResult, Trace};
use opm_sparse::gen::{MatrixKind, MatrixSpec};
use std::path::Path;
use std::time::Instant;

/// Capacity divisor: the milli-machine.
const SCALE: u64 = 1024;

/// Span names of the per-configuration runs, in `configs()` order.
const RUN_SPANS: [&str; 6] = [
    "memsim.run.brd-no-edram",
    "memsim.run.brd-edram",
    "memsim.run.knl-ddr",
    "memsim.run.knl-cache",
    "memsim.run.knl-flat",
    "memsim.run.knl-hybrid",
];

fn configs() -> Vec<OpmConfig> {
    let c = crate::all_configs();
    debug_assert!(c.iter().zip(RUN_SPANS).all(|(c, s)| s.ends_with(c.label())));
    c
}

/// Trace sizes. They are fixed so that every seed costs the same work;
/// the seed generates the SpMV matrix, a uniform-random corpus-family
/// matrix of fixed order and density.
struct Sizes {
    gemm: (usize, usize),
    spmv: MatrixSpec,
    stencil: usize,
    triad: usize,
}

impl Sizes {
    fn from_seed(seed: u64) -> Sizes {
        Sizes {
            gemm: (56, 16),
            spmv: MatrixSpec::new(MatrixKind::RandomUniform, 1 << 14, 1 << 18, seed),
            stencil: 36,
            triad: 720_000,
        }
    }

    /// The fixed canary inputs whose counters are pinned.
    fn canary() -> Sizes {
        Sizes {
            gemm: (32, 8),
            spmv: MatrixSpec::new(MatrixKind::RandomUniform, 4096, 40_000, 7),
            stencil: 20,
            triad: 20_000,
        }
    }

    fn expand(&self) -> Vec<Trace> {
        let a = self.spmv.build();
        vec![
            gemm_blocked_trace(self.gemm.0, self.gemm.1),
            spmv_trace(&a, 1),
            stencil_trace(self.stencil),
            stream_triad_trace(self.triad, 1),
        ]
    }

    fn describe(&self) -> String {
        format!(
            "gemm n={} tile={}; spmv {} rows={} nnz~{} seed={}; stencil n={}; triad n={}",
            self.gemm.0,
            self.gemm.1,
            self.spmv.kind.label(),
            self.spmv.rows,
            self.spmv.nnz_target,
            self.spmv.seed,
            self.stencil,
            self.triad
        )
    }
}

/// Lines served by on-package memory: victim (eDRAM) hits, flat MCDRAM,
/// and hits in MCDRAM cache levels.
fn opm_lines(r: &SimResult) -> u64 {
    let cached: u64 = r
        .levels
        .iter()
        .filter(|l| l.name.starts_with("MCDRAM"))
        .map(|l| l.hits)
        .sum();
    r.victim_hits + r.opm_flat + cached
}

/// Counters of one op.
#[derive(Clone, PartialEq)]
struct OpCounts {
    line_touches: u64,
    dram: [u64; 6],
    opm: [u64; 6],
    reuse_lines: u64,
    digest: u64,
}

/// One op: every trace through every configuration on freshly built
/// hierarchies, then the reuse histogram of every trace. Returns the
/// counters, the op time and the first violated invariant, if any.
fn op(traces: &[Trace]) -> (OpCounts, OpTime, Result<(), String>) {
    let mut counts = OpCounts {
        line_touches: 0,
        dram: [0; 6],
        opm: [0; 6],
        reuse_lines: 0,
        digest: 0,
    };
    let mut digest = Fnv::default();
    let mut check = Ok(());
    let (_, t) = stats::time_op(|| {
        for (ci, config) in configs().into_iter().enumerate() {
            for (ti, trace) in traces.iter().enumerate() {
                let (mut sim, _) =
                    stats::timed("memsim.build", || HierarchySim::for_config(config, SCALE));
                let (r, _) = stats::timed(RUN_SPANS[ci], || sim.run(trace).clone());
                if let (Err(e), true) = (r.reconcile(), check.is_ok()) {
                    check = Err(format!("{} trace {ti}: {e}", config.label()));
                }
                if ci == 0 {
                    counts.line_touches += r.accesses;
                }
                counts.dram[ci] += r.dram;
                counts.opm[ci] += opm_lines(&r);
                digest.u64(r.accesses).u64(r.victim_hits).u64(r.opm_flat);
                digest.u64(r.dram).u64(r.dram_writebacks);
                for l in &r.levels {
                    digest
                        .u64(l.hits)
                        .u64(l.misses)
                        .u64(l.evictions)
                        .u64(l.writebacks);
                }
            }
        }
        for trace in traces {
            let (h, _) = stats::timed("memsim.reuse", || reuse_histogram(trace));
            counts.reuse_lines += h.total;
            digest.u64(h.total).u64(h.cold).u64(h.finite.len() as u64);
            for &(dist, n) in &h.finite {
                digest.u64(dist).u64(n);
            }
        }
    });
    counts.digest = digest.0;
    (counts, t, check)
}

fn check_canary(path: &Path, record: bool) -> Result<(), String> {
    let (counts, _, check) = op(&Sizes::canary().expand());
    check?;
    let line = format!("{:016x}", counts.digest);
    if record {
        let text = format!(
            "# Counter digest (FNV-1a 64) of the fixed memsim canary inputs.\n\
             # Regenerate with `python3 perfbench/run.py --record`.\n{line}\n"
        );
        return std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()));
    }
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let pinned = text
        .lines()
        .find(|l| !l.starts_with('#'))
        .unwrap_or("")
        .trim();
    if pinned == line {
        Ok(())
    } else {
        Err(format!("canary counter digest {line} != pinned {pinned}"))
    }
}

pub fn run(a: &Args, w: &Window) -> Result<Report, String> {
    let mut outcome = Outcome::default();
    let sizes = Sizes::from_seed(a.seed);
    eprintln!("memsim inputs: {}", sizes.describe());

    // Set-up: input generation (trace expansion) and the canary check.
    let t = Instant::now();
    let traces = sizes.expand();
    let expand_ms = t.elapsed().as_secs_f64() * 1e3;
    if let Err(e) = check_canary(&a.digests.join("memsim.txt"), a.record) {
        outcome.fail(format!("canary: {e}"));
    }
    let trace_accesses: u64 = traces.iter().map(|t| t.len() as u64).sum();
    let mut inputs = Fnv::default();
    for t in &traces {
        for acc in &t.accesses {
            inputs.u64(acc.addr).u64(u64::from(acc.len));
        }
    }

    let mut first: Option<OpCounts> = None;
    let mut same = |c: &OpCounts| -> Result<(), String> {
        match &first {
            None => {
                first = Some(c.clone());
                Ok(())
            }
            Some(f) if f == c => Ok(()),
            Some(_) => Err("counters differ between ops".to_string()),
        }
    };
    let mut ms = stats::Samples::new(calib::L1_HEAVY);
    let setup_s = ms.setup_s();
    let t0 = Instant::now();
    while t0.elapsed() < w.untraced || ms.count() == 0 {
        let (c, t, check) = op(&traces);
        outcome.record(check.and_then(|_| same(&c)));
        ms.push(t, 6 * c.line_touches);
    }
    let window = ms.summary();
    let mut m = Metrics::default();
    let mut traced = stats::Samples::new(calib::L1_HEAVY);
    if a.trace {
        stats::set_tracing(true);
        let t1 = Instant::now();
        while t1.elapsed() < w.traced || traced.count() == 0 {
            stats::set_op(traced.count() as u32);
            let (c, t, check) = op(&traces);
            outcome.record(check.and_then(|_| same(&c)));
            traced.push(t, 6 * c.line_touches);
        }
        stats::set_tracing(false);
    }
    let c = first.expect("at least one op");
    if !a.trace {
        crate::set_end_to_end(&mut m, &window, setup_s);
    } else {
        let traced = traced.summary();
        m.set("traces.expand_ms", expand_ms, "ms");
        m.set("traces.accesses", trace_accesses as f64, "count");
        let build = stats::median_ms("memsim.build");
        let reuse = stats::median_ms("memsim.reuse");
        m.set("memsim.build_ms", build, "ms");
        let mut run_total = 0.0;
        for (i, config) in configs().into_iter().enumerate() {
            let run = stats::median_ms(RUN_SPANS[i]);
            run_total += run;
            m.set(format!("memsim.run_ms.{}", config.label()), run, "ms");
            m.set(
                format!("memsim.dram_lines.{}", config.label()),
                c.dram[i] as f64,
                "count",
            );
            m.set(
                format!("memsim.opm_lines.{}", config.label()),
                c.opm[i] as f64,
                "count",
            );
        }
        m.set("memsim.reuse_ms", reuse, "ms");
        m.set("memsim.line_touches", c.line_touches as f64, "count");
        m.set("memsim.reuse_lines", c.reuse_lines as f64, "count");
        m.set(
            "unattributed_ms",
            traced.wall_ms - build - run_total - reuse,
            "ms",
        );
        crate::set_overhead(&mut m, &window, traced.wall_ms);
    }
    let mut exact = vec![
        ("traces.accesses".to_string(), trace_accesses),
        ("memsim.line_touches".to_string(), c.line_touches),
        ("memsim.reuse_lines".to_string(), c.reuse_lines),
        ("memsim.counter_digest".to_string(), c.digest),
    ];
    for (i, config) in configs().into_iter().enumerate() {
        exact.push((format!("memsim.dram_lines.{}", config.label()), c.dram[i]));
        exact.push((format!("memsim.opm_lines.{}", config.label()), c.opm[i]));
    }
    Ok(Report {
        outcome,
        metrics: m,
        exact,
        inputs_digest: inputs.0,
        engine_threads: 1,
        window: window.json(),
    })
}
