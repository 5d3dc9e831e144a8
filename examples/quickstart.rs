//! Quickstart: run a kernel for real, then ask the performance model what
//! every on-package-memory configuration of the paper would do with it.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use opm_repro::core::platform::OpmConfig;
use opm_repro::core::report::TextTable;
use opm_repro::core::units::fmt_bytes;
use opm_repro::core::{PerfModel, PowerModel};
use opm_repro::dense::{gemm_parallel, gemm_profile, DenseMatrix};
use std::time::Instant;

fn main() {
    // 1. Really execute a tiled GEMM (numerics verified by the test suite).
    let n = 384;
    let tile = 64;
    let a = DenseMatrix::random(n, n, 1);
    let b = DenseMatrix::random(n, n, 2);
    let mut c = DenseMatrix::zeros(n, n);
    let t0 = Instant::now();
    gemm_parallel(1.0, &a, &b, 0.0, &mut c, tile);
    let wall = t0.elapsed();
    let flops = 2.0 * (n as f64).powi(3);
    println!(
        "executed {n}x{n} GEMM (tile {tile}) in {:.1} ms -> {:.2} GFlop/s on this host\n",
        wall.as_secs_f64() * 1e3,
        flops / wall.as_nanos() as f64
    );

    // 2. Model the same kernel, at the paper's scale, on both evaluated
    //    machines under every OPM configuration of Table 1.
    let mut table = TextTable::new(vec![
        "configuration",
        "modeled GFlop/s",
        "package W",
        "DRAM W",
    ]);
    let big_n = 8192;
    let big_tile = 384;
    for config in OpmConfig::ALL {
        let machine = config.machine();
        let platform = opm_repro::core::PlatformSpec::for_machine(machine);
        let threads = opm_repro::kernels::KernelId::Gemm.threads(machine);
        let prof = gemm_profile(big_n, big_tile, threads, platform.cores);
        let est = PerfModel::for_config(config).evaluate(&prof);
        let power = PowerModel::for_machine(machine).sample(
            &est,
            config,
            prof.total_flops(),
            prof.total_bytes(),
        );
        table.push(vec![
            config.label().to_string(),
            format!("{:.1}", est.gflops),
            format!("{:.1}", power.package_w),
            format!("{:.1}", power.dram_w),
        ]);
    }
    println!(
        "modeled {big_n}x{big_n} GEMM (tile {big_tile}, footprint {}):",
        fmt_bytes(3.0 * (big_n * big_n) as f64 * 8.0)
    );
    print!("{}", table.render());
    println!("\nnext steps: `cargo run --release -p opm-bench --bin opm -- figures` regenerates");
    println!("every table and figure of the paper into results/.");
}
