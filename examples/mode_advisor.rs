//! Mode advisor: a thin `opm-api/v1` client. Describe a workload as a
//! what-if query (kernel, problem size, platform, memory mode) and get
//! back the predicted performance, energy, and the §6 mode
//! recommendation with its guideline citation.
//!
//! ```sh
//! cargo run --release --example mode_advisor [kernel] [config]
//! OPM_SERVE_ADDR=127.0.0.1:7979 cargo run --release --example mode_advisor
//! ```
//!
//! By default the example answers in-process through the exact same
//! [`opm_bench::serve::respond`] path the `opm serve` daemon runs. Set
//! `OPM_SERVE_ADDR` to forward the request to a live daemon instead —
//! the response bytes are identical either way (the `opm-api/v1`
//! byte-identity promise).

use opm_bench::serve::{respond, Client};
use opm_core::api::{Query, QueryResult, Request, Response};
use opm_kernels::Engine;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let kernel = args.get(1).cloned().unwrap_or_else(|| "GEMM".to_string());
    let config = args
        .get(2)
        .cloned()
        .unwrap_or_else(|| "knl-flat".to_string());

    // One batched request touring the queried kernel across every KNL
    // memory mode (plus whatever config was asked for).
    let mut configs = vec![config.clone()];
    for label in ["knl-ddr", "knl-flat", "knl-cache", "knl-hybrid"] {
        if label != config {
            configs.push(label.to_string());
        }
    }
    let request = Request {
        id: 1,
        queries: configs
            .iter()
            .map(|c| Query {
                kernel: kernel.clone(),
                config: c.clone(),
                ..Query::default()
            })
            .collect(),
        shutdown: false,
    };

    let response: Response = match std::env::var("OPM_SERVE_ADDR") {
        Ok(addr) if !addr.trim().is_empty() => {
            let mut client = Client::connect(&addr)
                .unwrap_or_else(|e| panic!("connecting to opm serve at {addr}: {e}"));
            client
                .roundtrip(&request)
                .unwrap_or_else(|e| panic!("querying {addr}: {e}"))
        }
        _ => respond(Engine::global(), &request),
    };

    println!("{kernel} what-if tour (opm-api/v1):\n");
    for (q, r) in request.queries.iter().zip(&response.results) {
        match r {
            QueryResult::Ok(a) => {
                println!(
                    "  {:<12} {:>9.1} GFLOP/s  {:>8.2} ms  {:>8.2} J  -> {} ({})",
                    q.config, a.gflops, a.time_ms, a.energy_j, a.recommended_mode, a.guideline
                );
            }
            QueryResult::Err(e) => println!("  {:<12} error: {e}", q.config),
        }
    }
    if let Some(QueryResult::Ok(first)) = response.results.first() {
        println!("\n{}", first.explanation);
    }
}
