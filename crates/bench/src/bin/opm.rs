//! The `opm` CLI, the repository's one binary: figure, study and report
//! regeneration, ad-hoc model queries, guideline
//! recommendations, stepping curves, corpus inspection, and the
//! opm-api/v1 query service (`serve`/`advise`/`loadgen`). Run `opm help`
//! for usage. Exit codes: 0 success, 1 runtime failure, 2
//! usage/configuration error.

#![forbid(unsafe_code)]

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match opm_bench::cli::dispatch(&raw) {
        Ok(out) if out.is_empty() => {}
        Ok(out) => println!("{out}"),
        Err(f) => {
            eprintln!("{}", f.message);
            std::process::exit(f.code);
        }
    }
}
