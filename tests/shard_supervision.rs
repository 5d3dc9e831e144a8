//! End-to-end supervision tests for `opm campaign`: a sharded campaign
//! whose workers are killed or hung mid-run by injected process faults
//! must converge — via supervisor restarts and checkpoint resume — to
//! merged output equivalent to a fault-free single-process run, and a
//! permanently failing shard must be quarantined with a structured
//! error row and a nonzero campaign exit.
//!
//! Equivalence is asserted byte-for-byte on every sweep CSV and on
//! `run_errors.csv`. `run_manifest.csv` is compared on its
//! process-topology-independent columns (figure, status, points,
//! failures): wall time and points/sec are legitimately different
//! across process counts.

use opm_repro::core::telemetry::parse_prom;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::{Once, OnceLock};

/// Three fast figures spanning both machines; fig06 contributes
/// zero-point stages so empty shards are exercised too.
const FIGS: &str = "fig06_stepping_model,fig12_stream_broadwell,fig23_stream_knl";

/// Build (once) and locate the `opm` binary. Root-package integration
/// tests get no `CARGO_BIN_EXE` for another crate's binary, so build it
/// through cargo and derive the path from the target directory.
fn opm_exe() -> PathBuf {
    static BUILD: Once = Once::new();
    let target = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .parent()
        .expect("target dir")
        .to_path_buf();
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    BUILD.call_once(|| {
        let mut cmd = Command::new(env!("CARGO"));
        cmd.args(["build", "-p", "opm-bench", "--bin", "opm"])
            .current_dir(env!("CARGO_MANIFEST_DIR"));
        if profile == "release" {
            cmd.arg("--release");
        }
        let status = cmd.status().expect("run cargo build");
        assert!(status.success(), "building opm failed");
    });
    target.join(profile).join("opm")
}

fn test_dir(tag: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join("shard_supervision")
        .join(tag);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create test dir");
    dir
}

/// Run `opm` with a scrubbed OPM_* environment plus `envs`, capturing
/// output. Returns (success, combined stdout+stderr).
fn run_opm(args: &[&str], envs: &[(&str, &str)]) -> (bool, String) {
    let mut cmd = Command::new(opm_exe());
    cmd.args(args).current_dir(env!("CARGO_MANIFEST_DIR"));
    for var in [
        "OPM_RESULTS",
        "OPM_FAULT_SPEC",
        "OPM_CORPUS",
        "OPM_TELEMETRY",
        "OPM_HEARTBEAT",
        "OPM_HEARTBEAT_MS",
        "OPM_SHARD",
        "OPM_SHARD_ATTEMPT",
        "OPM_RUN_ID",
        "OPM_WORKER_EXE",
    ] {
        cmd.env_remove(var);
    }
    cmd.env("OPM_REDUCED", "1");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let out = cmd.output().expect("spawn opm");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

/// Fault-free single-process reference run, produced once and shared by
/// every equivalence assertion.
fn baseline() -> &'static Path {
    static DIR: OnceLock<PathBuf> = OnceLock::new();
    DIR.get_or_init(|| {
        let dir = test_dir("baseline");
        let (ok, log) = run_opm(
            &["figures", "--shard", "0/1", "--only", FIGS],
            &[("OPM_RESULTS", dir.to_str().unwrap())],
        );
        assert!(ok, "baseline worker failed:\n{log}");
        dir
    })
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// The process-topology-independent projection of `run_manifest.csv`:
/// figure, status, points, failures. `resumed` normalizes to `ok` —
/// a figure completed before its worker was killed is legitimately
/// reported as resumed by the restarted incarnation; both are
/// successful terminal states.
fn manifest_key_columns(text: &str) -> Vec<String> {
    text.lines()
        .map(|line| {
            let c: Vec<&str> = line.split(',').collect();
            let status = if c[1] == "resumed" { "ok" } else { c[1] };
            format!("{},{status},{},{}", c[0], c[3], c[5])
        })
        .collect()
}

/// Assert a merged campaign dir is equivalent to the baseline: every
/// baseline CSV byte-identical except the manifest, which matches on
/// its key columns.
fn assert_equivalent(campaign: &Path, context: &str) {
    let base = baseline();
    let mut compared = 0;
    for entry in std::fs::read_dir(base).expect("read baseline").flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if !name.ends_with(".csv") || entry.path().is_dir() {
            continue;
        }
        if name == "run_manifest.csv" {
            assert_eq!(
                manifest_key_columns(&read(&entry.path())),
                manifest_key_columns(&read(&campaign.join(&name))),
                "{context}: run_manifest key columns differ"
            );
        } else {
            assert_eq!(
                read(&entry.path()),
                read(&campaign.join(&name)),
                "{context}: {name} differs from the fault-free single-process run"
            );
        }
        compared += 1;
    }
    assert!(compared >= 5, "{context}: only {compared} files compared");
}

/// A shard worker's flight-recorder dump: the supervisor pins
/// `OPM_RUN_ID=shard-<label>` and points `OPM_RESULTS` at the shard
/// results dir, so a dying worker leaves
/// `shards/shard-<label>/telemetry/flight-shard-<label>.jsonl`.
fn flight_path(campaign: &Path, index: usize, count: usize) -> PathBuf {
    campaign
        .join("shards")
        .join(format!("shard-{index}of{count}"))
        .join("telemetry")
        .join(format!("flight-shard-{index}of{count}.jsonl"))
}

/// Assert a shard's flight dump exists, ends with a `flight_dump`
/// marker (for `reason`, when pinned), and that its ring holds a
/// figure>stage>point span path. The recorder keeps the *last* flight:
/// a shard that recovered via restart has its failure dump overwritten
/// by the successful incarnation's periodic dumps, so only shards whose
/// final attempt failed (quarantine) pin the failure reason.
/// Returns whether the ring held a per-point span (figures whose
/// stages evaluate without point spans, like fig06, legitimately
/// record none).
fn assert_flight_dump(campaign: &Path, index: usize, count: usize, reason: Option<&str>) -> bool {
    let path = flight_path(campaign, index, count);
    let text = read(&path);
    let last = text.lines().last().unwrap_or_default();
    assert!(
        last.contains("flight_dump"),
        "{}: dump marker missing: {last}",
        path.display()
    );
    if let Some(reason) = reason {
        assert!(
            last.contains(&format!("\"reason\":\"{reason}\"")),
            "{}: final dump is not the {reason} dump: {last}",
            path.display()
        );
        assert!(
            text.lines()
                .any(|l| l.contains("\"cat\":\"point\"") && l.contains('>')),
            "{}: no figure>stage>point span in the failure ring:\n{text}",
            path.display()
        );
    }
    text.lines()
        .any(|l| l.contains("\"cat\":\"point\"") && l.contains('>'))
}

/// Every shard that died under fault injection must have left a flight
/// dump; at least `min` shards must have. Shards whose slice never
/// reached the faulted point legitimately have none.
fn assert_flight_dumps(campaign: &Path, count: usize, min: usize) {
    let dumped: Vec<usize> = (0..count)
        .filter(|&i| flight_path(campaign, i, count).exists())
        .collect();
    assert!(
        dumped.len() >= min,
        "only {dumped:?} of {count} shards left flight dumps"
    );
    let with_points = dumped
        .into_iter()
        .filter(|&i| assert_flight_dump(campaign, i, count, None))
        .count();
    assert!(
        with_points >= 1,
        "no flight ring recorded a figure>stage>point span"
    );
}

/// Sum every series of `metric` in a merged metrics.prom.
fn counter_sum(campaign: &Path, metric: &str) -> u64 {
    let path = campaign.join("telemetry").join("metrics.prom");
    parse_prom(&read(&path))
        .expect("parse metrics.prom")
        .into_iter()
        .filter(|(m, _, _)| m == metric)
        .map(|(_, _, v)| v)
        .sum()
}

#[test]
fn killed_workers_resume_to_byte_identical_output_across_shard_counts() {
    for shards in ["1", "2", "4"] {
        let dir = test_dir(&format!("kill_{shards}"));
        let (ok, log) = run_opm(
            &[
                "campaign",
                "--shards",
                shards,
                "--only",
                FIGS,
                "--out",
                dir.to_str().unwrap(),
                "--backoff-ms",
                "20",
            ],
            // Every worker is SIGKILL-equivalent (exit 137) at sweep
            // point 2 of its first incarnation; restarts resume clean.
            &[("OPM_FAULT_SPEC", "kill@point:2")],
        );
        assert!(ok, "campaign --shards {shards} failed:\n{log}");
        assert!(
            log.contains("restart"),
            "--shards {shards}: no restart logged:\n{log}"
        );
        assert_equivalent(&dir, &format!("--shards {shards} after kill"));
        assert!(
            counter_sum(&dir, "opm_shard_restarts_total") >= 1,
            "--shards {shards}: restart counter missing"
        );
        assert_eq!(
            counter_sum(&dir, "opm_shard_quarantined_total"),
            0,
            "--shards {shards}: nothing should be quarantined"
        );
        // Every killed incarnation dumped its flight ring on the way
        // out; the dump names the span it died inside.
        let n: usize = shards.parse().unwrap();
        assert_flight_dumps(&dir, n, 1);
    }
}

#[test]
fn hung_worker_trips_watchdog_and_recovers() {
    let dir = test_dir("hang");
    let (ok, log) = run_opm(
        &[
            "campaign",
            "--shards",
            "2",
            "--only",
            FIGS,
            "--out",
            dir.to_str().unwrap(),
            "--watchdog-ms",
            "700",
            "--heartbeat-ms",
            "80",
            "--backoff-ms",
            "20",
        ],
        // The worker wedges at point 1 while its heartbeat goes silent;
        // only the stale-heartbeat watchdog can detect this.
        &[("OPM_FAULT_SPEC", "hang@point:1")],
    );
    assert!(ok, "campaign with hung workers failed:\n{log}");
    assert!(log.contains("hang"), "watchdog never fired:\n{log}");
    assert_equivalent(&dir, "after hung-worker recovery");
    assert!(counter_sum(&dir, "opm_shard_restarts_total") >= 1);
    assert_eq!(counter_sum(&dir, "opm_shard_quarantined_total"), 0);
    // The wedged worker dumped its ring before going silent, so the
    // watchdog kill still leaves a usable post-mortem.
    assert_flight_dumps(&dir, 2, 1);
}

#[test]
fn permanently_failing_shard_is_quarantined_with_error_row() {
    let dir = test_dir("quarantine");
    let (ok, log) = run_opm(
        &[
            "campaign",
            "--shards",
            "2",
            "--only",
            "fig12_stream_broadwell,fig23_stream_knl",
            "--out",
            dir.to_str().unwrap(),
            "--max-restarts",
            "1",
            "--backoff-ms",
            "20",
        ],
        // `persist` makes the kill fire on every attempt: the restart
        // budget must run out and the campaign must report failure.
        &[("OPM_FAULT_SPEC", "kill@point:1:persist")],
    );
    assert!(!ok, "campaign must exit nonzero on quarantine:\n{log}");
    assert!(log.contains("quarantined"), "{log}");
    let errors = read(&dir.join("run_errors.csv"));
    assert!(
        errors.contains("shard/0of2,-,kill") && errors.contains("quarantined"),
        "missing structured quarantine rows:\n{errors}"
    );
    assert!(counter_sum(&dir, "opm_shard_quarantined_total") >= 1);
    let status = read(&opm_repro_status_path(&dir));
    assert!(status.contains("state=quarantined"), "{status}");
    // The quarantined shard (0of2 per the error row above) left a
    // flight dump from its final doomed attempt.
    assert_flight_dump(&dir, 0, 2, Some("kill"));
}

#[test]
fn malformed_fault_spec_from_the_environment_stops_the_campaign_before_spawning() {
    let dir = test_dir("bad_fault_spec");
    let (ok, log) = run_opm(
        &["campaign", "--shards", "1", "--out", dir.to_str().unwrap()],
        &[("OPM_FAULT_SPEC", "bogus@@")],
    );
    assert!(!ok, "a malformed spec must fail the campaign:\n{log}");
    assert!(log.contains("fault spec"), "{log}");
    assert!(!log.contains("panicked"), "{log}");
    assert!(!dir.join("shards").exists(), "no worker may start:\n{log}");
}

/// `shards/supervisor.status` (kept in sync with
/// `opm_bench::shard::status_path` — re-derived here so this test binary
/// doesn't need the bench crate's path helpers).
fn opm_repro_status_path(campaign: &Path) -> PathBuf {
    campaign.join("shards").join("supervisor.status")
}

#[test]
fn merged_histograms_are_byte_identical_across_shard_counts() {
    // Latency histograms and roofline gauges come from the
    // deterministic evaluation model and the shard assignment is
    // figure-granular, so after the typed merge the telemetry series
    // must not depend on how the campaign was partitioned.
    let mut reference: Option<String> = None;
    for shards in ["1", "2", "4"] {
        let dir = test_dir(&format!("hist_{shards}"));
        let (ok, log) = run_opm(
            &[
                "campaign",
                "--shards",
                shards,
                "--only",
                FIGS,
                "--out",
                dir.to_str().unwrap(),
            ],
            &[],
        );
        assert!(ok, "fault-free campaign --shards {shards} failed:\n{log}");
        let prom = read(&dir.join("telemetry").join("metrics.prom"));
        assert!(
            prom.starts_with("# opm-telemetry v2"),
            "--shards {shards}: merged exposition lost the v2 header"
        );
        let series: String = prom
            .lines()
            .filter(|l| l.contains("opm_point_latency_ns") || l.starts_with("opm_roofline_"))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(
            series.contains("_bucket{") && series.contains("le=\"+Inf\""),
            "--shards {shards}: no histogram series in\n{prom}"
        );
        match &reference {
            None => reference = Some(series),
            Some(r) => assert_eq!(
                r, &series,
                "--shards {shards}: merged telemetry series differ from --shards 1"
            ),
        }
    }
}

#[test]
fn merge_shards_subcommand_reconciles_an_unmerged_campaign() {
    let dir = test_dir("manual_merge");
    let (ok, log) = run_opm(
        &[
            "campaign",
            "--shards",
            "2",
            "--only",
            FIGS,
            "--out",
            dir.to_str().unwrap(),
            "--no-merge",
        ],
        &[],
    );
    assert!(ok, "campaign --no-merge failed:\n{log}");
    assert!(
        !dir.join("run_manifest.csv").exists(),
        "--no-merge must not write merged outputs"
    );
    let (ok, log) = run_opm(&["merge-shards", "--dir", dir.to_str().unwrap()], &[]);
    assert!(ok, "merge-shards failed:\n{log}");
    assert_equivalent(&dir, "merge-shards after --no-merge");
}
