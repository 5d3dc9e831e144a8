//! `opm merge-shards`: reconcile per-shard campaign outputs into a
//! single results tree equivalent to a single-process run.
//!
//! Because shard assignment is figure-granular ([`crate::shard`]), every
//! figure CSV is written wholly by exactly one shard, and the merge is a
//! deterministic file-level reconciliation:
//!
//! - **Figure CSVs** (and any other plain output file) are copied to the
//!   campaign root; the same filename appearing in two shards with
//!   different bytes is an error, never a silent last-writer-wins.
//! - **`run_manifest.csv`** keeps every shard's figure rows byte-verbatim,
//!   reordered into figure-registry order, and recomputes the `TOTAL`
//!   row with the exact formatting of
//!   [`crate::manifest::write_manifest`].
//! - **`run_errors.csv`** is the union of all shard rows plus the
//!   supervisor's shard-level rows (`shards/supervisor_errors.csv`),
//!   re-sorted by the same `(stage, point, message)` key the
//!   single-process writer uses. Quoted cells (panic messages may
//!   contain commas and newlines) are parsed per RFC 4180.
//! - **`metrics.prom`** is the typed merge of every shard's telemetry
//!   dump plus the supervisor's own counters: counters summed
//!   series-wise, gauges maxed (identical deterministic values collapse
//!   to themselves), histogram buckets summed exactly — then re-rendered
//!   through [`opm_core::telemetry::PromDump::render`], so the merged
//!   file is byte-identical to a single-process run's regardless of
//!   shard count.
//!
//! The determinism gate in `tests/shard_supervision.rs` holds merged
//! output byte-identical to a fault-free single-process run for the
//! sweep CSVs, and identical up to process-local timing columns for the
//! manifest.

use crate::manifest::ALL_FIGURES;
use crate::shard;
use opm_core::report::{atomic_write, RecordTable};
use opm_core::telemetry::PromDump;
use std::collections::BTreeMap;
use std::path::Path;

/// Parse RFC 4180 CSV text into rows of unquoted cells. Quoted cells
/// may contain commas, doubled quotes, and newlines.
fn parse_csv(text: &str) -> Result<Vec<Vec<String>>, String> {
    let mut rows = Vec::new();
    let mut row: Vec<String> = Vec::new();
    let mut cell = String::new();
    let mut quoted = false;
    let mut chars = text.chars().peekable();
    let mut any = false;
    while let Some(c) = chars.next() {
        any = true;
        if quoted {
            match c {
                '"' if chars.peek() == Some(&'"') => {
                    chars.next();
                    cell.push('"');
                }
                '"' => quoted = false,
                _ => cell.push(c),
            }
        } else {
            match c {
                '"' if cell.is_empty() => quoted = true,
                ',' => {
                    row.push(std::mem::take(&mut cell));
                    any = false;
                }
                '\r' => {}
                '\n' => {
                    row.push(std::mem::take(&mut cell));
                    rows.push(std::mem::take(&mut row));
                    any = false;
                }
                _ => cell.push(c),
            }
        }
    }
    if quoted {
        return Err("unterminated quoted cell".into());
    }
    if any || !cell.is_empty() || !row.is_empty() {
        row.push(cell);
        rows.push(row);
    }
    Ok(rows)
}

/// Registry sort key: figures in `ALL_FIGURES` order, unknown names
/// after, alphabetically.
fn registry_key(name: &str) -> (usize, String) {
    match ALL_FIGURES.iter().position(|f| f.name == name) {
        Some(i) => (i, String::new()),
        None => (usize::MAX, name.to_string()),
    }
}

/// Merge the per-shard `run_manifest.csv` files: shard figure rows kept
/// verbatim in registry order, `TOTAL` recomputed across all shards.
fn merge_manifests(manifests: &[(String, String)]) -> Result<String, String> {
    const HEADER: &str = "figure,status,wall_s,points,points_per_s,failures";
    let mut rows: Vec<(usize, String, String)> = Vec::new();
    let (mut wall_s, mut points, mut failures) = (0.0f64, 0u64, 0u64);
    for (label, text) in manifests {
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == HEADER => {}
            other => {
                return Err(format!(
                    "shard {label}: unexpected run_manifest header {other:?}"
                ))
            }
        }
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != 6 {
                return Err(format!("shard {label}: malformed manifest row {line:?}"));
            }
            if cells[0] == "TOTAL" {
                continue; // recomputed below
            }
            let parse = |i: usize| -> Result<f64, String> {
                cells[i]
                    .parse()
                    .map_err(|_| format!("shard {label}: bad number in {line:?}"))
            };
            wall_s += parse(2)?;
            points += parse(3)? as u64;
            failures += parse(5)? as u64;
            let (pos, tie) = registry_key(cells[0]);
            rows.push((pos, tie, line.to_string()));
        }
    }
    rows.sort();
    let mut out = format!("{HEADER}\n");
    for (_, _, line) in &rows {
        out.push_str(line);
        out.push('\n');
    }
    let pps = if wall_s > 0.0 {
        points as f64 / wall_s
    } else {
        0.0
    };
    out.push_str(&format!(
        "TOTAL,-,{wall_s:.6},{points},{pps:.1},{failures}\n"
    ));
    Ok(out)
}

/// Union CSV files sharing one schema into a single sorted table.
/// `key` maps a row to its sort key; rows are deduplicated only if
/// byte-identical and from the same file position (i.e. never — unions
/// keep every row, matching the single-process writer which also never
/// deduplicates).
fn merge_csv_union(
    sources: &[(String, String)],
    key: fn(&[String]) -> (String, usize, String),
) -> Result<Option<RecordTable>, String> {
    let mut columns: Option<Vec<String>> = None;
    let mut rows: Vec<Vec<String>> = Vec::new();
    for (label, text) in sources {
        let parsed = parse_csv(text).map_err(|e| format!("{label}: {e}"))?;
        let mut it = parsed.into_iter();
        let Some(header) = it.next() else {
            return Err(format!("{label}: empty CSV"));
        };
        match &columns {
            None => columns = Some(header),
            Some(c) if *c == header => {}
            Some(c) => return Err(format!("{label}: header {header:?} does not match {c:?}")),
        }
        rows.extend(it);
    }
    let Some(columns) = columns else {
        return Ok(None);
    };
    for row in &rows {
        if row.len() != columns.len() {
            return Err(format!(
                "row width {} != {}: {row:?}",
                row.len(),
                columns.len()
            ));
        }
    }
    rows.sort_by_cached_key(|r| key(r));
    let mut t = RecordTable::new(columns);
    for row in rows {
        t.push(row);
    }
    Ok(Some(t))
}

/// The `(stage, point, message)` ordering of
/// [`crate::manifest::write_run_errors`]; `-` sorts last like
/// `usize::MAX` does there.
fn run_errors_key(row: &[String]) -> (String, usize, String) {
    let point = match row.get(1).map(String::as_str) {
        Some("-") | None => usize::MAX,
        Some(p) => p.parse().unwrap_or(usize::MAX),
    };
    (
        row.first().cloned().unwrap_or_default(),
        point,
        row.get(6).cloned().unwrap_or_default(),
    )
}

/// Whole-row lexicographic ordering for schema-agnostic unions
/// (quarantine manifests).
fn whole_row_key(row: &[String]) -> (String, usize, String) {
    (row.join("\u{1f}"), 0, String::new())
}

/// Reconcile all shard results under `<campaign>/shards/` into the
/// campaign root. Returns a human-readable summary.
pub fn merge_shards(campaign: &Path) -> Result<String, String> {
    let shards = shard::discover_shards(campaign)?;
    let mut copied = 0usize;
    let mut owners: BTreeMap<String, (String, Vec<u8>)> = BTreeMap::new();
    let mut manifests: Vec<(String, String)> = Vec::new();
    let mut errors: Vec<(String, String)> = Vec::new();
    let mut quarantines: Vec<(String, String)> = Vec::new();
    let mut prom = PromDump::default();

    for (spec, dir) in &shards {
        let label = spec.label();
        let entries = std::fs::read_dir(dir)
            .map_err(|e| format!("shard {label}: reading {}: {e}", dir.display()))?;
        for entry in entries.flatten() {
            let name = entry.file_name().to_string_lossy().into_owned();
            let path = entry.path();
            if path.is_dir() || name.starts_with('.') {
                continue; // .checkpoint/, telemetry/, stray tmp files
            }
            let read = || {
                std::fs::read(&path)
                    .map_err(|e| format!("shard {label}: reading {}: {e}", path.display()))
            };
            match name.as_str() {
                "run_manifest.csv" => manifests.push((
                    label.clone(),
                    String::from_utf8_lossy(&read()?).into_owned(),
                )),
                "run_errors.csv" => errors.push((
                    format!("shard {label} run_errors.csv"),
                    String::from_utf8_lossy(&read()?).into_owned(),
                )),
                "quarantine_manifest.csv" => quarantines.push((
                    format!("shard {label} quarantine_manifest.csv"),
                    String::from_utf8_lossy(&read()?).into_owned(),
                )),
                _ => {
                    let bytes = read()?;
                    match owners.get(&name) {
                        Some((owner, prior)) if *prior != bytes => {
                            return Err(format!(
                                "conflict: {name} written by shard {owner} and shard {label} \
                                 with different contents"
                            ));
                        }
                        Some(_) => {}
                        None => {
                            owners.insert(name, (label.clone(), bytes));
                        }
                    }
                }
            }
        }
        let metrics = dir.join("telemetry").join("metrics.prom");
        if let Ok(text) = std::fs::read_to_string(&metrics) {
            let dump =
                PromDump::parse(&text).map_err(|e| format!("shard {label} metrics.prom: {e}"))?;
            prom.merge(&dump);
        }
    }

    for (name, (_, bytes)) in &owners {
        atomic_write(&campaign.join(name), bytes).map_err(|e| format!("writing {name}: {e}"))?;
        copied += 1;
    }

    if !manifests.is_empty() {
        let merged = merge_manifests(&manifests)?;
        atomic_write(&campaign.join("run_manifest.csv"), merged.as_bytes())
            .map_err(|e| format!("writing run_manifest.csv: {e}"))?;
    }

    let sup_errors = shard::supervisor_errors_path(campaign);
    if let Ok(text) = std::fs::read_to_string(&sup_errors) {
        errors.push(("supervisor_errors.csv".to_string(), text));
    }
    let mut error_rows = 0usize;
    if let Some(t) = merge_csv_union(&errors, run_errors_key)? {
        error_rows = t.rows.len();
        t.write_csv(campaign, "run_errors")
            .map_err(|e| format!("writing run_errors.csv: {e}"))?;
    }
    if let Some(t) = merge_csv_union(&quarantines, whole_row_key)? {
        t.write_csv(campaign, "quarantine_manifest")
            .map_err(|e| format!("writing quarantine_manifest.csv: {e}"))?;
    }

    let sup_prom = shard::supervisor_prom_path(campaign);
    if let Ok(text) = std::fs::read_to_string(&sup_prom) {
        let dump = PromDump::parse(&text).map_err(|e| format!("supervisor.prom: {e}"))?;
        prom.merge(&dump);
    }
    if !prom.is_empty() {
        let path = campaign.join("telemetry").join("metrics.prom");
        atomic_write(&path, prom.render().as_bytes())
            .map_err(|e| format!("writing merged metrics.prom: {e}"))?;
    }

    Ok(format!(
        "merged {} shard(s) into {}: {copied} file(s), {} manifest row source(s), {error_rows} error row(s)",
        shards.len(),
        campaign.display(),
        manifests.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::ShardSpec;
    use opm_core::telemetry::{parse_prom, Telemetry, TelemetryMode};

    fn campaign_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("opm_merge_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn seed_shard(campaign: &Path, spec: ShardSpec, files: &[(&str, &str)]) {
        let dir = shard::shard_results_dir(campaign, spec);
        std::fs::create_dir_all(&dir).unwrap();
        for (name, text) in files {
            std::fs::write(dir.join(name), text).unwrap();
        }
    }

    const HEADER: &str = "figure,status,wall_s,points,points_per_s,failures\n";
    const ERR_HEADER: &str = "stage,point,kind,attempts,transient,outcome,message\n";

    #[test]
    fn csv_parser_handles_quoted_cells() {
        let rows = parse_csv("a,b\n\"x,1\n2\",\"he said \"\"hi\"\"\"\n").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[1][0], "x,1\n2");
        assert_eq!(rows[1][1], "he said \"hi\"");
        assert!(parse_csv("\"open").is_err());
    }

    #[test]
    fn merge_reorders_manifest_rows_and_recomputes_total() {
        let dir = campaign_dir("manifest");
        let s0 = ShardSpec { index: 0, count: 2 };
        let s1 = ShardSpec { index: 1, count: 2 };
        // Shard 0 ran fig01 (registry pos 0); shard 1 ran fig04 (pos 1).
        // Present them out of order to prove the merge re-sorts.
        seed_shard(
            &dir,
            s1,
            &[(
                "run_manifest.csv",
                &format!(
                    "{HEADER}fig04_ai_spectrum,ok,2.000000,10,5.0,0\n\
                     TOTAL,-,2.000000,10,5.0,0\n"
                ),
            )],
        );
        seed_shard(
            &dir,
            s0,
            &[(
                "run_manifest.csv",
                &format!(
                    "{HEADER}fig01_gemm_pdf,ok,1.000000,20,20.0,1\n\
                     TOTAL,-,1.000000,20,20.0,1\n"
                ),
            )],
        );
        merge_shards(&dir).unwrap();
        let merged = std::fs::read_to_string(dir.join("run_manifest.csv")).unwrap();
        let lines: Vec<&str> = merged.lines().collect();
        assert!(lines[1].starts_with("fig01_gemm_pdf,"), "{merged}");
        assert!(lines[2].starts_with("fig04_ai_spectrum,"), "{merged}");
        assert_eq!(lines[3], "TOTAL,-,3.000000,30,10.0,1", "{merged}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_unions_error_rows_including_supervisor_rows() {
        let dir = campaign_dir("errors");
        let s0 = ShardSpec { index: 0, count: 2 };
        let s1 = ShardSpec { index: 1, count: 2 };
        seed_shard(
            &dir,
            s0,
            &[(
                "run_errors.csv",
                &format!("{ERR_HEADER}fig9/sweep,3,panic,2,true,recovered,\"boom, with comma\"\n"),
            )],
        );
        seed_shard(&dir, s1, &[("run_errors.csv", ERR_HEADER)]);
        std::fs::write(
            shard::supervisor_errors_path(&dir),
            format!("{ERR_HEADER}shard/1of2,-,hang,4,true,quarantined,stale heartbeat\n"),
        )
        .unwrap();
        merge_shards(&dir).unwrap();
        let merged = std::fs::read_to_string(dir.join("run_errors.csv")).unwrap();
        let lines: Vec<&str> = merged.lines().collect();
        assert_eq!(lines.len(), 3, "{merged}");
        assert!(lines[1].starts_with("fig9/sweep,3,panic"), "{merged}");
        assert!(lines[2].starts_with("shard/1of2,-,hang"), "{merged}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_sums_prom_counters_across_shards_and_supervisor() {
        let dir = campaign_dir("prom");
        let s0 = ShardSpec { index: 0, count: 2 };
        let s1 = ShardSpec { index: 1, count: 2 };
        seed_shard(&dir, s0, &[]);
        seed_shard(&dir, s1, &[]);
        for (spec, pts) in [(s0, 5u64), (s1, 7u64)] {
            let tdir = shard::shard_results_dir(&dir, spec).join("telemetry");
            std::fs::create_dir_all(&tdir).unwrap();
            std::fs::write(
                tdir.join("metrics.prom"),
                format!("# TYPE opm_points_total counter\nopm_points_total {pts}\n"),
            )
            .unwrap();
        }
        std::fs::write(
            shard::supervisor_prom_path(&dir),
            "# TYPE opm_shard_restarts_total counter\n\
             opm_shard_restarts_total{shard=\"0of2\"} 2\n\
             opm_shard_restarts_total{shard=\"1of2\"} 0\n",
        )
        .unwrap();
        merge_shards(&dir).unwrap();
        let merged = std::fs::read_to_string(dir.join("telemetry").join("metrics.prom")).unwrap();
        assert!(merged.contains("opm_points_total 12"), "{merged}");
        assert!(
            merged.contains("opm_shard_restarts_total{shard=\"0of2\"} 2"),
            "{merged}"
        );
        let parsed = parse_prom(&merged).unwrap();
        assert_eq!(
            parsed
                .iter()
                .filter(|(m, _, _)| m == "opm_shard_restarts_total")
                .count(),
            2
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_folds_histograms_bucketwise_and_identically_to_one_process() {
        let dir = campaign_dir("hist");
        let s0 = ShardSpec { index: 0, count: 2 };
        let s1 = ShardSpec { index: 1, count: 2 };
        seed_shard(&dir, s0, &[]);
        seed_shard(&dir, s1, &[]);
        // Shard 0 observed two points of figA and one of the shared
        // series; shard 1 the rest. The single-process reference observes
        // everything in one registry.
        let single = Telemetry::new(TelemetryMode::Summary);
        let shard_obs: [&[(&str, u64)]; 2] = [
            &[("stage=\"figA>sweep\"", 100), ("stage=\"figA>sweep\"", 900)],
            &[("stage=\"figB>sweep\"", 70_000)],
        ];
        for (spec, obs) in [s0, s1].into_iter().zip(shard_obs) {
            let tele = Telemetry::new(TelemetryMode::Summary);
            for (labels, v) in obs {
                tele.observe("opm_point_latency_ns", labels, *v);
                single.observe("opm_point_latency_ns", labels, *v);
            }
            let tdir = shard::shard_results_dir(&dir, spec).join("telemetry");
            std::fs::create_dir_all(&tdir).unwrap();
            std::fs::write(tdir.join("metrics.prom"), tele.render_prom()).unwrap();
        }
        merge_shards(&dir).unwrap();
        let merged = std::fs::read_to_string(dir.join("telemetry").join("metrics.prom")).unwrap();
        assert_eq!(merged, single.render_prom(), "merged != single-process");
        assert!(
            merged.contains("opm_point_latency_ns_bucket{stage=\"figA>sweep\",le=\"+Inf\"} 2"),
            "{merged}"
        );
        assert!(
            merged.contains("opm_point_latency_ns_count{stage=\"figB>sweep\"} 1"),
            "{merged}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn merge_rejects_cross_shard_file_conflicts() {
        let dir = campaign_dir("conflict");
        let s0 = ShardSpec { index: 0, count: 2 };
        let s1 = ShardSpec { index: 1, count: 2 };
        seed_shard(&dir, s0, &[("fig.csv", "a\n1\n")]);
        seed_shard(&dir, s1, &[("fig.csv", "a\n2\n")]);
        let err = merge_shards(&dir).unwrap_err();
        assert!(err.contains("conflict"), "{err}");
        // Identical bytes in both shards are fine (idempotent reruns).
        std::fs::write(shard::shard_results_dir(&dir, s1).join("fig.csv"), "a\n1\n").unwrap();
        merge_shards(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("fig.csv")).unwrap(),
            "a\n1\n"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
