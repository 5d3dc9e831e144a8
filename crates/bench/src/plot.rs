//! Terminal/markdown plotting: ASCII line charts and heat maps, and
//! [`write_report`] (`opm report`), which turns the regenerated CSV
//! series into a human-readable `REPORT.md` without any plotting
//! dependency.

use opm_core::report::Series;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use Section::{Curve, Dense, Structure, Table};

/// Glyphs assigned to successive series of a line chart.
const GLYPHS: [char; 6] = ['*', 'o', '+', 'x', '#', '@'];
/// Density ramp for heat maps, sparse to dense.
const RAMP: [char; 10] = [' ', '.', ':', '-', '=', '+', '*', '#', '%', '@'];

/// Options for [`line_chart`].
#[derive(Debug, Clone, Copy)]
pub struct ChartOpts {
    /// Plot width in columns (data area).
    pub width: usize,
    /// Plot height in rows.
    pub height: usize,
    /// Logarithmic x axis.
    pub log_x: bool,
    /// Logarithmic y axis.
    pub log_y: bool,
}

impl Default for ChartOpts {
    fn default() -> Self {
        ChartOpts {
            width: 72,
            height: 18,
            log_x: true,
            log_y: false,
        }
    }
}

fn scale(v: f64, lo: f64, hi: f64, log: bool, steps: usize) -> Option<usize> {
    if !v.is_finite() {
        return None;
    }
    let (v, lo, hi) = if log {
        if v <= 0.0 || lo <= 0.0 {
            return None;
        }
        (v.ln(), lo.ln(), hi.ln())
    } else {
        (v, lo, hi)
    };
    if hi <= lo {
        return Some(0);
    }
    let t = ((v - lo) / (hi - lo)).clamp(0.0, 1.0);
    Some(((t * (steps - 1) as f64).round() as usize).min(steps - 1))
}

/// Render a multi-series ASCII line chart. `series` holds `(label, points)`
/// with shared axes; points need not be sorted.
pub fn line_chart(title: &str, series: &[(String, Vec<(f64, f64)>)], opts: ChartOpts) -> String {
    assert!(!series.is_empty(), "need at least one series");
    let mut xs: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    for (_, pts) in series {
        for &(x, y) in pts {
            if x.is_finite()
                && y.is_finite()
                && (!opts.log_x || x > 0.0)
                && (!opts.log_y || y > 0.0)
            {
                xs.push(x);
                ys.push(y);
            }
        }
    }
    assert!(!xs.is_empty(), "no plottable points");
    let (x_lo, x_hi) = (
        xs.iter().cloned().fold(f64::INFINITY, f64::min),
        xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let (y_lo, y_hi) = (
        ys.iter().cloned().fold(f64::INFINITY, f64::min),
        ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
    );
    let mut grid = vec![vec![' '; opts.width]; opts.height];
    for (si, (_, pts)) in series.iter().enumerate() {
        let glyph = GLYPHS[si % GLYPHS.len()];
        for &(x, y) in pts {
            let (Some(cx), Some(cy)) = (
                scale(x, x_lo, x_hi, opts.log_x, opts.width),
                scale(y, y_lo, y_hi, opts.log_y, opts.height),
            ) else {
                continue;
            };
            let row = opts.height - 1 - cy;
            // Later series overwrite earlier ones where they collide.
            grid[row][cx] = glyph;
        }
    }
    let mut out = String::new();
    let _ = writeln!(out, "{title}");
    let y_label = |v: f64| {
        if v.abs() >= 1000.0 {
            format!("{v:9.0}")
        } else {
            format!("{v:9.2}")
        }
    };
    for (r, row) in grid.iter().enumerate() {
        let label = if r == 0 {
            y_label(y_hi)
        } else if r == opts.height - 1 {
            y_label(y_lo)
        } else {
            " ".repeat(9)
        };
        let _ = writeln!(out, "{label} |{}", row.iter().collect::<String>());
    }
    let _ = writeln!(out, "{} +{}", " ".repeat(9), "-".repeat(opts.width));
    let _ = writeln!(
        out,
        "{}{:<.3e}{}{:.3e}",
        " ".repeat(11),
        x_lo,
        " ".repeat(opts.width.saturating_sub(22)),
        x_hi
    );
    let legend: Vec<String> = series
        .iter()
        .enumerate()
        .map(|(i, (label, _))| format!("{} {label}", GLYPHS[i % GLYPHS.len()]))
        .collect();
    let _ = writeln!(out, "{}[{}]", " ".repeat(11), legend.join("   "));
    out
}

/// Render a 2D density heat map from `(x, y, value)` triples, binned to
/// `cols × rows` cells (max value per cell), density ramp by value.
pub fn heat_map(
    title: &str,
    points: &[(f64, f64, f64)],
    cols: usize,
    rows: usize,
    log_axes: bool,
) -> String {
    assert!(!points.is_empty() && cols >= 2 && rows >= 2);
    let min =
        |sel: fn(&(f64, f64, f64)) -> f64| points.iter().map(sel).fold(f64::INFINITY, f64::min);
    let max =
        |sel: fn(&(f64, f64, f64)) -> f64| points.iter().map(sel).fold(f64::NEG_INFINITY, f64::max);
    let (x_lo, x_hi) = (min(|p| p.0), max(|p| p.0));
    let (y_lo, y_hi) = (min(|p| p.1), max(|p| p.1));
    let (v_lo, v_hi) = (min(|p| p.2), max(|p| p.2));
    let mut grid = vec![vec![f64::NAN; cols]; rows];
    for &(x, y, v) in points {
        let (Some(cx), Some(cy)) = (
            scale(x, x_lo, x_hi, log_axes, cols),
            scale(y, y_lo, y_hi, log_axes, rows),
        ) else {
            continue;
        };
        let cell = &mut grid[rows - 1 - cy][cx];
        if cell.is_nan() || v > *cell {
            *cell = v;
        }
    }
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{title}  (value {v_lo:.2} .. {v_hi:.2}, ' '→low '@'→high)"
    );
    for row in &grid {
        let line: String = row
            .iter()
            .map(|&v| {
                if v.is_nan() {
                    ' '
                } else {
                    let t = if v_hi > v_lo {
                        (v - v_lo) / (v_hi - v_lo)
                    } else {
                        1.0
                    };
                    RAMP[((t * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)]
                }
            })
            .collect();
        let _ = writeln!(out, "  |{line}|");
    }
    let _ = writeln!(
        out,
        "  x: {x_lo:.3e} .. {x_hi:.3e}   y: {y_lo:.3e} .. {y_hi:.3e}"
    );
    out
}

/// Parse a CSV file written by [`opm_core::report::Series::write_csv`].
pub fn read_series(path: &std::path::Path) -> Result<Series, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty CSV")?;
    let columns: Vec<String> = header.split(',').map(str::to_string).collect();
    let mut series = Series::new(columns.clone());
    for (i, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let row: Result<Vec<f64>, _> = line.split(',').map(str::parse::<f64>).collect();
        let row = row.map_err(|e| format!("row {i}: {e}"))?;
        if row.len() != columns.len() {
            return Err(format!("row {i}: width mismatch"));
        }
        series.push(row);
    }
    Ok(series)
}

/// Build line-chart input from a series: x = `x_col`, one plotted series per
/// other selected column.
pub fn series_to_lines(s: &Series, x_col: &str, y_cols: &[&str]) -> Vec<(String, Vec<(f64, f64)>)> {
    let xi = s
        .column(x_col)
        .unwrap_or_else(|| panic!("no column {x_col}"));
    y_cols
        .iter()
        .map(|y| {
            let yi = s.column(y).unwrap_or_else(|| panic!("no column {y}"));
            (
                y.to_string(),
                s.rows.iter().map(|r| (r[xi], r[yi])).collect(),
            )
        })
        .collect()
}

/// How [`write_report`] renders one section of `REPORT.md`.
#[derive(Debug, Clone, Copy)]
enum Section {
    /// Line chart of every column against the first (`true` = log y).
    Curve(bool),
    /// Heat map of a dense (n, tile) sweep, first OPM-enabled column.
    Dense,
    /// Heat map of a sparse (rows, nnz) structure grid.
    Structure,
    /// An aligned text table (`<name>.txt`), inlined.
    Table,
}

/// The sections of `REPORT.md`, in order: (file stem, rendering, title).
#[rustfmt::skip]
const REPORT_SECTIONS: &[(&str, Section, &str)] = &[
    ("fig12_stream_broadwell",       Curve(true),  "Fig. 12 — Stream on Broadwell (GFlop/s vs footprint MB)"),
    ("fig13_stencil_broadwell",      Curve(false), "Fig. 13 — Stencil on Broadwell"),
    ("fig14_fft_broadwell",          Curve(false), "Fig. 14 — FFT on Broadwell"),
    ("fig23_stream_knl",             Curve(true),  "Fig. 23 — Stream on KNL (four MCDRAM modes)"),
    ("fig24_stencil_knl",            Curve(true),  "Fig. 24 — Stencil on KNL"),
    ("fig25_fft_knl",                Curve(true),  "Fig. 25 — FFT on KNL"),
    ("fig28_edram_guideline",        Curve(true),  "Fig. 28 — eDRAM guideline curves"),
    ("fig29_mcdram_guideline",       Curve(true),  "Fig. 29 — MCDRAM guideline curves"),
    ("fig30_hw_tuning",              Curve(true),  "Fig. 30 — OPM hardware tuning what-if"),
    ("fig01_gemm_pdf",               Curve(false), "Fig. 1 — GEMM throughput PDF (x = GFlop/s)"),
    ("validate_model_broadwell",     Curve(true),  "Validation — sim vs model (Broadwell, GB/s)"),
    ("validate_model_knl",           Curve(true),  "Validation — sim vs model (KNL, GB/s)"),
    ("fig07_gemm_broadwell",         Dense,        "Fig. 7 — GEMM heat map, Broadwell (w/ eDRAM)"),
    ("fig08_cholesky_broadwell",     Dense,        "Fig. 8 — Cholesky heat map, Broadwell (w/ eDRAM)"),
    ("fig15_gemm_knl",               Dense,        "Fig. 15 — GEMM heat map, KNL (flat mode)"),
    ("fig16_cholesky_knl",           Dense,        "Fig. 16 — Cholesky heat map, KNL (flat mode)"),
    ("fig20_spmv_knl_structure",     Structure,    "Fig. 20 — SpMV structure map, KNL"),
    ("fig21_sptrans_knl_structure",  Structure,    "Fig. 21 — SpTRANS structure map, KNL"),
    ("fig22_sptrsv_knl_structure",   Structure,    "Fig. 22 — SpTRSV structure map, KNL"),
    ("table4_edram_summary",         Table,        "Table 4 — eDRAM summary"),
    ("table5_mcdram_flat_summary",   Table,        "Table 5 — MCDRAM flat mode"),
    ("table5_mcdram_cache_summary",  Table,        "Table 5 — MCDRAM cache mode"),
    ("table5_mcdram_hybrid_summary", Table,        "Table 5 — MCDRAM hybrid mode"),
];

/// Render the CSV series and text tables under `dir` into
/// `dir/REPORT.md`: ASCII charts for every curve figure, heat maps for
/// the dense and structure figures, and the summary tables inline. A
/// missing input becomes a `_missing_` note, not an error. Returns the
/// report's path.
pub fn write_report(dir: &Path) -> Result<PathBuf, String> {
    let mut md = format!(
        "# Reproduction report\n\nGenerated by `opm report` from the CSV series in `{}`.\n\
         Regenerate the inputs with `cargo run --release -p opm-bench --bin opm -- figures`.\n\n",
        dir.display()
    );
    for &(name, section, title) in REPORT_SECTIONS {
        let _ = match render_section(dir, name, title, section) {
            Ok(body) => writeln!(md, "## {title}\n\n```text\n{body}```\n"),
            Err(e) => writeln!(md, "## {title}\n\n_missing: {e}_\n"),
        };
    }
    let out = dir.join("REPORT.md");
    std::fs::write(&out, md).map_err(|e| format!("writing {}: {e}", out.display()))?;
    Ok(out)
}

fn render_section(dir: &Path, name: &str, title: &str, section: Section) -> Result<String, String> {
    let csv = || read_series(&dir.join(format!("{name}.csv")));
    match section {
        Curve(log_y) => {
            let s = csv()?;
            let x = s.columns.first().ok_or("no columns")?.clone();
            let ys: Vec<&str> = s.columns[1..].iter().map(String::as_str).collect();
            if ys.is_empty() {
                return Err("no series columns".into());
            }
            let lines = series_to_lines(&s, &x, &ys);
            Ok(line_chart(
                title,
                &lines,
                ChartOpts {
                    log_y,
                    ..ChartOpts::default()
                },
            ))
        }
        Dense => {
            let s = csv()?;
            let ni = s.column("n").ok_or("no n column")?;
            let ti = s.column("tile").ok_or("no tile column")?;
            // Prefer an OPM-enabled column.
            let vi = s
                .columns
                .iter()
                .position(|c| c.contains("edram") && !c.contains("no-edram") || c.contains("flat"))
                .unwrap_or(2);
            let pts: Vec<(f64, f64, f64)> = s.rows.iter().map(|r| (r[ni], r[ti], r[vi])).collect();
            Ok(heat_map(title, &pts, 64, 16, false))
        }
        Structure => {
            let s = csv()?;
            let ri = s.column("log10_rows").ok_or("no rows column")?;
            let ni = s.column("log10_nnz").ok_or("no nnz column")?;
            let vi = s.column("mean_gflops").ok_or("no value column")?;
            let pts: Vec<(f64, f64, f64)> = s.rows.iter().map(|r| (r[ni], r[ri], r[vi])).collect();
            Ok(heat_map(title, &pts, 48, 14, false))
        }
        Table => {
            let path = dir.join(format!("{name}.txt"));
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_chart_places_extremes() {
        let pts = vec![(1.0, 0.0), (10.0, 10.0)];
        let chart = line_chart(
            "t",
            &[("a".into(), pts)],
            ChartOpts {
                width: 20,
                height: 5,
                log_x: false,
                log_y: false,
            },
        );
        let lines: Vec<&str> = chart.lines().collect();
        // Max lands on the top row (rightmost), min on the bottom row.
        assert!(lines[1].ends_with('*'), "{chart}");
        assert!(lines[5].contains('|') && lines[5].contains('*'), "{chart}");
        assert!(chart.contains("[* a]"));
    }

    #[test]
    fn line_chart_multi_series_legend() {
        let a = vec![(1.0, 1.0), (2.0, 2.0)];
        let b = vec![(1.0, 2.0), (2.0, 1.0)];
        let chart = line_chart(
            "two",
            &[("first".into(), a), ("second".into(), b)],
            ChartOpts::default(),
        );
        assert!(chart.contains("* first"));
        assert!(chart.contains("o second"));
        assert!(chart.contains('o'));
    }

    #[test]
    fn log_axis_rejects_nonpositive_points() {
        let pts = vec![(0.0, 1.0), (1.0, 1.0), (10.0, 2.0)];
        let chart = line_chart(
            "log",
            &[("a".into(), pts)],
            ChartOpts {
                width: 10,
                height: 4,
                log_x: true,
                log_y: false,
            },
        );
        // Renders without panic, skipping the x = 0 point.
        assert!(chart.contains('*'));
    }

    #[test]
    fn heat_map_ramps_by_value() {
        let pts = vec![(1.0, 1.0, 0.0), (2.0, 2.0, 10.0)];
        let map = heat_map("h", &pts, 4, 4, false);
        assert!(map.contains('@'), "{map}");
        // Low value renders as the low end of the ramp (space merges into
        // background, so just check the header).
        assert!(map.contains("0.00 .. 10.00"));
    }

    #[test]
    fn csv_round_trip_through_read_series() {
        let mut s = Series::new(vec!["x", "y"]);
        s.push(vec![1.0, 2.0]);
        s.push(vec![3.0, 4.5]);
        let dir = std::env::temp_dir().join(format!("opm_plot_{}", std::process::id()));
        let path = s.write_csv(&dir, "t").unwrap();
        let back = read_series(&path).unwrap();
        assert_eq!(back.columns, vec!["x", "y"]);
        assert_eq!(back.rows, s.rows);
        let lines = series_to_lines(&back, "x", &["y"]);
        assert_eq!(lines[0].1, vec![(1.0, 2.0), (3.0, 4.5)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "no plottable points")]
    fn empty_chart_panics() {
        line_chart("t", &[("a".into(), vec![])], ChartOpts::default());
    }
}
