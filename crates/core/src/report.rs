//! Result reporting: CSV series files and aligned text tables, written under
//! `results/` by the figure/table harness binaries.
//!
//! Every file this module writes goes through [`atomic_write`]
//! (write-tmp / fsync / rename), so a `kill -9` mid-write can never leave
//! a half-written CSV behind — a file either has its complete old
//! contents or its complete new contents.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Write `bytes` to `path` atomically: write a sibling
/// `.<name>.<pid>.tmp`, fsync it, then rename over the target. Readers
/// (and a crash at any instant) see either the complete old file or the
/// complete new one, never a torn write. Parent directories are created.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let dir = path.parent().filter(|p| !p.as_os_str().is_empty());
    if let Some(dir) = dir {
        fs::create_dir_all(dir)?;
    }
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "atomic_write needs a file"))?;
    let tmp = path.with_file_name(format!(
        ".{}.{}.tmp",
        name.to_string_lossy(),
        std::process::id()
    ));
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    result
}

/// A rectangular data series with named columns, writable as CSV.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// Column names.
    pub columns: Vec<String>,
    /// Rows; each must have `columns.len()` entries.
    pub rows: Vec<Vec<f64>>,
}

impl Series {
    /// New empty series with the given columns.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Self {
        Series {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the width does not match.
    pub fn push(&mut self, row: Vec<f64>) {
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Render as CSV text, every cell written straight into one
    /// pre-sized buffer.
    pub fn to_csv(&self) -> String {
        let header = self.columns.join(",");
        let cells = self.rows.len() * self.columns.len();
        // Typical cells are a sign, six-ish digits and a separator.
        let mut out = String::with_capacity(header.len() + 1 + cells * 12);
        out.push_str(&header);
        out.push('\n');
        for row in &self.rows {
            for (i, &v) in row.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_num(&mut out, v);
            }
            out.push('\n');
        }
        out
    }

    /// Write CSV to `dir/name.csv` atomically, creating `dir` if needed.
    pub fn write_csv(&self, dir: impl AsRef<Path>, name: &str) -> io::Result<PathBuf> {
        let path = dir.as_ref().join(format!("{name}.csv"));
        atomic_write(&path, self.to_csv().as_bytes())?;
        Ok(path)
    }

    /// Column index by name.
    pub fn column(&self, name: &str) -> Option<usize> {
        self.columns.iter().position(|c| c == name)
    }
}

/// Append one CSV number: `0` for either zero, six-digit scientific
/// notation outside `[1e-3, 1e7)`, otherwise six decimals with trailing
/// zeros (and a bare trailing point) trimmed.
///
/// The six-decimal cells, ~97% of a campaign's, are written by
/// [`push_fixed6`] in integer arithmetic, byte for byte what
/// `write!("{v:.6}")` followed by the trim writes.
fn push_num(out: &mut String, v: f64) {
    if v == 0.0 {
        out.push('0');
    } else if (1e-3..1e7).contains(&v.abs()) {
        push_fixed6(out, v);
    } else if v.is_nan() {
        // As `{:.6}` prints every NaN: unsigned.
        out.push_str("NaN");
    } else {
        let _ = write!(out, "{v:.6e}");
    }
}

/// Append `v` (finite, `1e-3 <= |v| < 1e7`) rounded to six decimals,
/// trailing zeros and a bare point trimmed.
///
/// Exact: a normal `v` is `m * 2^-s` with a 53-bit `m`, and in this
/// range `s` lies in 29..=62. So `m * 10^6` (under 2^73) fits a `u128`,
/// and `q = (m * 10^6) >> s` is `|v| * 10^6` truncated, with the shifted
/// out bits its exact remainder. Rounding `q` half to even on that
/// remainder is what std's `{:.6}` does (it formats the exact binary
/// value, ties to even), so `q / 10^6` and `q % 10^6` are its integer
/// and fraction digits, a carry into the integer part included.
fn push_fixed6(out: &mut String, v: f64) {
    const SCALE: u64 = 1_000_000;
    let bits = v.to_bits();
    let shift = 1075 - ((bits >> 52) & 0x7ff) as u32;
    debug_assert!((29..=62).contains(&shift), "{v:e} outside [1e-3, 1e7)");
    let m = (bits & ((1 << 52) - 1)) | (1 << 52);
    let scaled = u128::from(m) * u128::from(SCALE);
    let mut q = (scaled >> shift) as u64;
    let rem = scaled & ((1u128 << shift) - 1);
    let half = 1u128 << (shift - 1);
    if rem > half || (rem == half && q & 1 == 1) {
        q += 1;
    }
    push_decimal(out, v < 0.0, q, 6);
}

/// Two decimal digits per entry: `00`, `01`, …, `99`.
const DIGIT_PAIRS: &[u8; 200] = b"\
    0001020304050607080910111213141516171819\
    2021222324252627282930313233343536373839\
    4041424344454647484950515253545556575859\
    6061626364656667686970717273747576777879\
    8081828384858687888990919293949596979899";

/// Append `n / 10^frac_len` (`frac_len <= 22`) in plain decimal, `-`
/// first if `negative`, with trailing fraction zeros and a bare point
/// trimmed: the digit writer of the exact number paths, [`push_fixed6`]
/// and the `opm-api/v1` renderer. Digits go right to left, two a step,
/// through a stack buffer.
pub(crate) fn push_decimal(out: &mut String, negative: bool, mut n: u64, frac_len: usize) {
    let mut buf = [0u8; 32];
    let mut at = buf.len();
    while n >= 10 {
        let pair = (n % 100) as usize * 2;
        n /= 100;
        at -= 2;
        buf[at..at + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
    }
    if n > 0 || at == buf.len() {
        at -= 1;
        buf[at] = b'0' + n as u8;
    }
    // Zero-pad to one integer digit, then move the integer part one byte
    // left to open the point if a fraction digit is left after the trim.
    let point = buf.len() - frac_len;
    while at >= point {
        at -= 1;
        buf[at] = b'0';
    }
    let mut end = buf.len();
    while end > point && buf[end - 1] == b'0' {
        end -= 1;
    }
    if end > point {
        buf.copy_within(at..point, at - 1);
        at -= 1;
        buf[point - 1] = b'.';
    }
    if negative {
        at -= 1;
        buf[at] = b'-';
    }
    out.push_str(std::str::from_utf8(&buf[at..end]).expect("ASCII digits"));
}

/// A rectangular table of string cells, writable as CSV with proper
/// quoting — for manifests whose cells are not numbers (error messages,
/// file paths, stage labels): `run_errors.csv`, the corpus quarantine
/// manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecordTable {
    /// Column names.
    pub columns: Vec<String>,
    /// Rows; each must have `columns.len()` entries.
    pub rows: Vec<Vec<String>>,
}

impl RecordTable {
    /// New empty table with the given columns.
    pub fn new<S: Into<String>>(columns: Vec<S>) -> Self {
        RecordTable {
            columns: columns.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row; panics if the width does not match.
    pub fn push<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(
            row.len(),
            self.columns.len(),
            "row width {} != column count {}",
            row.len(),
            self.columns.len()
        );
        self.rows.push(row);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as CSV text. Cells containing commas, quotes, or newlines
    /// are double-quoted with embedded quotes doubled (RFC 4180).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&csv_quote(cell));
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.columns);
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Write CSV to `dir/name.csv` atomically, creating `dir` if needed.
    pub fn write_csv(&self, dir: impl AsRef<Path>, name: &str) -> io::Result<PathBuf> {
        let path = dir.as_ref().join(format!("{name}.csv"));
        atomic_write(&path, self.to_csv().as_bytes())?;
        Ok(path)
    }
}

/// Quote one CSV cell per RFC 4180 (only when it needs it).
fn csv_quote(cell: &str) -> String {
    if cell.contains(',') || cell.contains('"') || cell.contains('\n') || cell.contains('\r') {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// An aligned text table (for Table 4/5 style console output).
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// New table with a header row.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row of pre-rendered cells.
    pub fn push<S: Into<String>>(&mut self, row: Vec<S>) {
        let row: Vec<String> = row.into_iter().map(Into::into).collect();
        assert_eq!(row.len(), self.header.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Render with column alignment.
    pub fn render(&self) -> String {
        let ncol = self.header.len();
        let mut widths = vec![0usize; ncol];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = widths[i].max(h.len());
        }
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |out: &mut String, cells: &[String]| {
            for (i, cell) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{cell:<width$}", width = widths[i]);
            }
            out.push('\n');
        };
        fmt_row(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
        out.push_str(&"-".repeat(total));
        out.push('\n');
        for row in &self.rows {
            fmt_row(&mut out, row);
        }
        out
    }

    /// Write the rendered table to `dir/name.txt` atomically.
    pub fn write(&self, dir: impl AsRef<Path>, name: &str) -> io::Result<PathBuf> {
        let path = dir.as_ref().join(format!("{name}.txt"));
        atomic_write(&path, self.render().as_bytes())?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_round_shape() {
        let mut s = Series::new(vec!["x", "y"]);
        s.push(vec![1.0, 2.5]);
        s.push(vec![0.0, 1e9]);
        let csv = s.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "x,y");
        assert_eq!(lines[1], "1,2.5");
        assert!(lines[2].starts_with("0,1"));
        assert_eq!(s.column("y"), Some(1));
        assert_eq!(s.column("z"), None);
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn csv_rejects_ragged_rows() {
        let mut s = Series::new(vec!["x"]);
        s.push(vec![1.0, 2.0]);
    }

    #[test]
    fn csv_writes_to_disk() {
        let dir = std::env::temp_dir().join("opm_report_test");
        let mut s = Series::new(vec!["a"]);
        s.push(vec![42.0]);
        let path = s.write_csv(&dir, "t").unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("42"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["kernel", "gflops"]);
        t.push(vec!["gemm", "204.5"]);
        t.push(vec!["spmv", "9.6"]);
        let r = t.render();
        let lines: Vec<&str> = r.lines().collect();
        assert!(lines[0].starts_with("kernel"));
        assert!(lines[1].starts_with("---"));
        // All rows padded to the same width.
        assert_eq!(
            lines[2].find("204.5"),
            lines[3]
                .find("9.6")
                .map(|p| p - 1)
                .map(|_| lines[2].find("204.5").unwrap())
        );
        assert!(lines[2].contains("gemm"));
    }

    #[test]
    fn record_table_quotes_awkward_cells() {
        let mut t = RecordTable::new(vec!["figure", "message"]);
        t.push(vec!["fig01", "plain"]);
        t.push(vec!["fig02", "has, comma"]);
        t.push(vec!["fig03", "says \"quoted\""]);
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "figure,message");
        assert_eq!(lines[1], "fig01,plain");
        assert_eq!(lines[2], "fig02,\"has, comma\"");
        assert_eq!(lines[3], "fig03,\"says \"\"quoted\"\"\"");
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn record_table_rejects_ragged_rows() {
        let mut t = RecordTable::new(vec!["a", "b"]);
        t.push(vec!["only one"]);
    }

    #[test]
    fn atomic_write_replaces_and_leaves_no_tmp() {
        let dir = std::env::temp_dir().join(format!("opm_atomic_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("nested").join("out.csv");
        atomic_write(&path, b"first").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        atomic_write(&path, b"second").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        let leftovers: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "{leftovers:?}");
        assert!(atomic_write(Path::new("/"), b"x").is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The per-cell `std` formatter `to_csv` used before it wrote into
    /// one buffer and six-decimal cells in integer arithmetic: the
    /// byte-identity oracle for [`push_num`].
    fn format_num(v: f64) -> String {
        if v == 0.0 {
            "0".to_string()
        } else if v.abs() >= 1e7 || v.abs() < 1e-3 {
            format!("{v:.6e}")
        } else {
            let s = format!("{v:.6}");
            let s = s.trim_end_matches('0').trim_end_matches('.');
            s.to_string()
        }
    }

    fn pushed(v: f64) -> String {
        let mut s = String::new();
        push_num(&mut s, v);
        s
    }

    #[test]
    fn number_formatting() {
        assert_eq!(pushed(1.5), "1.5");
        assert_eq!(pushed(0.0), "0");
        assert!(pushed(1e12).contains('e'));
        assert!(pushed(1e-6).contains('e'));
    }

    #[test]
    fn one_buffer_csv_matches_the_per_cell_formatter() {
        let mut values = vec![
            0.0,
            -0.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            // Round-up cases: six decimals carry into the next digit.
            9.9999996,
            0.00099999996,
            0.0009999995,
            9_999_999.9999996,
            0.5,
            1.0,
            100.0,
            123.456789,
            f64::MIN_POSITIVE,
            f64::MAX,
        ];
        // The notation switch points and their neighbours.
        for edge in [1e-3f64, 1e7] {
            values.extend([edge, edge.next_up(), edge.next_down()]);
        }
        // Integer grid values, as the sweeps write them.
        values.extend((0..64).map(|i| (128 * i) as f64));
        values.extend((0..40).map(|i| 1.7f64.powi(i - 20)));
        let negatives: Vec<f64> = values.iter().map(|v| -v).collect();
        values.extend(negatives);
        for &v in &values {
            assert_eq!(pushed(v), format_num(v), "{v:e}");
        }
        // And whole rows: the joined per-cell rendering, byte for byte.
        let mut s = Series::new(vec!["a", "b", "c"]);
        for chunk in values.chunks_exact(3) {
            s.push(chunk.to_vec());
        }
        let mut expect = String::from("a,b,c\n");
        for row in &s.rows {
            let line: Vec<String> = row.iter().map(|v| format_num(*v)).collect();
            expect.push_str(&line.join(","));
            expect.push('\n');
        }
        assert_eq!(s.to_csv(), expect);
    }

    /// `value` and its negation format as the oracle does.
    fn assert_both_signs(v: f64) {
        for v in [v, -v] {
            assert_eq!(pushed(v), format_num(v), "{v:e} ({:#x})", v.to_bits());
        }
    }

    #[test]
    fn fixed_point_cells_match_std_on_a_sweep() {
        use rand::{rngs::StdRng, RngCore, SeedableRng};
        let (lo, hi) = (1e-3f64.to_bits(), 1e7f64.to_bits());
        let mut rng = StdRng::seed_from_u64(0x0f1e_2d3c);
        // Random bit patterns over the whole six-decimal range: positive
        // doubles order as their bits, so this draws every binade.
        for _ in 0..100_000 {
            assert_both_signs(f64::from_bits(lo + rng.next_u64() % (hi - lo)));
        }
        // Random six-decimal values, as the nearest double to each: they
        // sit a rounding error off a six-decimal boundary.
        for _ in 0..50_000 {
            let micros = 1_000 + rng.next_u64() % (10_000_000_000_000 - 1_000);
            assert_both_signs(micros as f64 / 1e6);
        }
        // Ties. A six-decimal tie is (2n+1) / (2 * 10^6), so it is a double
        // only as an odd multiple of 2^-7: every one below 1024 and below
        // 1e7, both signs, half with an even truncation (kept) and half
        // with an odd one (rounded up).
        let tie = |j: u64| j as f64 / 128.0;
        for j in (1..1 << 17)
            .step_by(2)
            .chain((1_279_868_929..1_280_000_000).step_by(2))
        {
            assert_both_signs(tie(j));
        }
        assert_eq!(pushed(tie(1)), "0.007812");
        assert_eq!(pushed(tie(3)), "0.023438");
        // The other dyadic rationals j / 2^k, k <= 40, have exact binary
        // remainders a power-of-two fraction off a tie: a window of j at
        // the bottom of the range and one at a seeded offset, per k.
        for k in 0..=40 {
            let scale = (1u64 << k) as f64;
            let first = (1e-3 * scale).ceil() as u64;
            let last = (1e7 * scale) as u64;
            let offset = first + rng.next_u64() % (last - first - 2048).max(1);
            for j in (first..first + 2048).chain(offset..offset + 2048) {
                let v = j as f64 / scale;
                if (1e-3..1e7).contains(&v) {
                    assert_both_signs(v);
                }
            }
        }
        // Carries out of the fraction into the integer part, up to the
        // top of the range, and values a hair under half that must not
        // carry (the nearest doubles to ...9995 lie below the tie).
        for (v, want) in [
            (9.9999995, "9.999999"),
            (9.9999996, "10"),
            (999_999.999_999_5, "999999.999999"),
            (9_999_999.999_999_6, "10000000"),
        ] {
            assert_eq!(pushed(v), want, "{v:e}");
            assert_both_signs(v);
        }
    }
}
