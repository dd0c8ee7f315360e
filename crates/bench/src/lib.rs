//! Shared reporting helpers for the table/figure regeneration binaries.
//!
//! Each binary prints a human-readable table to stdout and, when the
//! `CUBEMM_RESULTS_DIR` environment variable is set (default
//! `results/` relative to the working directory), writes the same rows
//! as CSV for diffing against the paper.

pub mod alloc_count;
pub mod rows;

use std::fs;
use std::io::Write;
use std::path::PathBuf;

/// Restores SIGPIPE's default disposition, so that a reader that closes
/// stdout early (`kernel_bench --smoke | head -1`) ends the bench by the
/// signal, quietly, as it ends any filter, instead of by a panic in
/// `println!`. Every bench bin calls it first thing in `main`, before any
/// other thread exists.
pub fn die_quietly_on_closed_stdout() {
    #[cfg(unix)]
    {
        extern "C" {
            fn signal(signum: std::ffi::c_int, handler: usize) -> usize;
        }
        const SIGPIPE: std::ffi::c_int = 13;
        const SIG_DFL: usize = 0;
        // SAFETY: restoring a signal's default disposition touches no
        // memory, and no other thread exists yet to race it.
        unsafe { signal(SIGPIPE, SIG_DFL) };
    }
}

/// Who measured, as the `BENCH_*.json` header lines every per-layer
/// bench writes: cores, architecture, the reference kernel's ISA, and
/// the detected cache sizes (each line indented and comma-terminated).
pub fn host_header() -> String {
    let caches = cubemm_dense::tune::detect_caches();
    format!(
        "  \"host_cores\": {},\n  \"host_arch\": \"{}\",\n  \"host_isa\": \"{}\",\n  \
         \"l1d_bytes\": {},\n  \"l2_bytes\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from),
        std::env::consts::ARCH,
        cubemm_dense::gemm::ReferenceIsa::detect().name(),
        caches.l1d,
        caches.l2,
    )
}

/// The `results` rows of a `BENCH_*.json` file that an earlier run of a
/// per-layer bench wrote, read back for its `--baseline` comparison.
pub fn baseline_results(text: &str) -> Result<Vec<cubemm_simnet::json::Json>, String> {
    let doc = cubemm_simnet::json::parse(text)?;
    let rows = doc.get("results").and_then(|rows| rows.as_arr());
    Ok(rows.unwrap_or_default().to_vec())
}

/// Directory results are written to.
pub fn results_dir() -> PathBuf {
    std::env::var_os("CUBEMM_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes `contents` to `<results_dir>/<name>`, creating the directory.
pub fn write_result(name: &str, contents: &str) -> std::io::Result<PathBuf> {
    let dir = results_dir();
    fs::create_dir_all(&dir)?;
    let path = dir.join(name);
    let mut f = fs::File::create(&path)?;
    f.write_all(contents.as_bytes())?;
    Ok(path)
}

/// A minimal fixed-width table printer.
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    pub fn new(headers: &[&str]) -> Self {
        Table {
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header count).
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let ncols = self.headers.len();
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            let mut line = String::new();
            for i in 0..ncols {
                line.push_str(&format!("{:<width$}  ", cells[i], width = widths[i]));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (ncols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Renders the table as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.headers.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

/// Formats a float compactly for table cells.
pub fn fmt(x: f64) -> String {
    if x == x.trunc() && x.abs() < 1e12 {
        format!("{}", x as i64)
    } else {
        format!("{x:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(&["x", "yy"]);
        t.row(vec!["1".into(), "2".into()]);
        t.row(vec!["333".into(), "4".into()]);
        let s = t.render();
        assert!(s.contains("x    yy"));
        assert!(s.lines().count() == 4);
        assert_eq!(t.to_csv(), "x,yy\n1,2\n333,4\n");
    }

    #[test]
    fn fmt_integers_and_floats() {
        assert_eq!(fmt(4.0), "4");
        assert_eq!(fmt(4.25), "4.25");
    }
}
