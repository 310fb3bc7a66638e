//! Turning harness CSVs back into readable reports.
//!
//! `figN` binaries emit `results/figN.csv`; the `report` binary gathers
//! them into one markdown document with a pivot table per figure and
//! dataset (x values as rows, algorithms as columns), plus derived
//! speedup columns — the form the comparisons in EXPERIMENTS.md take.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::fs;
use std::path::Path;

use crate::SweepRow;

/// Parses one of this crate's own CSV files back into rows.
///
/// # Errors
///
/// Returns a human-readable message on I/O or format errors.
pub fn parse_csv(path: &Path) -> Result<Vec<SweepRow>, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut lines = text.lines();
    match lines.next() {
        Some(h) if h == SweepRow::CSV_HEADER => {}
        Some(h) => return Err(format!("{}: unexpected header '{h}'", path.display())),
        None => return Err(format!("{}: empty file", path.display())),
    }
    let mut rows = Vec::new();
    for (idx, line) in lines.enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let f: Vec<&str> = line.split(',').collect();
        if f.len() != 9 {
            return Err(format!(
                "{}: line {} has {} fields",
                path.display(),
                idx + 2,
                f.len()
            ));
        }
        let parse_f64 = |s: &str, what: &str| {
            s.parse::<f64>()
                .map_err(|_| format!("{}: line {}: bad {what} '{s}'", path.display(), idx + 2))
        };
        let parse_u64 = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| format!("{}: line {}: bad {what} '{s}'", path.display(), idx + 2))
        };
        rows.push(SweepRow {
            figure: f[0].to_owned(),
            dataset: f[1].to_owned(),
            x_name: f[2].to_owned(),
            x: parse_f64(f[3], "x")?,
            algorithm: f[4].to_owned(),
            seconds: parse_f64(f[5], "seconds")?,
            tables: parse_u64(f[6], "tables")?,
            candidates: parse_u64(f[7], "candidates")?,
            answers: parse_u64(f[8], "answers")? as usize,
        });
    }
    Ok(rows)
}

/// Renders one figure's rows as markdown pivot tables (one per
/// dataset): x values down, per-algorithm `seconds (tables)` across,
/// and a naive-vs-best speedup column.
pub fn render_markdown(rows: &[SweepRow]) -> String {
    let mut out = String::new();
    if rows.is_empty() {
        return out;
    }
    let figure = &rows[0].figure;
    let x_name = &rows[0].x_name;
    let datasets: BTreeSet<&str> = rows.iter().map(|r| r.dataset.as_str()).collect();
    let _ = writeln!(out, "## {figure} — CPU vs {x_name}\n");
    for ds in datasets {
        let subset: Vec<&SweepRow> = rows.iter().filter(|r| r.dataset == ds).collect();
        // Preserve first-appearance algorithm order (naive first by
        // harness convention).
        let mut algos: Vec<&str> = Vec::new();
        for r in &subset {
            if !algos.contains(&r.algorithm.as_str()) {
                algos.push(&r.algorithm);
            }
        }
        let mut xs: Vec<f64> = subset.iter().map(|r| r.x).collect();
        xs.sort_by(f64::total_cmp);
        xs.dedup();

        let _ = writeln!(out, "### dataset: {ds}\n");
        let mut header = format!("| {x_name} |");
        let mut rule = String::from("|---|");
        for a in &algos {
            let _ = write!(header, " {a} s (tables) |");
            rule.push_str("---|");
        }
        header.push_str(" speedup |");
        rule.push_str("---|");
        let _ = writeln!(out, "{header}");
        let _ = writeln!(out, "{rule}");
        for &x in &xs {
            let mut line = format!("| {x} |");
            let mut naive_secs = None;
            let mut best_secs = f64::INFINITY;
            for a in &algos {
                match subset.iter().find(|r| r.x == x && r.algorithm == *a) {
                    Some(r) => {
                        let _ = write!(line, " {:.3} ({}) |", r.seconds, r.tables);
                        if naive_secs.is_none() {
                            naive_secs = Some(r.seconds);
                        }
                        best_secs = best_secs.min(r.seconds);
                    }
                    None => line.push_str(" — |"),
                }
            }
            let speedup = match naive_secs {
                Some(n) if best_secs > 0.0 => format!("{:.1}×", n / best_secs),
                _ => "—".to_owned(),
            };
            let _ = writeln!(out, "{line} {speedup} |");
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<SweepRow> {
        vec![
            SweepRow {
                figure: "fig1".into(),
                dataset: "quest".into(),
                x_name: "baskets".into(),
                x: 500.0,
                algorithm: "BMS+".into(),
                seconds: 1.0,
                tables: 100,
                candidates: 100,
                answers: 5,
            },
            SweepRow {
                figure: "fig1".into(),
                dataset: "quest".into(),
                x_name: "baskets".into(),
                x: 500.0,
                algorithm: "BMS++".into(),
                seconds: 0.25,
                tables: 20,
                candidates: 25,
                answers: 5,
            },
        ]
    }

    #[test]
    fn csv_roundtrip_through_file() {
        let dir = std::env::temp_dir().join("ccs-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig1.csv");
        crate::write_csv(&path, &rows()).unwrap();
        let back = parse_csv(&path).unwrap();
        assert_eq!(back, rows());
    }

    #[test]
    fn parse_rejects_bad_header_and_fields() {
        let dir = std::env::temp_dir().join("ccs-report-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.csv");
        std::fs::write(&path, "nope\n").unwrap();
        assert!(parse_csv(&path).unwrap_err().contains("unexpected header"));
        std::fs::write(&path, format!("{}\na,b,c\n", SweepRow::CSV_HEADER)).unwrap();
        assert!(parse_csv(&path).unwrap_err().contains("fields"));
    }

    #[test]
    fn markdown_contains_pivot_and_speedup() {
        let md = render_markdown(&rows());
        assert!(md.contains("## fig1 — CPU vs baskets"));
        assert!(md.contains("### dataset: quest"));
        assert!(md.contains("| 500 |"));
        assert!(md.contains("4.0×"), "speedup missing from:\n{md}");
    }

    #[test]
    fn empty_rows_render_empty() {
        assert!(render_markdown(&[]).is_empty());
    }
}
