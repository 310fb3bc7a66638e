//! Hand-rolled SVG line charts for the figure CSVs.
//!
//! No plotting crate is on the dependency list, and the charts needed
//! here are simple: one line per (dataset, algorithm) series, linear
//! axes, a legend — the visual form of the paper's figures. The `plot`
//! binary renders `results/figN.csv` into `results/figN.svg`.

use std::fmt::Write as _;

use crate::SweepRow;

const WIDTH: f64 = 640.0;
const HEIGHT: f64 = 400.0;
const MARGIN_L: f64 = 64.0;
const MARGIN_R: f64 = 150.0;
const MARGIN_T: f64 = 40.0;
const MARGIN_B: f64 = 48.0;

/// A muted, print-friendly palette (one entry per series, cycled).
const COLORS: [&str; 6] = [
    "#4269d0", "#efb118", "#ff725c", "#6cc5b0", "#a463f2", "#97bbf5",
];

/// Which measured quantity to plot on the y axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YAxis {
    /// Wall-clock seconds (the paper's "cpu time (s)").
    Seconds,
    /// Contingency tables built (hardware-independent work).
    Tables,
}

impl YAxis {
    fn label(self) -> &'static str {
        match self {
            YAxis::Seconds => "cpu time (s)",
            YAxis::Tables => "contingency tables",
        }
    }

    fn value(self, r: &SweepRow) -> f64 {
        match self {
            YAxis::Seconds => r.seconds,
            YAxis::Tables => r.tables as f64,
        }
    }
}

/// Renders one figure's rows as an SVG line chart, one line per
/// (dataset, algorithm) series. Returns an empty string for empty
/// input.
pub fn render_svg(rows: &[SweepRow], y_axis: YAxis) -> String {
    if rows.is_empty() {
        return String::new();
    }
    let title = format!(
        "{} — {} vs {}",
        rows[0].figure,
        y_axis.label(),
        rows[0].x_name
    );

    // Series keyed by (dataset, algorithm), points sorted by x.
    let mut series: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for r in rows {
        let key = format!("{}/{}", r.dataset, r.algorithm);
        let i = match series.iter().position(|(k, _)| *k == key) {
            Some(i) => i,
            None => {
                series.push((key, Vec::new()));
                series.len() - 1
            }
        };
        series[i].1.push((r.x, y_axis.value(r)));
    }
    for (_, pts) in &mut series {
        pts.sort_by(|a, b| a.0.total_cmp(&b.0));
    }

    let xs: Vec<f64> = rows.iter().map(|r| r.x).collect();
    let ys: Vec<f64> = rows.iter().map(|r| y_axis.value(r)).collect();
    let (x_min, x_max) = bounds(&xs);
    let (_, y_max) = bounds(&ys);
    let y_min = 0.0; // the paper's figures all start at zero
    let y_max = if y_max <= y_min { y_min + 1.0 } else { y_max };

    let plot_w = WIDTH - MARGIN_L - MARGIN_R;
    let plot_h = HEIGHT - MARGIN_T - MARGIN_B;
    let px = |x: f64| MARGIN_L + (x - x_min) / (x_max - x_min).max(f64::MIN_POSITIVE) * plot_w;
    let py = |y: f64| MARGIN_T + plot_h - (y - y_min) / (y_max - y_min) * plot_h;

    let mut svg = String::new();
    let _ = write!(
        svg,
        r#"<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">"#
    );
    let _ = write!(
        svg,
        r#"<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>"#
    );
    let _ = write!(
        svg,
        r#"<text x="{}" y="20" text-anchor="middle" font-size="14">{title}</text>"#,
        MARGIN_L + plot_w / 2.0
    );

    // Axes.
    let _ = write!(
        svg,
        r#"<line x1="{l}" y1="{b}" x2="{r}" y2="{b}" stroke="black"/><line x1="{l}" y1="{t}" x2="{l}" y2="{b}" stroke="black"/>"#,
        l = MARGIN_L,
        r = MARGIN_L + plot_w,
        t = MARGIN_T,
        b = MARGIN_T + plot_h
    );
    // Ticks: 5 per axis.
    for i in 0..=4 {
        let fx = x_min + (x_max - x_min) * i as f64 / 4.0;
        let fy = y_min + (y_max - y_min) * i as f64 / 4.0;
        let _ = write!(
            svg,
            r#"<line x1="{x}" y1="{b}" x2="{x}" y2="{b2}" stroke="black"/><text x="{x}" y="{ty}" text-anchor="middle">{label}</text>"#,
            x = px(fx),
            b = MARGIN_T + plot_h,
            b2 = MARGIN_T + plot_h + 5.0,
            ty = MARGIN_T + plot_h + 20.0,
            label = tick_label(fx)
        );
        let _ = write!(
            svg,
            r#"<line x1="{l}" y1="{y}" x2="{l2}" y2="{y}" stroke="black"/><text x="{tx}" y="{ty}" text-anchor="end">{label}</text>"#,
            l = MARGIN_L,
            l2 = MARGIN_L - 5.0,
            y = py(fy),
            tx = MARGIN_L - 8.0,
            ty = py(fy) + 4.0,
            label = tick_label(fy)
        );
    }
    // Axis titles.
    let _ = write!(
        svg,
        r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
        MARGIN_L + plot_w / 2.0,
        HEIGHT - 8.0,
        rows[0].x_name
    );

    // Series lines + legend.
    for (idx, (name, pts)) in series.iter().enumerate() {
        let color = COLORS[idx % COLORS.len()];
        let path: String = pts
            .iter()
            .enumerate()
            .map(|(i, &(x, y))| {
                format!(
                    "{}{:.1},{:.1}",
                    if i == 0 { "M" } else { "L" },
                    px(x),
                    py(y)
                )
            })
            .collect();
        let _ = write!(
            svg,
            r#"<path d="{path}" fill="none" stroke="{color}" stroke-width="2"/>"#
        );
        for &(x, y) in pts {
            let _ = write!(
                svg,
                r#"<circle cx="{:.1}" cy="{:.1}" r="3" fill="{color}"/>"#,
                px(x),
                py(y)
            );
        }
        let ly = MARGIN_T + 14.0 * idx as f64;
        let _ = write!(
            svg,
            r#"<line x1="{lx}" y1="{ly}" x2="{lx2}" y2="{ly}" stroke="{color}" stroke-width="2"/><text x="{tx}" y="{ty}">{name}</text>"#,
            lx = MARGIN_L + plot_w + 10.0,
            lx2 = MARGIN_L + plot_w + 30.0,
            tx = MARGIN_L + plot_w + 36.0,
            ty = ly + 4.0
        );
    }
    svg.push_str("</svg>");
    svg
}

fn bounds(values: &[f64]) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for &v in values {
        min = min.min(v);
        max = max.max(v);
    }
    (min, max)
}

fn tick_label(v: f64) -> String {
    if v.abs() >= 1000.0 {
        format!("{:.0}k", v / 1000.0)
    } else if v.abs() >= 10.0 || v == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<SweepRow> {
        ["BMS+", "BMS++"]
            .iter()
            .flat_map(|a| {
                [500.0, 1000.0, 2000.0].iter().map(move |&x| SweepRow {
                    figure: "fig1".into(),
                    dataset: "quest".into(),
                    x_name: "baskets".into(),
                    x,
                    algorithm: (*a).into(),
                    seconds: x / 1000.0 * if *a == "BMS+" { 1.0 } else { 0.1 },
                    tables: x as u64,
                    candidates: x as u64,
                    answers: 3,
                })
            })
            .collect()
    }

    #[test]
    fn svg_has_one_series_per_dataset_algorithm() {
        let svg = render_svg(&rows(), YAxis::Seconds);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>"));
        assert_eq!(svg.matches("<path").count(), 2);
        assert!(svg.contains("quest/BMS+"));
        assert!(svg.contains("quest/BMS++"));
        assert!(svg.contains("cpu time (s)"));
    }

    #[test]
    fn tables_axis_uses_table_counts() {
        let svg = render_svg(&rows(), YAxis::Tables);
        assert!(svg.contains("contingency tables"));
    }

    #[test]
    fn empty_rows_render_empty() {
        assert!(render_svg(&[], YAxis::Seconds).is_empty());
    }

    #[test]
    fn tick_labels_are_compact() {
        assert_eq!(tick_label(4000.0), "4k");
        assert_eq!(tick_label(25.0), "25");
        assert_eq!(tick_label(0.5), "0.50");
        assert_eq!(tick_label(0.0), "0");
    }

    #[test]
    fn single_point_series_does_not_divide_by_zero() {
        let one = vec![rows()[0].clone()];
        let svg = render_svg(&one, YAxis::Seconds);
        assert!(svg.contains("<circle"));
        assert!(!svg.contains("NaN"));
    }
}
