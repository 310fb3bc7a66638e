//! Renders `results/figN.csv` into `results/figN.svg` (seconds) and
//! `results/figN_tables.svg` (hardware-independent work).
//!
//! ```text
//! cargo run --release -p ccs-bench --bin plot [-- --out <dir>]
//! ```

use std::path::PathBuf;

use ccs_bench::plot::{render_svg, YAxis};
use ccs_bench::report::parse_csv;

fn main() -> std::io::Result<()> {
    let mut dir = PathBuf::from("results");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--out") {
        if let Some(d) = args.get(i + 1) {
            dir = PathBuf::from(d);
        }
    }
    let mut rendered = 0;
    for n in 1..=8 {
        let csv = dir.join(format!("fig{n}.csv"));
        if !csv.exists() {
            continue;
        }
        match parse_csv(&csv) {
            Ok(rows) => {
                std::fs::write(
                    dir.join(format!("fig{n}.svg")),
                    render_svg(&rows, YAxis::Seconds),
                )?;
                std::fs::write(
                    dir.join(format!("fig{n}_tables.svg")),
                    render_svg(&rows, YAxis::Tables),
                )?;
                rendered += 1;
            }
            Err(e) => eprintln!("skipping {}: {e}", csv.display()),
        }
    }
    if rendered == 0 {
        eprintln!(
            "no figN.csv files under {}; run the fig binaries first",
            dir.display()
        );
        std::process::exit(2);
    }
    eprintln!("rendered {rendered} figures into {}", dir.display());
    Ok(())
}
