//! Gathers `results/figN.csv` files into `results/REPORT.md`.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin report [-- --out <dir>]
//! ```

use std::path::PathBuf;

use ccs_bench::report::{parse_csv, render_markdown};

fn main() -> std::io::Result<()> {
    let mut dir = PathBuf::from("results");
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(i) = args.iter().position(|a| a == "--out") {
        if let Some(d) = args.get(i + 1) {
            dir = PathBuf::from(d);
        }
    }
    let mut doc = String::from(
        "# Harness report\n\nGenerated from the CSVs in this directory by \
         `cargo run -p ccs-bench --bin report`.\n\n",
    );
    let mut found = 0;
    for n in 1..=8 {
        let path = dir.join(format!("fig{n}.csv"));
        if !path.exists() {
            continue;
        }
        match parse_csv(&path) {
            Ok(rows) => {
                doc.push_str(&render_markdown(&rows));
                found += 1;
            }
            Err(e) => eprintln!("skipping {}: {e}", path.display()),
        }
    }
    if found == 0 {
        eprintln!(
            "no figN.csv files under {}; run the fig binaries first",
            dir.display()
        );
        std::process::exit(2);
    }
    let out = dir.join("REPORT.md");
    std::fs::write(&out, doc)?;
    eprintln!("wrote {} ({found} figures)", out.display());
    Ok(())
}
