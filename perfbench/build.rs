//! Build facts for the benchmark binary.
//!
//! * `PERFBENCH_RUSTFLAGS`: the effective compiler flags (RUSTFLAGS or
//!   the `.cargo/config.toml` default), recorded with every result.
//! * `ccs_counter_*` cfgs: which counting strategies the library still
//!   has. The traced run builds the counter `Auto` resolves to by its
//!   concrete type; detecting the types here keeps the benchmark
//!   building after a strategy is deleted from the library.

use std::fs;
use std::path::Path;

/// (cfg name, exported counter type, `CountingStrategy` variant).
const COUNTERS: &[(&str, &str, &str)] = &[
    ("ccs_counter_horizontal", "HorizontalCounter", "Horizontal"),
    ("ccs_counter_vertical", "VerticalCounter", "Vertical"),
    ("ccs_counter_parallel", "ParallelCounter", "Parallel"),
    (
        "ccs_counter_vertical_par",
        "ParallelVerticalCounter",
        "VerticalPar",
    ),
    ("ccs_counter_sharded", "ShardedVerticalCounter", "Sharded"),
    ("ccs_counter_fptree", "FpTreeCounter", "FpTree"),
];

fn main() {
    let flags = std::env::var("CARGO_ENCODED_RUSTFLAGS").unwrap_or_default();
    let flags = flags.split('\x1f').collect::<Vec<_>>().join(" ");
    println!("cargo::rustc-env=PERFBENCH_RUSTFLAGS={flags}");

    let itemset_lib = Path::new("../crates/itemset/src/lib.rs");
    let miner = Path::new("../crates/core/src/miner.rs");
    println!("cargo::rerun-if-changed={}", itemset_lib.display());
    println!("cargo::rerun-if-changed={}", miner.display());
    let exports = fs::read_to_string(itemset_lib).unwrap_or_default();
    let variants = fs::read_to_string(miner).unwrap_or_default();
    for (cfg, ty, variant) in COUNTERS {
        println!("cargo::rustc-check-cfg=cfg({cfg})");
        if has_ident(&exports, ty) && has_ident(&variants, variant) {
            println!("cargo::rustc-cfg={cfg}");
        }
    }
}

/// `true` when `ident` occurs in `src` as a whole identifier.
fn has_ident(src: &str, ident: &str) -> bool {
    src.split(|c: char| !(c.is_alphanumeric() || c == '_'))
        .any(|word| word == ident)
}
