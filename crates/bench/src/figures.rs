//! One function per evaluation figure of the paper.
//!
//! | Figure | Constraint | x axis | Algorithms |
//! |--------|-----------|--------|------------|
//! | 1 (a,b) | `max(price) ≤ v`, selectivity 50% (anti-monotone + succinct) | baskets | BMS+, BMS++, BMS** |
//! | 2 (a,b) | `max(price) ≤ v` | selectivity | BMS+, BMS++, BMS** |
//! | 3 (a,b) | `sum(price) ≤ maxsum`, selectivity 50% (anti-monotone) | baskets | BMS+, BMS++, BMS** |
//! | 4 (a,b) | `sum(price) ≤ maxsum` | maxsum | BMS+, BMS++, BMS** |
//! | 5 (a,b) | `min(price) ≤ v`, selectivity 50% (monotone + succinct) | baskets | BMS+, BMS++ |
//! | 6 (a,b) | `min(price) ≤ v` | selectivity | BMS+, BMS++ |
//! | 7 (a,b) | `min(price) ≤ v`, selectivity 50% | baskets | BMS*, BMS** |
//! | 8 (a,b) | `min(price) ≤ v` | selectivity | BMS*, BMS** |
//!
//! The `(a)` variant of each figure uses Quest data (method 1), the
//! `(b)` variant rule-planted data (method 2); the harness emits both
//! into one CSV distinguished by the `dataset` column.
//!
//! Note on the paper's notation: §4 calls the monotone + succinct
//! constraint "min(S.price) ≥ v", but by Lemma 1 `min ≥` is
//! *anti-monotone*; the monotone + succinct member of the min/max family
//! is `min(S.price) ≤ v`, which is what Figures 5–8 exercise here (and
//! what makes BMS* ≠ BMS+ in them, as the paper's discussion requires).

use ccs_constraints::selectivity::threshold_for_le_selectivity;
use ccs_constraints::{AttributeTable, Constraint, ConstraintSet};
use ccs_core::Algorithm;

use crate::{measure, write_csv, DataMethod, HarnessArgs, SweepRow};

/// The three algorithms compared on anti-monotone constraints
/// (BMS* coincides with BMS+ there, so the paper plots these three).
const AM_ALGOS: [Algorithm; 3] = [
    Algorithm::BmsPlus,
    Algorithm::BmsPlusPlus,
    Algorithm::BmsStarStar,
];
/// `VALID_MIN` pair for the monotone figures 5–6.
const VM_ALGOS: [Algorithm; 2] = [Algorithm::BmsPlus, Algorithm::BmsPlusPlus];
/// `MIN_VALID` pair for the monotone figures 7–8.
const MV_ALGOS: [Algorithm; 2] = [Algorithm::BmsStar, Algorithm::BmsStarStar];

/// All figures, for `all_figs` style drivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Figure {
    /// Anti-monotone + succinct vs baskets.
    Fig1,
    /// Anti-monotone + succinct vs selectivity.
    Fig2,
    /// Anti-monotone (sum) vs baskets.
    Fig3,
    /// Anti-monotone (sum) vs maxsum.
    Fig4,
    /// Monotone + succinct, `VALID_MIN`, vs baskets.
    Fig5,
    /// Monotone + succinct, `VALID_MIN`, vs selectivity.
    Fig6,
    /// Monotone + succinct, `MIN_VALID`, vs baskets.
    Fig7,
    /// Monotone + succinct, `MIN_VALID`, vs selectivity.
    Fig8,
}

impl Figure {
    /// All eight figures in paper order.
    pub const ALL: [Figure; 8] = [
        Figure::Fig1,
        Figure::Fig2,
        Figure::Fig3,
        Figure::Fig4,
        Figure::Fig5,
        Figure::Fig6,
        Figure::Fig7,
        Figure::Fig8,
    ];

    /// The figure's id string (`"fig1"` …).
    pub fn name(self) -> &'static str {
        match self {
            Figure::Fig1 => "fig1",
            Figure::Fig2 => "fig2",
            Figure::Fig3 => "fig3",
            Figure::Fig4 => "fig4",
            Figure::Fig5 => "fig5",
            Figure::Fig6 => "fig6",
            Figure::Fig7 => "fig7",
            Figure::Fig8 => "fig8",
        }
    }

    /// Runs the figure's sweep and returns its rows.
    pub fn run(self, args: &HarnessArgs) -> Vec<SweepRow> {
        match self {
            Figure::Fig1 => sweep_baskets(self, args, &AM_ALGOS, |attrs| {
                let v = threshold_for_le_selectivity(attrs, "price", 0.5);
                ConstraintSet::new().and(Constraint::max_le("price", v))
            }),
            Figure::Fig2 => sweep_selectivity(self, args, &AM_ALGOS, |attrs, sel| {
                let v = threshold_for_le_selectivity(attrs, "price", sel);
                ConstraintSet::new().and(Constraint::max_le("price", v))
            }),
            Figure::Fig3 => sweep_baskets(self, args, &AM_ALGOS, |attrs| {
                let maxsum = threshold_for_le_selectivity(attrs, "price", 0.5);
                ConstraintSet::new().and(Constraint::sum_le("price", maxsum))
            }),
            Figure::Fig4 => sweep_maxsum(self, args, &AM_ALGOS),
            Figure::Fig5 => sweep_baskets(self, args, &VM_ALGOS, |attrs| {
                let v = threshold_for_le_selectivity(attrs, "price", 0.5);
                ConstraintSet::new().and(Constraint::min_le("price", v))
            }),
            Figure::Fig6 => sweep_selectivity(self, args, &VM_ALGOS, |attrs, sel| {
                let v = threshold_for_le_selectivity(attrs, "price", sel);
                ConstraintSet::new().and(Constraint::min_le("price", v))
            }),
            Figure::Fig7 => sweep_baskets(self, args, &MV_ALGOS, |attrs| {
                let v = threshold_for_le_selectivity(attrs, "price", 0.5);
                ConstraintSet::new().and(Constraint::min_le("price", v))
            }),
            Figure::Fig8 => sweep_selectivity(self, args, &MV_ALGOS, |attrs, sel| {
                let v = threshold_for_le_selectivity(attrs, "price", sel);
                ConstraintSet::new().and(Constraint::min_le("price", v))
            }),
        }
    }

    /// Runs the sweep, prints it, and writes `<out>/<name>.csv`.
    ///
    /// # Errors
    ///
    /// Any I/O error writing the CSV.
    pub fn run_and_save(self, args: &HarnessArgs) -> std::io::Result<Vec<SweepRow>> {
        eprintln!(
            "running {} ({} items, up to {} baskets)…",
            self.name(),
            args.scale.n_items,
            args.scale
                .basket_sweep
                .last()
                .copied()
                .unwrap_or(args.scale.fixed_baskets)
        );
        let rows = self.run(args);
        crate::print_table(&rows);
        let path = args.out_dir.join(format!("{}.csv", self.name()));
        write_csv(&path, &rows)?;
        eprintln!("wrote {}", path.display());
        Ok(rows)
    }
}

/// CPU usage as a function of the number of baskets, constraint fixed.
fn sweep_baskets(
    figure: Figure,
    args: &HarnessArgs,
    algorithms: &[Algorithm],
    constraint_for: impl Fn(&AttributeTable) -> ConstraintSet,
) -> Vec<SweepRow> {
    let attrs = AttributeTable::with_identity_prices(args.scale.n_items);
    let constraints = constraint_for(&attrs);
    let mut rows = Vec::new();
    for method in DataMethod::both() {
        for &n in &args.scale.basket_sweep {
            let db = method.generate(args.scale.n_items, n, args.seed);
            for &algo in algorithms {
                rows.push(measure(
                    figure.name(),
                    method,
                    "baskets",
                    n as f64,
                    &db,
                    &attrs,
                    &constraints,
                    algo,
                ));
            }
        }
    }
    rows
}

/// CPU usage as a function of constraint selectivity, baskets fixed.
fn sweep_selectivity(
    figure: Figure,
    args: &HarnessArgs,
    algorithms: &[Algorithm],
    constraint_for: impl Fn(&AttributeTable, f64) -> ConstraintSet,
) -> Vec<SweepRow> {
    let attrs = AttributeTable::with_identity_prices(args.scale.n_items);
    let mut rows = Vec::new();
    for method in DataMethod::both() {
        let db = method.generate(args.scale.n_items, args.scale.fixed_baskets, args.seed);
        for &sel in &args.scale.selectivities {
            let constraints = constraint_for(&attrs, sel);
            for &algo in algorithms {
                rows.push(measure(
                    figure.name(),
                    method,
                    "selectivity",
                    sel,
                    &db,
                    &attrs,
                    &constraints,
                    algo,
                ));
            }
        }
    }
    rows
}

/// Figure 4: CPU usage as a function of `maxsum` for
/// `sum(price) ≤ maxsum`, baskets fixed. With item `i` priced `i+1`
/// (`price ∈ 1..=N`), `maxsum = 4N` no longer prunes anything — the
/// paper's "no pruning effect from the constraint anymore" endpoint.
fn sweep_maxsum(figure: Figure, args: &HarnessArgs, algorithms: &[Algorithm]) -> Vec<SweepRow> {
    let attrs = AttributeTable::with_identity_prices(args.scale.n_items);
    let mut rows = Vec::new();
    for method in DataMethod::both() {
        let db = method.generate(args.scale.n_items, args.scale.fixed_baskets, args.seed);
        for &mult in &args.scale.maxsum_multipliers {
            let maxsum = mult * args.scale.n_items as f64;
            let constraints = ConstraintSet::new().and(Constraint::sum_le("price", maxsum));
            for &algo in algorithms {
                rows.push(measure(
                    figure.name(),
                    method,
                    "maxsum",
                    maxsum,
                    &db,
                    &attrs,
                    &constraints,
                    algo,
                ));
            }
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;
    use std::path::PathBuf;

    fn tiny_args() -> HarnessArgs {
        HarnessArgs {
            scale: Scale {
                n_items: 20,
                basket_sweep: vec![100, 200],
                fixed_baskets: 200,
                selectivities: vec![0.2, 0.8],
                maxsum_multipliers: vec![0.5, 4.0],
            },
            out_dir: PathBuf::from("/tmp/ccs-bench-test"),
            seed: 1,
        }
    }

    #[test]
    fn every_figure_produces_full_grid() {
        let args = tiny_args();
        for fig in Figure::ALL {
            let rows = fig.run(&args);
            let algos: usize = match fig {
                Figure::Fig1 | Figure::Fig2 | Figure::Fig3 | Figure::Fig4 => 3,
                _ => 2,
            };
            assert_eq!(rows.len(), 2 * 2 * algos, "row count for {}", fig.name());
            assert!(rows.iter().all(|r| r.figure == fig.name()));
        }
    }

    #[test]
    fn fig2_pruning_grows_with_lower_selectivity() {
        let args = tiny_args();
        let rows = Figure::Fig2.run(&args);
        // For each dataset: BMS++ tables at selectivity 0.2 must be fewer
        // than at 0.8, while BMS+ tables are unchanged (it ignores the
        // constraint for pruning).
        for ds in ["quest", "rules"] {
            let t = |sel: f64, algo: &str| {
                rows.iter()
                    .find(|r| r.dataset == ds && r.x == sel && r.algorithm == algo)
                    .unwrap()
                    .tables
            };
            assert!(
                t(0.2, "BMS++") < t(0.8, "BMS++"),
                "{ds}: BMS++ not selective"
            );
            assert_eq!(t(0.2, "BMS+"), t(0.8, "BMS+"), "{ds}: BMS+ should be flat");
        }
    }

    #[test]
    fn fig1_answers_agree_across_algorithms() {
        // All three algorithms answer the same query under anti-monotone
        // constraints (Theorem 1.2), so their answer counts must match.
        let args = tiny_args();
        let rows = Figure::Fig1.run(&args);
        for ds in ["quest", "rules"] {
            for &n in &args.scale.basket_sweep {
                let answers: Vec<usize> = rows
                    .iter()
                    .filter(|r| r.dataset == ds && r.x == n as f64)
                    .map(|r| r.answers)
                    .collect();
                assert!(
                    answers.windows(2).all(|w| w[0] == w[1]),
                    "{ds}@{n}: {answers:?}"
                );
            }
        }
    }
}
