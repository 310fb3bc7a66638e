//! The §3.3 cost-model validation: prints the number of sets each of
//! the four algorithms considers (`|BMS+|`, `|BMS++|`, `|BMS*|`,
//! `|BMS**|`) for each constraint class, so the analysis's orderings can
//! be checked directly:
//!
//! * `|BMS++| ≤ |BMS+|` always (up to the bounded verification tables),
//! * with anti-monotone constraints, all four compute the same answers
//!   and BMS++ considers the fewest sets,
//! * with monotone constraints, `|BMS*|` vs `|BMS**|` flips with
//!   selectivity.
//!
//! ```text
//! cargo run --release -p ccs-bench --bin ablation_counts [-- --paper]
//! ```

use ccs_bench::{measure, DataMethod, HarnessArgs};
use ccs_constraints::selectivity::threshold_for_le_selectivity;
use ccs_constraints::{AttributeTable, Constraint, ConstraintSet};
use ccs_core::Algorithm;

/// A constraint class: its label, and the constraint set it yields at a
/// given selectivity.
type ConstraintClass = (&'static str, Box<dyn Fn(f64) -> ConstraintSet>);

fn main() {
    let args = HarnessArgs::parse();
    let n_items = args.scale.n_items;
    let baskets = args.scale.fixed_baskets;
    let attrs = AttributeTable::with_identity_prices(n_items);
    let db = DataMethod::Rules.generate(n_items, baskets, args.seed);

    let classes: Vec<ConstraintClass> = vec![
        (
            "anti-monotone + succinct: max(price) <= v",
            Box::new({
                let attrs = attrs.clone();
                move |sel| {
                    let v = threshold_for_le_selectivity(&attrs, "price", sel);
                    ConstraintSet::new().and(Constraint::max_le("price", v))
                }
            }),
        ),
        (
            "anti-monotone: sum(price) <= maxsum",
            Box::new(move |sel| {
                ConstraintSet::new().and(Constraint::sum_le("price", sel * 2.0 * n_items as f64))
            }),
        ),
        (
            "monotone + succinct: min(price) <= v",
            Box::new({
                let attrs = attrs.clone();
                move |sel| {
                    let v = threshold_for_le_selectivity(&attrs, "price", sel);
                    ConstraintSet::new().and(Constraint::min_le("price", v))
                }
            }),
        ),
    ];

    println!("cost-model validation on rule-planted data ({n_items} items, {baskets} baskets)\n");
    for (label, make) in &classes {
        println!("constraint class: {label}");
        println!(
            "{:>11} {:>10} {:>10} {:>10} {:>10}",
            "selectivity", "|BMS+|", "|BMS++|", "|BMS*|", "|BMS**|"
        );
        for &sel in &[0.2, 0.5, 0.8] {
            let constraints = make(sel);
            let counts: Vec<u64> = Algorithm::paper_algorithms()
                .iter()
                .map(|&a| {
                    measure(
                        "ablation",
                        DataMethod::Rules,
                        "sel",
                        sel,
                        &db,
                        &attrs,
                        &constraints,
                        a,
                    )
                    .tables
                })
                .collect();
            println!(
                "{:>11} {:>10} {:>10} {:>10} {:>10}",
                sel, counts[0], counts[1], counts[2], counts[3]
            );
        }
        println!();
    }
}
