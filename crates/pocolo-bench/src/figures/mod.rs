//! One generator per table/figure of the paper's evaluation, plus the
//! ablation studies called out in DESIGN.md §5.

pub mod ablations;
pub mod analysis;
pub mod evaluation;
pub mod motivation;
pub mod tables;
pub mod tco;

/// Runs every generator in paper order (`pocolo figures`).
pub fn run_all() {
    let bench = crate::common::Bench::new();
    tables::table1();
    tables::table2(&bench);
    motivation::fig01(&bench);
    motivation::fig02(&bench);
    motivation::fig03(&bench);
    motivation::fig04(&bench);
    analysis::fig05(&bench);
    analysis::fig06(&bench);
    analysis::fig08(&bench);
    analysis::fig09_11(&bench);
    tables::fig07();
    let eval = evaluation::run_policies();
    evaluation::fig12(&eval);
    evaluation::fig12_by_level();
    evaluation::fig13(&eval);
    evaluation::fig14(&bench);
    tco::fig15(&eval);
    evaluation::headline(&eval);
    ablations::slack_filter(&bench);
    ablations::myopic_placement(&bench);
    ablations::solver_choice(&bench);
    ablations::fairness(&bench);
    ablations::consolidation(eval.pocolo.summary.avg_be_throughput);
    ablations::sharing(&bench);
    ablations::rebalance(&bench);
}
