//! Replay instrumentation on the Fig. 4 pipeline: two reads → merge →
//! pivot + groupby, with a hard-coded absolute path the engine must repair.
//!
//! ```text
//! cargo run --release --example notebook_replay
//! ```

use auto_suggest::corpus::lang::{Expr, Stmt};
use auto_suggest::corpus::{Cell, DatasetRepository, Notebook, ReplayEngine};
use auto_suggest::dataframe::ops::{Agg, JoinType};

fn main() {
    let mut nb = Notebook::new("fig4-demo", "titanic");
    nb.add_file(
        "data/passengers.csv",
        "passenger_id,name,klass\n1,Allen,1\n2,Braund,3\n3,Cumings,1\n4,Futrelle,1\n5,Heikkinen,3\n",
    );
    nb.add_file(
        "data/fares.csv",
        "pid,year,fare\n1,1912,211.5\n2,1912,7.25\n3,1912,71.28\n4,1912,53.1\n5,1912,7.92\n",
    );

    nb.push_cell(Cell::code(vec![Stmt::Import { package: "pandas".into() }]));
    // Hard-coded author path (§3.2): replay resolves it by basename search.
    nb.push_cell(Cell::code(vec![Stmt::Assign {
        var: "info".into(),
        expr: Expr::ReadCsv { path: "D:\\kaggle\\passengers.csv".into() },
    }]));
    nb.push_cell(Cell::code(vec![Stmt::Assign {
        var: "fares".into(),
        expr: Expr::ReadCsv { path: "data/fares.csv".into() },
    }]));
    nb.push_cell(Cell::code(vec![Stmt::Assign {
        var: "psg".into(),
        expr: Expr::Merge {
            left: "info".into(),
            right: "fares".into(),
            left_on: vec!["passenger_id".into()],
            right_on: vec!["pid".into()],
            how: JoinType::Inner,
        },
    }]));
    nb.push_cell(Cell::code(vec![Stmt::Assign {
        var: "by_class".into(),
        expr: Expr::Pivot {
            frame: "psg".into(),
            index: vec!["klass".into()],
            header: vec!["year".into()],
            values: "fare".into(),
            agg: Agg::Mean,
        },
    }]));
    nb.push_cell(Cell::code(vec![Stmt::Assign {
        var: "totals".into(),
        expr: Expr::GroupBy {
            frame: "psg".into(),
            keys: vec!["klass".into()],
            aggs: vec![("fare".into(), Agg::Sum)],
        },
    }]));

    println!("Notebook source:");
    for (i, cell) in nb.cells.iter().enumerate() {
        println!("--- cell {i} ---\n{}", cell.source());
    }

    let engine = ReplayEngine::new(DatasetRepository::new());
    let report = engine.replay(&nb);
    println!("\nReplay outcome: {:?}", report.outcome);
    println!("Files recovered: {:?}", report.files_recovered);

    println!("\nInstrumented invocations:");
    for inv in &report.invocations {
        println!(
            "  cell {} {:<8} inputs {:?} -> {} rows x {} cols (hash {:016x})",
            inv.cell_index,
            inv.op.to_string(),
            inv.inputs.iter().map(|t| t.num_rows()).collect::<Vec<_>>(),
            inv.output_rows,
            inv.output_cols,
            inv.output_hash,
        );
    }

    // Each invocation is one edge of the data-flow graph, in execution order.
    println!("\nData-flow graph (Fig. 4):");
    for (step, inv) in report.invocations.iter().enumerate() {
        println!(
            "  step {step}: {:?} --{}-> {:016x}",
            inv.input_hashes.iter().map(|h| format!("{h:016x}")).collect::<Vec<_>>(),
            inv.op,
            inv.output_hash,
        );
    }
    let sequence: Vec<_> = report.op_sequence().map(|inv| inv.op).collect();
    println!("\nOperator sequence: {sequence:?}");
}
