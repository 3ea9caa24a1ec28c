//! The notebook representation: cells, attached repository files, and the
//! provenance metadata the splitter needs.

use crate::lang::{render_stmt, CellAst};
use std::collections::HashMap;
use std::sync::Arc;

/// One notebook cell: executable statements plus optional adjacent
/// markdown (which may contain data-set URLs the replay engine scavenges,
/// §3.2 method 2).
#[derive(Debug, Clone)]
pub struct Cell {
    pub ast: CellAst,
    /// Markdown text adjacent to this code cell.
    pub markdown: Option<String>,
}

impl Cell {
    pub fn code(ast: CellAst) -> Self {
        Cell { ast, markdown: None }
    }

    /// Render the cell as source text (what `.ipynb` JSON would hold).
    pub fn source(&self) -> String {
        self.ast
            .iter()
            .map(render_stmt)
            .collect::<Vec<_>>()
            .join("\n")
    }
}

/// A notebook together with the repository it was "cloned" with.
#[derive(Debug, Clone)]
pub struct Notebook {
    /// Unique id (the crawl's file identity).
    pub id: String,
    /// The dataset group this notebook works on. The 80/20 splitter keeps
    /// all notebooks of a group on the same side to avoid leakage (§6.1).
    pub dataset_group: String,
    pub cells: Vec<Cell>,
    /// Files present in the notebook's repository, keyed by repo-relative
    /// path (e.g. `data/titanic.csv`) with CSV/JSON text content. Shared
    /// with each replay round's environment, which copies it only when a
    /// file recovery writes to it.
    pub repo_files: Arc<HashMap<String, String>>,
}

impl Notebook {
    pub fn new(id: impl Into<String>, dataset_group: impl Into<String>) -> Self {
        Notebook {
            id: id.into(),
            dataset_group: dataset_group.into(),
            cells: Vec::new(),
            repo_files: Arc::default(),
        }
    }

    pub fn push_cell(&mut self, cell: Cell) {
        self.cells.push(cell);
    }

    pub fn add_file(&mut self, path: impl Into<String>, content: impl Into<String>) {
        Arc::make_mut(&mut self.repo_files).insert(path.into(), content.into());
    }

    /// Total statement count (diagnostics).
    pub fn num_statements(&self) -> usize {
        self.cells.iter().map(|c| c.ast.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lang::{Expr, Stmt};

    #[test]
    fn cell_renders_multi_statement_source() {
        let cell = Cell::code(vec![
            Stmt::Import { package: "pandas".into() },
            Stmt::Assign {
                var: "df".into(),
                expr: Expr::ReadCsv { path: "data.csv".into() },
            },
        ]);
        let src = cell.source();
        assert!(src.starts_with("import pandas\n"));
        assert!(src.contains("pd.read_csv"));
    }

    #[test]
    fn notebook_accumulates_cells_and_files() {
        let mut nb = Notebook::new("nb-1", "titanic");
        nb.push_cell(Cell::code(vec![]));
        nb.add_file("data/titanic.csv", "a,b\n1,2\n");
        assert_eq!(nb.cells.len(), 1);
        assert!(nb.repo_files.contains_key("data/titanic.csv"));
        assert_eq!(nb.num_statements(), 0);
    }
}
