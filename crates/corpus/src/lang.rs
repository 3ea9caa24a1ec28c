//! The mini pipeline language notebooks are written in.
//!
//! Real notebooks contain Python; replaying them requires a Python runtime.
//! Our synthetic notebooks are written in a small, Pandas-shaped AST that
//! the replay engine interprets directly — the same information a dynamic
//! tracer extracts from Python (which API was called, on which frames, with
//! which parameters), without the parsing detour. Each statement also
//! renders to Pandas-style source text so notebooks remain human-readable.

use autosuggest_dataframe::ops::{Agg, JoinType};
use std::fmt::Write as _;

/// An expression producing a DataFrame.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// `pd.read_csv(path)` — the path may be "hard-coded" to an absolute
    /// location that only existed on the author's machine (§3.2).
    ReadCsv { path: String },
    /// `pd.json_normalize(json.load(open(path)))`.
    JsonNormalize { path: String, record_path: Option<Vec<String>> },
    /// `pd.merge(left, right, left_on=…, right_on=…, how=…)`.
    Merge {
        left: String,
        right: String,
        left_on: Vec<String>,
        right_on: Vec<String>,
        how: JoinType,
    },
    /// `df.groupby(keys)[cols].agg(…)`.
    GroupBy {
        frame: String,
        keys: Vec<String>,
        aggs: Vec<(String, Agg)>,
    },
    /// `df.pivot_table(index=…, columns=…, values=…, aggfunc=…)`.
    Pivot {
        frame: String,
        index: Vec<String>,
        header: Vec<String>,
        values: String,
        agg: Agg,
    },
    /// `pd.melt(df, id_vars=…, value_vars=…)`.
    Melt {
        frame: String,
        id_vars: Vec<String>,
        value_vars: Vec<String>,
        var_name: String,
        value_name: String,
    },
    /// `pd.concat([a, b, …])`.
    Concat { frames: Vec<String> },
    /// `df.dropna()`.
    DropNa { frame: String, how_all: bool, subset: Option<Vec<String>> },
    /// `df.fillna(value)`.
    FillNa { frame: String, value: FillValue },
    /// A bare variable reference (aliasing).
    Var(String),
}

/// The scalar passed to `fillna` (kept separate from `Value` so the AST
/// stays independent of the engine's value representation).
#[derive(Debug, Clone, PartialEq)]
pub enum FillValue {
    Int(i64),
    Float(f64),
    Str(String),
}

/// A statement in a cell.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// `import pkg` — fails when `pkg` is not installed in the replay
    /// environment, exercising the §3.2 missing-package path.
    Import { package: String },
    /// `var = expr`.
    Assign { var: String, expr: Expr },
    /// `df.head()` style inspection; evaluates but discards.
    Inspect { expr: Expr },
}

/// The parsed body of one code cell.
pub type CellAst = Vec<Stmt>;

/// Render a statement as Pandas-style source text.
pub fn render_stmt(stmt: &Stmt) -> String {
    match stmt {
        Stmt::Import { package } => format!("import {package}"),
        Stmt::Assign { var, expr } => format!("{var} = {}", render_expr(expr)),
        Stmt::Inspect { expr } => render_expr(expr),
    }
}

fn str_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| format!("'{s}'")).collect();
    format!("[{}]", quoted.join(", "))
}

/// Render an expression as Pandas-style source text.
pub fn render_expr(expr: &Expr) -> String {
    match expr {
        Expr::ReadCsv { path } => format!("pd.read_csv('{path}')"),
        Expr::JsonNormalize { path, record_path } => {
            let rp = match record_path {
                Some(p) => format!(", record_path={}", str_list(p)),
                None => String::new(),
            };
            format!("pd.json_normalize(json.load(open('{path}')){rp})")
        }
        Expr::Merge { left, right, left_on, right_on, how } => format!(
            "pd.merge({left}, {right}, left_on={}, right_on={}, how='{how}')",
            str_list(left_on),
            str_list(right_on),
        ),
        Expr::GroupBy { frame, keys, aggs } => {
            let mut s = format!("{frame}.groupby({}).agg({{", str_list(keys));
            for (i, (c, a)) in aggs.iter().enumerate() {
                if i > 0 {
                    s.push_str(", ");
                }
                let _ = write!(s, "'{c}': '{a}'");
            }
            s.push_str("})");
            s
        }
        Expr::Pivot { frame, index, header, values, agg } => format!(
            "{frame}.pivot_table(index={}, columns={}, values='{values}', aggfunc='{agg}')",
            str_list(index),
            str_list(header),
        ),
        Expr::Melt { frame, id_vars, value_vars, var_name, value_name } => format!(
            "pd.melt({frame}, id_vars={}, value_vars={}, var_name='{var_name}', value_name='{value_name}')",
            str_list(id_vars),
            str_list(value_vars),
        ),
        Expr::Concat { frames } => format!("pd.concat([{}])", frames.join(", ")),
        Expr::DropNa { frame, how_all, subset } => {
            let how = if *how_all { "how='all'" } else { "how='any'" };
            match subset {
                Some(cols) => format!("{frame}.dropna({how}, subset={})", str_list(cols)),
                None => format!("{frame}.dropna({how})"),
            }
        }
        Expr::FillNa { frame, value } => {
            let v = match value {
                FillValue::Int(i) => i.to_string(),
                FillValue::Float(f) => f.to_string(),
                FillValue::Str(s) => format!("'{s}'"),
            };
            format!("{frame}.fillna({v})")
        }
        Expr::Var(v) => v.clone(),
    }
}

/// Variables an expression reads (data-flow edges, §3.3).
pub fn expr_inputs(expr: &Expr) -> Vec<&str> {
    match expr {
        Expr::ReadCsv { .. } | Expr::JsonNormalize { .. } => vec![],
        Expr::Merge { left, right, .. } => vec![left, right],
        Expr::GroupBy { frame, .. }
        | Expr::Pivot { frame, .. }
        | Expr::Melt { frame, .. }
        | Expr::DropNa { frame, .. }
        | Expr::FillNa { frame, .. } => vec![frame],
        Expr::Concat { frames } => frames.iter().map(String::as_str).collect(),
        Expr::Var(v) => vec![v],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_merge_like_pandas() {
        let e = Expr::Merge {
            left: "result".into(),
            right: "devices".into(),
            left_on: vec!["device".into()],
            right_on: vec!["Model".into()],
            how: JoinType::Left,
        };
        assert_eq!(
            render_expr(&e),
            "pd.merge(result, devices, left_on=['device'], right_on=['Model'], how='left')"
        );
    }

    #[test]
    fn renders_groupby_and_pivot() {
        let g = Expr::GroupBy {
            frame: "df".into(),
            keys: vec!["company".into(), "year".into()],
            aggs: vec![("revenue".into(), Agg::Sum)],
        };
        assert_eq!(
            render_expr(&g),
            "df.groupby(['company', 'year']).agg({'revenue': 'sum'})"
        );
        let p = Expr::Pivot {
            frame: "df".into(),
            index: vec!["company".into()],
            header: vec!["year".into()],
            values: "revenue".into(),
            agg: Agg::Sum,
        };
        assert!(render_expr(&p).contains("pivot_table(index=['company']"));
    }

    #[test]
    fn renders_statements() {
        let s = Stmt::Assign {
            var: "df".into(),
            expr: Expr::ReadCsv { path: "D:\\proj\\titanic.csv".into() },
        };
        assert_eq!(render_stmt(&s), "df = pd.read_csv('D:\\proj\\titanic.csv')");
        assert_eq!(
            render_stmt(&Stmt::Import { package: "seaborn".into() }),
            "import seaborn"
        );
    }

    #[test]
    fn expr_inputs_track_dataflow() {
        let e = Expr::Concat { frames: vec!["a".into(), "b".into()] };
        assert_eq!(expr_inputs(&e), vec!["a", "b"]);
        assert!(expr_inputs(&Expr::ReadCsv { path: "x.csv".into() }).is_empty());
        let m = Expr::Melt {
            frame: "wide".into(),
            id_vars: vec![],
            value_vars: vec!["2006".into()],
            var_name: "year".into(),
            value_name: "v".into(),
        };
        assert_eq!(expr_inputs(&m), vec!["wide"]);
    }
}
