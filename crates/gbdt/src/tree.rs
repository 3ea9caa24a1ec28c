//! A CART-style regression tree with exact greedy splits.
//!
//! ## Split-search kernels
//!
//! Two kernels find splits:
//!
//! - **Presorted** (the production kernel, used by [`RegressionTree::fit`]):
//!   every feature is stable-sorted **once per ensemble**; the sorted
//!   `(row, value)` lists are then partitioned down the tree, so a node's
//!   scan is `O(n)` instead of `O(n log n)`. A counting-sort realignment
//!   pass (see [`scan_feature_presorted`]) reproduces the historical
//!   per-node sort order bit for bit, so the chosen splits — and the
//!   committed goldens — are identical to the re-sort kernel.
//! - **Re-sort** ([`RegressionTree::fit_resort`]): the historical kernel
//!   that re-sorts rows per node per feature. Kept only as the test
//!   reference: the `tree.rs` unit tests and
//!   `tests/train_kernels_equivalence.rs` compare the presorted kernel
//!   against it.
//!
//! Both are deterministic at any thread count: per-feature scans are
//! independent, and candidates are reduced in ascending feature order with
//! a strictly-greater comparison (earliest feature wins ties).

use crate::data::Dataset;
use autosuggest_obs as obs;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for a single regression tree.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TreeParams {
    /// Maximum depth (root = depth 0).
    pub max_depth: usize,
    /// Minimum number of samples a leaf may hold.
    pub min_samples_leaf: usize,
    /// Minimum variance-reduction gain required to split.
    pub min_gain: f64,
}

impl Default for TreeParams {
    fn default() -> Self {
        TreeParams { max_depth: 4, min_samples_leaf: 2, min_gain: 1e-9 }
    }
}

/// Tree nodes stored in a flat arena (indices instead of boxes).
#[derive(Debug, Clone, Serialize, Deserialize)]
enum Node {
    Leaf {
        value: f64,
    },
    Split {
        feature: usize,
        threshold: f64,
        /// Variance-reduction gain of this split, weighted by sample count —
        /// the quantity summed into feature importances.
        gain: f64,
        left: usize,
        right: usize,
    },
}

/// A fitted regression tree. Prediction routes `x[feature] <= threshold`
/// left, otherwise right.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

/// Per-feature row list sorted ascending by feature value (`total_cmp`).
/// Partitioning a node's lists by its split predicate yields the children's
/// lists without re-sorting.
#[derive(Debug, Clone)]
struct FeatureList {
    rows: Vec<u32>,
    vals: Vec<f64>,
}

/// Per-feature presorted row lists for a fixed `(data, row_idx)` pair —
/// independent of targets, so boosting builds this **once per ensemble**
/// and reuses it for every tree.
#[derive(Debug, Clone)]
pub struct Presorted {
    lists: Vec<FeatureList>,
    num_rows: usize,
}

impl Presorted {
    /// Stable-sort every feature over `row_idx` (ties keep `row_idx`
    /// order — exactly the order the historical per-node sort produced at
    /// the root).
    pub fn build(data: &Dataset, row_idx: &[usize]) -> Self {
        let num_features = data.num_features();
        let work = row_idx.len() * num_features;
        let make = |f: usize| -> FeatureList {
            let mut rows: Vec<u32> = row_idx.iter().map(|&i| i as u32).collect();
            rows.sort_by(|&a, &b| {
                data.row(a as usize)[f].total_cmp(&data.row(b as usize)[f])
            });
            let vals: Vec<f64> = rows.iter().map(|&r| data.row(r as usize)[f]).collect();
            FeatureList { rows, vals }
        };
        let lists = if work >= PAR_SPLIT_WORK && autosuggest_parallel::current_threads() > 1 {
            autosuggest_parallel::par_map_indexed(num_features, make)
        } else {
            (0..num_features).map(make).collect()
        };
        Presorted { lists, num_rows: row_idx.len() }
    }
}

/// Reusable per-scan workspace for the presorted kernel. `run_of_row` is
/// indexed by global row id (entries for rows outside the current node are
/// stale and never read).
struct ScanScratch {
    run_of_row: Vec<u32>,
    run_start: Vec<u32>,
    fill: Vec<u32>,
    scan_order: Vec<u32>,
}

impl ScanScratch {
    fn new(num_rows_total: usize) -> Self {
        ScanScratch {
            run_of_row: vec![0; num_rows_total],
            run_start: Vec::new(),
            fill: Vec::new(),
            scan_order: Vec::new(),
        }
    }
}

impl RegressionTree {
    /// Fit a tree to `targets` (residuals, in boosting) over the rows of
    /// `data` restricted to `row_idx`, using the presorted split kernel.
    pub fn fit(data: &Dataset, targets: &[f64], row_idx: &[usize], params: &TreeParams) -> Self {
        let pre = Presorted::build(data, row_idx);
        Self::fit_with_presorted(data, targets, row_idx, params, &pre)
    }

    /// [`Self::fit`] with a caller-provided [`Presorted`] (which must have
    /// been built over the same `data` and `row_idx`). Produces exactly the
    /// tree [`Self::fit`] would.
    pub fn fit_with_presorted(
        data: &Dataset,
        targets: &[f64],
        row_idx: &[usize],
        params: &TreeParams,
        pre: &Presorted,
    ) -> Self {
        assert_eq!(data.len(), targets.len());
        assert!(!row_idx.is_empty(), "cannot fit a tree on zero rows");
        assert_eq!(pre.num_rows, row_idx.len(), "presorted index arity");
        let mut tree = RegressionTree { nodes: Vec::new(), num_features: data.num_features() };
        let mut idx = row_idx.to_vec();
        let mut scratch = ScanScratch::new(data.len());
        tree.build_presorted(data, targets, &mut idx, 0, params, &pre.lists, &mut scratch);
        tree
    }

    /// Historical split kernel: re-sorts rows per node per feature. Kept as
    /// the executable reference for the presorted kernel's equivalence
    /// tests; produces bit-identical trees.
    pub fn fit_resort(
        data: &Dataset,
        targets: &[f64],
        row_idx: &[usize],
        params: &TreeParams,
    ) -> Self {
        assert_eq!(data.len(), targets.len());
        assert!(!row_idx.is_empty(), "cannot fit a tree on zero rows");
        let mut tree = RegressionTree { nodes: Vec::new(), num_features: data.num_features() };
        let mut idx = row_idx.to_vec();
        tree.build_resort(data, targets, &mut idx, 0, params);
        tree
    }

    #[allow(clippy::too_many_arguments)]
    fn build_presorted(
        &mut self,
        data: &Dataset,
        targets: &[f64],
        idx: &mut [usize],
        depth: usize,
        params: &TreeParams,
        lists: &[FeatureList],
        scratch: &mut ScanScratch,
    ) -> usize {
        let mean = idx.iter().map(|&i| targets[i]).sum::<f64>() / idx.len() as f64;
        if depth >= params.max_depth || idx.len() < 2 * params.min_samples_leaf {
            return self.push(Node::Leaf { value: mean });
        }
        match best_split_presorted(data, targets, idx, params, lists, scratch) {
            None => self.push(Node::Leaf { value: mean }),
            Some(split) => {
                // Partition rows in place around the threshold (same swap
                // partition as always — child `idx` order, and therefore
                // every downstream accumulation, matches the historical
                // kernel exactly).
                let mid = partition(idx, |i| data.row(i)[split.feature] <= split.threshold);
                // Children at max depth never scan, so skip their lists.
                let (left_lists, right_lists) = if depth + 1 < params.max_depth {
                    partition_lists(data, lists, split.feature, split.threshold, mid)
                } else {
                    (Vec::new(), Vec::new())
                };
                let (left_idx, right_idx) = idx.split_at_mut(mid);
                debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());
                obs::counter_add("gbdt.nodes_split", 1);
                let node = self.push(Node::Leaf { value: mean }); // placeholder
                let left = {
                    let mut l = left_idx.to_vec();
                    self.build_presorted(data, targets, &mut l, depth + 1, params, &left_lists, scratch)
                };
                let right = {
                    let mut r = right_idx.to_vec();
                    self.build_presorted(data, targets, &mut r, depth + 1, params, &right_lists, scratch)
                };
                self.nodes[node] = Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    gain: split.gain,
                    left,
                    right,
                };
                node
            }
        }
    }

    fn build_resort(
        &mut self,
        data: &Dataset,
        targets: &[f64],
        idx: &mut [usize],
        depth: usize,
        params: &TreeParams,
    ) -> usize {
        let mean = idx.iter().map(|&i| targets[i]).sum::<f64>() / idx.len() as f64;
        if depth >= params.max_depth || idx.len() < 2 * params.min_samples_leaf {
            return self.push(Node::Leaf { value: mean });
        }
        match best_split_resort(data, targets, idx, params) {
            None => self.push(Node::Leaf { value: mean }),
            Some(split) => {
                let mid = partition(idx, |i| data.row(i)[split.feature] <= split.threshold);
                let (left_idx, right_idx) = idx.split_at_mut(mid);
                debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());
                obs::counter_add("gbdt.nodes_split", 1);
                let node = self.push(Node::Leaf { value: mean }); // placeholder
                let left = {
                    let mut l = left_idx.to_vec();
                    self.build_resort(data, targets, &mut l, depth + 1, params)
                };
                let right = {
                    let mut r = right_idx.to_vec();
                    self.build_resort(data, targets, &mut r, depth + 1, params)
                };
                self.nodes[node] = Node::Split {
                    feature: split.feature,
                    threshold: split.threshold,
                    gain: split.gain,
                    left,
                    right,
                };
                node
            }
        }
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    /// Predict the target for one feature vector.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.num_features, "feature arity mismatch");
        let mut at = 0usize;
        loop {
            match &self.nodes[at] {
                Node::Leaf { value } => return *value,
                Node::Split { feature, threshold, left, right, .. } => {
                    at = if x[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Number of nodes (diagnostics).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Tree depth (diagnostics / tests).
    pub fn depth(&self) -> usize {
        fn rec(nodes: &[Node], at: usize) -> usize {
            match &nodes[at] {
                Node::Leaf { .. } => 0,
                Node::Split { left, right, .. } => 1 + rec(nodes, *left).max(rec(nodes, *right)),
            }
        }
        if self.nodes.is_empty() {
            0
        } else {
            rec(&self.nodes, 0)
        }
    }

    /// The root's `(feature, threshold)` if the root is a split
    /// (diagnostics / equivalence tests).
    pub fn root_split(&self) -> Option<(usize, f64)> {
        match self.nodes.first() {
            Some(Node::Split { feature, threshold, .. }) => Some((*feature, *threshold)),
            _ => None,
        }
    }

    /// Accumulate this tree's split gains per feature into `out`.
    pub fn accumulate_importance(&self, out: &mut [f64]) {
        for node in &self.nodes {
            if let Node::Split { feature, gain, .. } = node {
                out[*feature] += gain.max(0.0);
            }
        }
    }
}

struct SplitChoice {
    feature: usize,
    threshold: f64,
    gain: f64,
}

/// Row-count × feature-count product above which the per-feature scans of
/// the split kernels fan out across the thread pool. Below it, the scan
/// costs so little that spawn overhead loses.
const PAR_SPLIT_WORK: usize = 16 * 1024;

/// Fold per-feature candidates in ascending feature order with a
/// strictly-greater comparison: the earliest feature wins ties, exactly as
/// a sequential loop over features would, at any thread count.
fn reduce_candidates(candidates: Vec<Option<SplitChoice>>) -> Option<SplitChoice> {
    let mut best: Option<SplitChoice> = None;
    for cand in candidates.into_iter().flatten() {
        if best.as_ref().is_none_or(|b| cand.gain > b.gain) {
            best = Some(cand);
        }
    }
    best
}

/// Sums over the node's rows **in `idx` order** — the same accumulation
/// order every kernel (and the historical code) uses, so `parent_sse` bits
/// are identical across kernels.
fn parent_stats(targets: &[f64], idx: &[usize]) -> (f64, f64, f64) {
    let n = idx.len() as f64;
    let total_sum: f64 = idx.iter().map(|&i| targets[i]).sum();
    let total_sq: f64 = idx.iter().map(|&i| targets[i] * targets[i]).sum();
    let parent_sse = total_sq - total_sum * total_sum / n;
    (total_sum, total_sq, parent_sse)
}

/// The boundary-scan shared by the presorted and re-sort kernels: walk
/// positions in value order, accumulating left sums, and evaluate a
/// candidate at every boundary between distinct adjacent values.
///
/// `value_at(pos)` and `target_at(pos)` abstract where the sorted order
/// lives; both kernels feed positions in the identical sequence, so the
/// arithmetic — and every candidate — is bit-for-bit the same.
#[allow(clippy::too_many_arguments)]
fn scan_boundaries(
    m: usize,
    f: usize,
    value_at: impl Fn(usize) -> f64,
    target_at: impl Fn(usize) -> f64,
    params: &TreeParams,
    total_sum: f64,
    total_sq: f64,
    parent_sse: f64,
) -> Option<SplitChoice> {
    let n = m as f64;
    let mut best: Option<SplitChoice> = None;
    let mut left_sum = 0.0;
    let mut left_sq = 0.0;
    if m == 0 {
        return None;
    }
    let mut v = value_at(0);
    for pos in 0..m - 1 {
        let t = target_at(pos);
        left_sum += t;
        left_sq += t * t;
        let v_next = value_at(pos + 1);
        if v == v_next {
            continue; // can't split between equal values
        }
        let nl = (pos + 1) as f64;
        let nr = n - nl;
        if (nl as usize) < params.min_samples_leaf || (nr as usize) < params.min_samples_leaf {
            v = v_next;
            continue;
        }
        let right_sum = total_sum - left_sum;
        let right_sq = total_sq - left_sq;
        let sse =
            (left_sq - left_sum * left_sum / nl) + (right_sq - right_sum * right_sum / nr);
        let gain = parent_sse - sse;
        if gain > params.min_gain && best.as_ref().is_none_or(|b| gain > b.gain) {
            // The midpoint of two adjacent floats can round up to
            // `v_next`, which would send every row left; fall back to
            // `v` (rows ≤ v go left) whenever that happens.
            let mut threshold = (v + v_next) / 2.0;
            if !(threshold > v && threshold < v_next) {
                threshold = v;
            }
            best = Some(SplitChoice { feature: f, threshold, gain });
        }
        v = v_next;
    }
    best
}

/// Presorted split search: each feature's sorted list is realigned to the
/// node's `idx` order within ties and scanned once — `O(n)` per feature.
///
/// ### Why the realignment pass
///
/// The historical kernel stable-sorted a row buffer by value, so rows with
/// *equal* values were scanned in the buffer's pre-sort order. Floating-
/// point sums are order-sensitive, so to keep every gain bit-identical we
/// must add tied rows in that same order. The sorted list gives value
/// order; a counting sort by tie-run id, filling each run in `fill_order`
/// (the buffer's pre-sort order), rebuilds exactly the sequence
/// `sort_by(total_cmp)` produced — without any comparison sort. Runs are
/// delimited by *bit* inequality (matching `total_cmp`'s notion of
/// equality, e.g. `-0.0` sorts before `0.0`), while the boundary skip
/// below still uses `==` (which treats `-0.0 == 0.0`), both exactly as
/// before.
///
/// `fill_order` mirrors the historical buffer's state: the sequential
/// kernel reused one buffer across features (so feature `f` sees the
/// order left behind by sorting feature `f-1`), while the parallel kernel
/// copied `idx` fresh per feature. [`best_split_presorted`] reproduces
/// both regimes.
#[allow(clippy::too_many_arguments)]
fn scan_feature_presorted(
    targets: &[f64],
    fill_order: &[u32],
    list: &FeatureList,
    params: &TreeParams,
    f: usize,
    total_sum: f64,
    total_sq: f64,
    parent_sse: f64,
    scratch: &mut ScanScratch,
) -> Option<SplitChoice> {
    let m = list.rows.len();
    debug_assert_eq!(m, fill_order.len());
    // Pass 1: tie runs (maximal groups of bit-equal adjacent values).
    scratch.run_start.clear();
    scratch.run_start.push(0);
    scratch.run_of_row[list.rows[0] as usize] = 0;
    let mut prev_bits = list.vals[0].to_bits();
    for k in 1..m {
        let bits = list.vals[k].to_bits();
        if bits != prev_bits {
            scratch.run_start.push(k as u32);
            prev_bits = bits;
        }
        scratch.run_of_row[list.rows[k] as usize] = (scratch.run_start.len() - 1) as u32;
    }
    // Pass 2: counting sort — within each run, rows in `fill_order`.
    scratch.fill.clear();
    scratch.fill.resize(scratch.run_start.len(), 0);
    if scratch.scan_order.len() < m {
        scratch.scan_order.resize(m, 0);
    }
    for &row in fill_order {
        let rid = scratch.run_of_row[row as usize] as usize;
        let slot = (scratch.run_start[rid] + scratch.fill[rid]) as usize;
        scratch.scan_order[slot] = row;
        scratch.fill[rid] += 1;
    }
    // Pass 3: the boundary scan. Values come straight from the contiguous
    // sorted array (the within-run permutation can't change them).
    let scan_order = &scratch.scan_order;
    scan_boundaries(
        m,
        f,
        |pos| list.vals[pos],
        |pos| targets[scan_order[pos] as usize],
        params,
        total_sum,
        total_sq,
        parent_sse,
    )
}

fn best_split_presorted(
    data: &Dataset,
    targets: &[f64],
    idx: &[usize],
    params: &TreeParams,
    lists: &[FeatureList],
    scratch: &mut ScanScratch,
) -> Option<SplitChoice> {
    let (total_sum, total_sq, parent_sse) = parent_stats(targets, idx);
    let num_features = data.num_features();
    let candidates: Vec<Option<SplitChoice>> =
        if idx.len() * num_features >= PAR_SPLIT_WORK && autosuggest_parallel::current_threads() > 1
        {
            // Parallel regime: the historical kernel copied `idx` fresh per
            // feature, so ties fill in `idx` order.
            let fill: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
            autosuggest_parallel::par_map_indexed(num_features, |f| {
                let mut local = ScanScratch::new(data.len());
                scan_feature_presorted(
                    targets, &fill, &lists[f], params, f, total_sum, total_sq, parent_sse,
                    &mut local,
                )
            })
        } else {
            // Sequential regime: the historical kernel reused one sort
            // buffer across features, so feature `f`'s ties fill in the
            // order the buffer held after sorting feature `f-1`. Carrying
            // each scan's output order forward reproduces that chain.
            let mut carried: Vec<u32> = idx.iter().map(|&i| i as u32).collect();
            (0..num_features)
                .map(|f| {
                    let cand = scan_feature_presorted(
                        targets, &carried, &lists[f], params, f, total_sum, total_sq, parent_sse,
                        scratch,
                    );
                    carried.copy_from_slice(&scratch.scan_order[..idx.len()]);
                    cand
                })
                .collect()
        };
    reduce_candidates(candidates)
}

/// Partition every feature's sorted list into the two children of a split.
/// Filtering preserves sorted order, so no re-sort is ever needed.
fn partition_lists(
    data: &Dataset,
    lists: &[FeatureList],
    feature: usize,
    threshold: f64,
    left_len: usize,
) -> (Vec<FeatureList>, Vec<FeatureList>) {
    let mut left = Vec::with_capacity(lists.len());
    let mut right = Vec::with_capacity(lists.len());
    for list in lists {
        let right_len = list.rows.len() - left_len;
        let mut l = FeatureList {
            rows: Vec::with_capacity(left_len),
            vals: Vec::with_capacity(left_len),
        };
        let mut r = FeatureList {
            rows: Vec::with_capacity(right_len),
            vals: Vec::with_capacity(right_len),
        };
        for (&row, &val) in list.rows.iter().zip(&list.vals) {
            if data.row(row as usize)[feature] <= threshold {
                l.rows.push(row);
                l.vals.push(val);
            } else {
                r.rows.push(row);
                r.vals.push(val);
            }
        }
        debug_assert_eq!(l.rows.len(), left_len);
        left.push(l);
        right.push(r);
    }
    (left, right)
}

/// Historical exact split search: per feature, sort the node's rows by
/// value and scan boundary positions, maximising variance-reduction gain.
fn best_split_resort(
    data: &Dataset,
    targets: &[f64],
    idx: &[usize],
    params: &TreeParams,
) -> Option<SplitChoice> {
    let (total_sum, total_sq, parent_sse) = parent_stats(targets, idx);

    let scan_feature = |order: &mut [usize], f: usize| -> Option<SplitChoice> {
        order.sort_by(|&a, &b| data.row(a)[f].total_cmp(&data.row(b)[f]));
        // The column is gathered once so the scan reads contiguous memory
        // instead of chasing `data.row(...)` twice per position.
        let vals: Vec<f64> = order.iter().map(|&i| data.row(i)[f]).collect();
        scan_boundaries(
            order.len(),
            f,
            |pos| vals[pos],
            |pos| targets[order[pos]],
            params,
            total_sum,
            total_sq,
            parent_sse,
        )
    };

    let num_features = data.num_features();
    let candidates: Vec<Option<SplitChoice>> =
        if idx.len() * num_features >= PAR_SPLIT_WORK && autosuggest_parallel::current_threads() > 1
        {
            autosuggest_parallel::par_map_indexed(num_features, |f| {
                let mut order = idx.to_vec();
                scan_feature(&mut order, f)
            })
        } else {
            // Sequential path reuses one sort buffer across features.
            let mut order = idx.to_vec();
            (0..num_features).map(|f| scan_feature(&mut order, f)).collect()
        };
    reduce_candidates(candidates)
}

/// Stable-ish partition: move rows satisfying `pred` to the front, returning
/// the boundary.
fn partition<F: Fn(usize) -> bool>(idx: &mut [usize], pred: F) -> usize {
    let mut front = 0;
    for i in 0..idx.len() {
        if pred(idx[i]) {
            idx.swap(front, i);
            front += 1;
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataset(rows: Vec<Vec<f64>>, labels: Vec<f64>) -> Dataset {
        let names = (0..rows[0].len()).map(|i| format!("f{i}")).collect();
        Dataset::new(names, rows, labels).unwrap()
    }

    /// Tiny deterministic LCG so tests don't depend on the rand shim.
    fn lcg(state: &mut u64) -> f64 {
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    /// Random dataset with deliberate ties (values snapped to a coarse
    /// grid) — ties are where the presorted kernel's realignment matters.
    fn random_tied_dataset(n: usize, features: usize, seed: u64) -> Dataset {
        let mut s = seed;
        let rows: Vec<Vec<f64>> = (0..n)
            .map(|_| {
                (0..features)
                    .map(|_| (lcg(&mut s) * 8.0).floor() / 8.0)
                    .collect()
            })
            .collect();
        let labels: Vec<f64> = (0..n).map(|_| lcg(&mut s) * 2.0 - 1.0).collect();
        dataset(rows, labels)
    }

    #[test]
    fn fits_a_step_function_exactly() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let labels: Vec<f64> = (0..20).map(|i| if i < 10 { 0.0 } else { 1.0 }).collect();
        let data = dataset(rows, labels);
        let idx: Vec<usize> = (0..20).collect();
        let tree = RegressionTree::fit(&data, data.labels(), &idx, &TreeParams::default());
        assert_eq!(tree.predict(&[3.0]), 0.0);
        assert_eq!(tree.predict(&[15.0]), 1.0);
    }

    #[test]
    fn respects_max_depth() {
        let rows: Vec<Vec<f64>> = (0..64).map(|i| vec![i as f64]).collect();
        let labels: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let data = dataset(rows, labels);
        let idx: Vec<usize> = (0..64).collect();
        let params = TreeParams { max_depth: 2, ..Default::default() };
        let tree = RegressionTree::fit(&data, data.labels(), &idx, &params);
        assert!(tree.depth() <= 2);
    }

    #[test]
    fn constant_targets_make_a_single_leaf() {
        let data = dataset(vec![vec![1.0], vec![2.0], vec![3.0]], vec![5.0, 5.0, 5.0]);
        let idx = vec![0, 1, 2];
        let tree = RegressionTree::fit(&data, data.labels(), &idx, &TreeParams::default());
        assert_eq!(tree.num_nodes(), 1);
        assert_eq!(tree.predict(&[99.0]), 5.0);
    }

    #[test]
    fn picks_the_informative_feature() {
        // Feature 1 is pure noise-free signal; feature 0 is constant.
        let rows: Vec<Vec<f64>> = (0..30)
            .map(|i| vec![7.0, if i % 2 == 0 { -1.0 } else { 1.0 }])
            .collect();
        let labels: Vec<f64> = (0..30).map(|i| if i % 2 == 0 { 0.0 } else { 10.0 }).collect();
        let data = dataset(rows, labels);
        let idx: Vec<usize> = (0..30).collect();
        let tree = RegressionTree::fit(&data, data.labels(), &idx, &TreeParams::default());
        let mut imp = vec![0.0; 2];
        tree.accumulate_importance(&mut imp);
        assert_eq!(imp[0], 0.0);
        assert!(imp[1] > 0.0);
    }

    #[test]
    fn min_samples_leaf_blocks_tiny_leaves() {
        let rows: Vec<Vec<f64>> = (0..6).map(|i| vec![i as f64]).collect();
        let labels = vec![0.0, 0.0, 0.0, 0.0, 0.0, 100.0];
        let data = dataset(rows, labels);
        let idx: Vec<usize> = (0..6).collect();
        let params = TreeParams { min_samples_leaf: 3, ..Default::default() };
        let tree = RegressionTree::fit(&data, data.labels(), &idx, &params);
        // The only useful split would isolate the last row; forbidden, so the
        // tree can only split at the 3/3 boundary.
        assert!(tree.depth() <= 1);
    }

    #[test]
    fn partition_moves_matching_rows_front() {
        let mut idx = vec![5, 2, 8, 1, 9];
        let mid = partition(&mut idx, |v| v < 5);
        assert_eq!(mid, 2);
        let mut front: Vec<usize> = idx[..mid].to_vec();
        front.sort_unstable();
        assert_eq!(front, vec![1, 2]);
    }

    /// Bit-level identity of two fitted trees: same structure, same
    /// predictions on every training row, same importances.
    fn assert_trees_identical(a: &RegressionTree, b: &RegressionTree, data: &Dataset) {
        assert_eq!(a.num_nodes(), b.num_nodes());
        assert_eq!(a.depth(), b.depth());
        assert_eq!(a.root_split().map(|(f, t)| (f, t.to_bits())),
                   b.root_split().map(|(f, t)| (f, t.to_bits())));
        for i in 0..data.len() {
            assert_eq!(
                a.predict(data.row(i)).to_bits(),
                b.predict(data.row(i)).to_bits(),
                "row {i}"
            );
        }
        let mut ia = vec![0.0; data.num_features()];
        let mut ib = vec![0.0; data.num_features()];
        a.accumulate_importance(&mut ia);
        b.accumulate_importance(&mut ib);
        for (x, y) in ia.iter().zip(&ib) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn presorted_matches_resort_on_tied_random_data() {
        for seed in 0..5u64 {
            let data = random_tied_dataset(200, 4, 0x9e3779b97f4a7c15 ^ seed);
            let idx: Vec<usize> = (0..data.len()).collect();
            let params = TreeParams::default();
            let fast = RegressionTree::fit(&data, data.labels(), &idx, &params);
            let reference = RegressionTree::fit_resort(&data, data.labels(), &idx, &params);
            assert_trees_identical(&fast, &reference, &data);
        }
    }

    #[test]
    fn presorted_matches_resort_on_scrambled_row_subset() {
        // Non-ascending row_idx: tie order inside
        // the node scans comes from the idx array, not from row ids.
        let data = random_tied_dataset(150, 3, 42);
        let idx: Vec<usize> = (0..data.len()).filter(|i| i % 3 != 1).rev().collect();
        let params = TreeParams { max_depth: 5, ..Default::default() };
        let fast = RegressionTree::fit(&data, data.labels(), &idx, &params);
        let reference = RegressionTree::fit_resort(&data, data.labels(), &idx, &params);
        assert_trees_identical(&fast, &reference, &data);
    }

    #[test]
    fn presorted_reuses_ensemble_presort() {
        let data = random_tied_dataset(120, 3, 7);
        let idx: Vec<usize> = (0..data.len()).collect();
        let pre = Presorted::build(&data, &idx);
        let params = TreeParams::default();
        let a = RegressionTree::fit_with_presorted(&data, data.labels(), &idx, &params, &pre);
        let b = RegressionTree::fit(&data, data.labels(), &idx, &params);
        assert_trees_identical(&a, &b, &data);
    }
}
