//! A CART-style regression tree with exact greedy splits.
//!
//! ## The split kernel
//!
//! [`RegressionTree::fit`] (and boosting, through [`Grower`]) runs one
//! sequential, allocation-free exact kernel:
//!
//! - [`Presorted`] stable-sorts every feature **once per ensemble** and
//!   numbers each row's bit-equality tie run per feature (`ranks`).
//! - A [`Grower`] is the work arena: a copy of the sorted lists, the node
//!   row order `idx`, a `go_left` mask and the counting-sort buffers, all
//!   sized once and reset per tree. Each node owns one contiguous
//!   `[lo, hi)` segment of every list and of `idx`, so a node's scan is
//!   `O(n)` per feature and nothing is allocated per node.
//! - A split fills `go_left` from the split feature's segment with the
//!   same `<=` predicate [`RegressionTree::predict`] uses, swap-partitions
//!   `idx`, and stably partitions every list segment, so the children's
//!   lists stay sorted. Every leaf's `idx` segment therefore holds exactly
//!   the rows `predict` routes to it, which lets boosting update its
//!   predictions leaf by leaf ([`Grower::leaves`]).
//!
//! **The tie rule.** Floating-point sums are order-sensitive, so the order
//! in which tied rows are scanned is part of the model. Feature *f*'s ties
//! are scanned in the order feature *f−1*'s scan left them, starting from
//! the node's `idx` order — the order a stable per-node re-sort produces
//! when one sort buffer is reused across features. A counting sort over the
//! tie runs rebuilds that order per feature in `O(n)`; it is skipped when
//! the segment has no ties (the list is the scan order) or is constant
//! (nothing to scan, and the order carries over unchanged). The rule does
//! not depend on the thread count: the kernel never forks.
//!
//! [`RegressionTree::fit_resort`] is that per-node re-sort, kept only as
//! the test reference: the unit tests here and
//! `tests/train_kernels_equivalence.rs` compare the kernel against it bit
//! for bit. Both kernels share one boundary scanner, and candidates are
//! reduced in ascending feature order with a strictly-greater comparison
//! (earliest feature wins ties).

use crate::data::Dataset;
use autosuggest_obs as obs;

/// Hyper-parameters for a single regression tree.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct RegressionTree {
    nodes: Vec<Node>,
    num_features: usize,
}

/// Every feature's training rows stable-sorted by value (`total_cmp`; ties
/// keep `row_idx` order). Targets never enter, so boosting builds this
/// once per ensemble. Feature `f` owns `[f·n, (f+1)·n)` of `rows`/`vals`.
pub(crate) struct Presorted {
    row_idx: Vec<usize>,
    rows: Vec<u32>,
    vals: Vec<f64>,
    /// `ranks[f·N + row]`: the index of `row`'s bit-equality tie run in
    /// feature `f`'s sorted list (`N` = rows in the dataset).
    ranks: Vec<u32>,
    num_features: usize,
    num_total: usize,
}

impl Presorted {
    pub(crate) fn build(data: &Dataset, row_idx: &[usize]) -> Self {
        let n = row_idx.len();
        let (num_features, num_total) = (data.num_features(), data.len());
        let mut rows = Vec::with_capacity(n * num_features);
        let mut vals = Vec::with_capacity(n * num_features);
        let mut ranks = vec![0u32; num_total * num_features];
        let mut keyed: Vec<(f64, u32)> = Vec::with_capacity(n);
        for f in 0..num_features {
            let ranks = &mut ranks[f * num_total..(f + 1) * num_total];
            keyed.clear();
            keyed.extend(row_idx.iter().map(|&i| (data.row(i)[f], i as u32)));
            keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
            // `total_cmp` equality is bit equality, so the stable sort's
            // tie groups are exactly the bit-equality runs.
            let mut run = 0u32;
            for (k, &(v, row)) in keyed.iter().enumerate() {
                if k > 0 && v.to_bits() != keyed[k - 1].0.to_bits() {
                    run += 1;
                }
                ranks[row as usize] = run;
                rows.push(row);
                vals.push(v);
            }
        }
        Presorted { row_idx: row_idx.to_vec(), rows, vals, ranks, num_features, num_total }
    }
}

/// One tree's work arena over a [`Presorted`], allocated once and reset by
/// every [`Grower::fit`] (see the module docs).
pub(crate) struct Grower<'p> {
    pre: &'p Presorted,
    /// Working copies of the sorted lists.
    rows: Vec<u32>,
    vals: Vec<f64>,
    /// Node rows in the order their targets are summed.
    idx: Vec<usize>,
    /// The current split's predicate, by row id.
    go_left: Vec<bool>,
    /// Per tie run: the next free slot of its counting-sort bucket.
    cursor: Vec<u32>,
    /// Tie-fill order carried from feature to feature, and the scan order
    /// being built from it, each with its rows' targets alongside.
    fill: Vec<u32>,
    fill_t: Vec<f64>,
    scan: Vec<u32>,
    scan_t: Vec<f64>,
    /// Right-hand entries parked by the stable list partition.
    spill_rows: Vec<u32>,
    spill_vals: Vec<f64>,
    /// The last tree's leaves: `idx` segment and value.
    leaves: Vec<(usize, usize, f64)>,
}

impl<'p> Grower<'p> {
    pub(crate) fn new(pre: &'p Presorted) -> Self {
        let n = pre.row_idx.len();
        Grower {
            pre,
            rows: pre.rows.clone(),
            vals: pre.vals.clone(),
            idx: pre.row_idx.clone(),
            go_left: vec![false; pre.num_total],
            cursor: vec![0; n],
            fill: vec![0; n],
            fill_t: vec![0.0; n],
            scan: vec![0; n],
            scan_t: vec![0.0; n],
            spill_rows: vec![0; n],
            spill_vals: vec![0.0; n],
            leaves: Vec::new(),
        }
    }

    /// Fit a tree to `targets` (indexed by row id) over the presorted rows.
    pub(crate) fn fit(&mut self, targets: &[f64], params: &TreeParams) -> RegressionTree {
        assert_eq!(targets.len(), self.pre.num_total, "one target per dataset row");
        assert!(!self.idx.is_empty(), "cannot fit a tree on zero rows");
        self.rows.copy_from_slice(&self.pre.rows);
        self.vals.copy_from_slice(&self.pre.vals);
        self.idx.copy_from_slice(&self.pre.row_idx);
        self.leaves.clear();
        let mut tree = RegressionTree { nodes: Vec::new(), num_features: self.pre.num_features };
        self.grow(&mut tree, targets, 0, self.idx.len(), 0, params);
        obs::counter_add("gbdt.nodes_split", tree.num_splits());
        tree
    }

    /// The last fitted tree's leaves: the rows each holds, and its value.
    pub(crate) fn leaves(&self) -> impl Iterator<Item = (&[usize], f64)> + '_ {
        self.leaves.iter().map(|&(lo, hi, value)| (&self.idx[lo..hi], value))
    }

    fn grow(
        &mut self,
        tree: &mut RegressionTree,
        targets: &[f64],
        lo: usize,
        hi: usize,
        depth: usize,
        params: &TreeParams,
    ) -> usize {
        let mean = self.idx[lo..hi].iter().map(|&i| targets[i]).sum::<f64>() / (hi - lo) as f64;
        let split = if depth >= params.max_depth || hi - lo < 2 * params.min_samples_leaf {
            None
        } else {
            self.best_split(targets, lo, hi, params)
        };
        let Some(split) = split else {
            self.leaves.push((lo, hi, mean));
            return tree.push(Node::Leaf { value: mean });
        };
        // Children at max depth never scan, so their list segments are left
        // unpartitioned.
        let mid = lo + self.partition(lo, hi, &split, depth + 1 < params.max_depth);
        debug_assert!(lo < mid && mid < hi);
        let node = tree.push(Node::Leaf { value: mean }); // placeholder
        let left = self.grow(tree, targets, lo, mid, depth + 1, params);
        let right = self.grow(tree, targets, mid, hi, depth + 1, params);
        tree.nodes[node] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            gain: split.gain,
            left,
            right,
        };
        node
    }

    /// Best split of node `[lo, hi)` under the module's tie rule.
    fn best_split(
        &mut self,
        targets: &[f64],
        lo: usize,
        hi: usize,
        params: &TreeParams,
    ) -> Option<SplitChoice> {
        let (n, m, num_total) = (self.pre.row_idx.len(), hi - lo, self.pre.num_total);
        let (total_sum, total_sq, parent_sse) = parent_stats(targets, &self.idx[lo..hi]);
        for (k, &i) in self.idx[lo..hi].iter().enumerate() {
            self.fill[k] = i as u32;
            self.fill_t[k] = targets[i];
        }
        let mut best = None;
        for f in 0..self.pre.num_features {
            let rows = &self.rows[f * n + lo..f * n + hi];
            let vals = &self.vals[f * n + lo..f * n + hi];
            let ranks = &self.pre.ranks[f * num_total..(f + 1) * num_total];
            // Each tie run's counting-sort bucket starts at its first
            // position.
            let mut runs = 0;
            for (k, &row) in rows.iter().enumerate() {
                if k == 0 || vals[k].to_bits() != vals[k - 1].to_bits() {
                    self.cursor[ranks[row as usize] as usize] = k as u32;
                    runs += 1;
                }
            }
            if runs == 1 {
                // Constant: no boundary, and the fill order carries over.
                continue;
            }
            if runs == m {
                // No ties: the sorted list is the scan order.
                self.fill[..m].copy_from_slice(rows);
                for (t, &row) in self.fill_t[..m].iter_mut().zip(rows) {
                    *t = targets[row as usize];
                }
            } else {
                for (&row, &t) in self.fill[..m].iter().zip(&self.fill_t[..m]) {
                    let at = &mut self.cursor[ranks[row as usize] as usize];
                    self.scan[*at as usize] = row;
                    self.scan_t[*at as usize] = t;
                    *at += 1;
                }
                std::mem::swap(&mut self.fill, &mut self.scan);
                std::mem::swap(&mut self.fill_t, &mut self.scan_t);
            }
            let fill_t = &self.fill_t;
            let cand = scan_boundaries(
                m,
                f,
                |pos| vals[pos],
                |pos| fill_t[pos],
                params,
                total_sum,
                total_sq,
                parent_sse,
            );
            keep_best(&mut best, cand);
        }
        best
    }

    /// Split node `[lo, hi)`: fill `go_left` from the split feature's
    /// segment, swap-partition `idx` and, when `lists` is set, stably
    /// partition every feature's list segment. Returns the left size.
    fn partition(&mut self, lo: usize, hi: usize, split: &SplitChoice, lists: bool) -> usize {
        let n = self.pre.row_idx.len();
        let seg = split.feature * n + lo..split.feature * n + hi;
        for (&row, &v) in self.rows[seg.clone()].iter().zip(&self.vals[seg]) {
            self.go_left[row as usize] = v <= split.threshold;
        }
        let go_left = &self.go_left;
        let mid = partition(&mut self.idx[lo..hi], |i| go_left[i]);
        if lists {
            for f in 0..self.pre.num_features {
                let (start, end) = (f * n + lo, f * n + hi);
                let (mut kept, mut spilled) = (start, 0);
                // Branch-free: write both sides, advance one (`kept <= k`,
                // so the in-place write never clobbers an unread entry).
                for k in start..end {
                    let (row, v) = (self.rows[k], self.vals[k]);
                    let left = go_left[row as usize] as usize;
                    self.rows[kept] = row;
                    self.vals[kept] = v;
                    self.spill_rows[spilled] = row;
                    self.spill_vals[spilled] = v;
                    kept += left;
                    spilled += 1 - left;
                }
                self.rows[kept..end].copy_from_slice(&self.spill_rows[..spilled]);
                self.vals[kept..end].copy_from_slice(&self.spill_vals[..spilled]);
            }
        }
        mid
    }
}

impl RegressionTree {
    /// Fit a tree to `targets` (residuals, in boosting) over the rows of
    /// `data` restricted to `row_idx`, using the presorted split kernel.
    pub fn fit(data: &Dataset, targets: &[f64], row_idx: &[usize], params: &TreeParams) -> Self {
        Grower::new(&Presorted::build(data, row_idx)).fit(targets, params)
    }

    /// The per-node re-sort kernel: every node stable-sorts one row buffer
    /// by each feature in turn. The executable reference for [`Self::fit`];
    /// produces bit-identical trees.
    pub fn fit_resort(
        data: &Dataset,
        targets: &[f64],
        row_idx: &[usize],
        params: &TreeParams,
    ) -> Self {
        assert_eq!(data.len(), targets.len());
        assert!(!row_idx.is_empty(), "cannot fit a tree on zero rows");
        let mut tree = RegressionTree { nodes: Vec::new(), num_features: data.num_features() };
        tree.grow_resort(data, targets, &mut row_idx.to_vec(), 0, params);
        obs::counter_add("gbdt.nodes_split", tree.num_splits());
        tree
    }

    fn grow_resort(
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
        let Some(split) = best_split_resort(data, targets, idx, params) else {
            return self.push(Node::Leaf { value: mean });
        };
        let mid = partition(idx, |i| data.row(i)[split.feature] <= split.threshold);
        let (left_idx, right_idx) = idx.split_at_mut(mid);
        debug_assert!(!left_idx.is_empty() && !right_idx.is_empty());
        let node = self.push(Node::Leaf { value: mean }); // placeholder
        let left = self.grow_resort(data, targets, left_idx, depth + 1, params);
        let right = self.grow_resort(data, targets, right_idx, depth + 1, params);
        self.nodes[node] = Node::Split {
            feature: split.feature,
            threshold: split.threshold,
            gain: split.gain,
            left,
            right,
        };
        node
    }

    fn push(&mut self, node: Node) -> usize {
        self.nodes.push(node);
        self.nodes.len() - 1
    }

    fn num_splits(&self) -> u64 {
        self.nodes.iter().filter(|n| matches!(n, Node::Split { .. })).count() as u64
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

/// Keep `cand` if it beats `best` strictly: folded in ascending feature
/// order, the earliest feature wins ties.
fn keep_best(best: &mut Option<SplitChoice>, cand: Option<SplitChoice>) {
    if let Some(cand) = cand {
        if best.as_ref().is_none_or(|b| cand.gain > b.gain) {
            *best = Some(cand);
        }
    }
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

/// Re-sort split search: per feature, stable-sort the node's rows by value
/// and scan boundary positions, maximising variance-reduction gain. One
/// buffer serves every feature, so feature `f`'s ties keep the order
/// feature `f-1`'s sort left — the tie rule the kernel reproduces.
fn best_split_resort(
    data: &Dataset,
    targets: &[f64],
    idx: &[usize],
    params: &TreeParams,
) -> Option<SplitChoice> {
    let (total_sum, total_sq, parent_sse) = parent_stats(targets, idx);
    let mut order = idx.to_vec();
    let mut best = None;
    for f in 0..data.num_features() {
        order.sort_by(|&a, &b| data.row(a)[f].total_cmp(&data.row(b)[f]));
        let vals: Vec<f64> = order.iter().map(|&i| data.row(i)[f]).collect();
        let cand = scan_boundaries(
            order.len(),
            f,
            |pos| vals[pos],
            |pos| targets[order[pos]],
            params,
            total_sum,
            total_sq,
            parent_sse,
        );
        keep_best(&mut best, cand);
    }
    best
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
    fn one_grower_refits_like_fresh_fits_and_leaves_route_like_predict() {
        let data = random_tied_dataset(120, 3, 7);
        let idx: Vec<usize> = (0..data.len()).collect();
        let pre = Presorted::build(&data, &idx);
        let mut grower = Grower::new(&pre);
        let params = TreeParams::default();
        let flipped: Vec<f64> = data.labels().iter().map(|y| -y * 0.5).collect();
        for targets in [data.labels(), &flipped, data.labels()] {
            let tree = grower.fit(targets, &params);
            assert_trees_identical(&tree, &RegressionTree::fit(&data, targets, &idx, &params), &data);
            let mut covered = vec![0usize; data.len()];
            for (rows, value) in grower.leaves() {
                for &i in rows {
                    covered[i] += 1;
                    assert_eq!(tree.predict(data.row(i)).to_bits(), value.to_bits(), "row {i}");
                }
            }
            assert!(covered.iter().all(|&c| c == 1), "every row sits in exactly one leaf");
        }
    }
}
