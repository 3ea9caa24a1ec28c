//! A small dense weighted graph over the columns of one table.

/// A complete undirected weighted graph on `n` vertices (columns), stored as
/// a dense symmetric matrix. Weights are affinity/compatibility scores in
/// roughly `[-1, 1]`, produced by the affinity regression model (§4.3).
#[derive(Debug, Clone, PartialEq)]
pub struct AffinityGraph {
    n: usize,
    weights: Vec<f64>,
}

impl AffinityGraph {
    /// A graph on `n` vertices with all edge weights zero.
    pub fn new(n: usize) -> Self {
        AffinityGraph { n, weights: vec![0.0; n * n] }
    }

    /// Build from an explicit edge list; unspecified edges stay 0.
    pub fn from_edges(n: usize, edges: &[(usize, usize, f64)]) -> Self {
        let mut g = AffinityGraph::new(n);
        for &(u, v, w) in edges {
            g.set(u, v, w);
        }
        g
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Edge weight between `u` and `v` (0 on the diagonal).
    pub fn weight(&self, u: usize, v: usize) -> f64 {
        debug_assert!(u < self.n && v < self.n);
        self.weights[u * self.n + v]
    }

    /// Set the (symmetric) edge weight.
    pub fn set(&mut self, u: usize, v: usize, w: f64) {
        assert!(u < self.n && v < self.n, "vertex out of range");
        assert_ne!(u, v, "self-loops are not allowed");
        self.weights[u * self.n + v] = w;
        self.weights[v * self.n + u] = w;
    }

    /// Sum of weights over all unordered pairs.
    pub fn total_weight(&self) -> f64 {
        let mut s = 0.0;
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                s += self.weight(u, v);
            }
        }
        s
    }

    /// Sum of weights across the cut defined by `in_first[v]`.
    pub fn cut_weight(&self, in_first: &[bool]) -> f64 {
        assert_eq!(in_first.len(), self.n);
        let mut s = 0.0;
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                if in_first[u] != in_first[v] {
                    s += self.weight(u, v);
                }
            }
        }
        s
    }

    /// Sum of weights inside the vertex set `members`.
    pub fn intra_weight(&self, members: &[usize]) -> f64 {
        let mut s = 0.0;
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                s += self.weight(u, v);
            }
        }
        s
    }

    /// The minimum edge weight (useful for shifting to non-negative).
    pub fn min_weight(&self) -> f64 {
        let mut m = f64::INFINITY;
        for u in 0..self.n {
            for v in (u + 1)..self.n {
                m = m.min(self.weight(u, v));
            }
        }
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_is_symmetric() {
        let mut g = AffinityGraph::new(3);
        g.set(0, 2, 0.5);
        assert_eq!(g.weight(2, 0), 0.5);
        assert_eq!(g.weight(0, 1), 0.0);
    }

    #[test]
    #[should_panic(expected = "self-loops")]
    fn self_loop_panics() {
        AffinityGraph::new(2).set(1, 1, 1.0);
    }

    #[test]
    fn cut_and_intra_weights() {
        // Paper Fig. 10: Sector(0), Ticker(1), Company(2), Year(3).
        let g = AffinityGraph::from_edges(
            4,
            &[
                (0, 1, 0.6),
                (0, 2, 0.6),
                (1, 2, 0.9),
                (0, 3, 0.1),
                (1, 3, -0.1),
                (2, 3, -0.1),
            ],
        );
        // Cut {Year} vs rest.
        let in_first = [true, true, true, false];
        assert!((g.cut_weight(&in_first) - (0.1 - 0.1 - 0.1)).abs() < 1e-12);
        assert!((g.intra_weight(&[0, 1, 2]) - 2.1).abs() < 1e-12);
        assert!((g.total_weight() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn min_weight_of_empty_graph_is_zero() {
        assert_eq!(AffinityGraph::new(1).min_weight(), 0.0);
        assert_eq!(AffinityGraph::new(0).min_weight(), 0.0);
    }
}
