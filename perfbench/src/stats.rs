//! Order statistics and outside-in span accounting.
//!
//! Percentiles are nearest-rank: the value at 1-based rank
//! `ceil(p / 100 * n)` of the sorted samples, so every reported
//! percentile is a sample that was actually measured.

use std::time::Instant;

/// Nearest-rank percentile of `sorted` (ascending). `None` when empty.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// A percentile together with how many samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    pub value: f64,
    /// Total samples.
    pub n: usize,
    /// Samples strictly greater than `value`.
    pub beyond: usize,
}

/// Sort `samples` and report the nearest-rank `p`-th percentile with its
/// sample count and the number of samples beyond it.
pub fn percentile(samples: &[f64], p: f64) -> Option<Percentile> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let value = nearest_rank(&sorted, p)?;
    let beyond = sorted.iter().filter(|&&v| v > value).count();
    Some(Percentile {
        value,
        n: sorted.len(),
        beyond,
    })
}

/// Nearest-rank median; 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).map_or(0.0, |p| p.value)
}

/// One closed interval recorded around a call into the program.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    /// The module the call belongs to; `bench` for the benchmark's own glue.
    pub layer: &'static str,
    pub parent: Option<usize>,
    pub start: f64,
    pub end: f64,
}

/// Self time of every span: its duration minus the part of it that its
/// children cover. Children may overlap one another (calls made from
/// several threads) or stick out of their parent; only the union of
/// their intervals, clipped to the parent, is subtracted.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = s.start;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

/// Every span of one name and layer, summed.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanGroup {
    pub name: String,
    pub layer: &'static str,
    pub calls: usize,
    /// Seconds, children included.
    pub inclusive: f64,
    /// Seconds no child covers.
    pub own: f64,
}

/// Records spans around the benchmark's calls into the program. Spans
/// nest by call order on the benchmark's main thread; times are seconds
/// since the tracer was created.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Time `f` as a span of `layer` nested under the innermost open span.
    /// Returns the result and the span's duration in seconds.
    pub fn time<T>(&mut self, name: &str, layer: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.open_span(name, layer);
        let out = f();
        let secs = self.close_span(id);
        (out, secs)
    }

    pub fn open_span(&mut self, name: &str, layer: &'static str) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            parent: self.open.last().copied(),
            start: self.now(),
            end: f64::NAN,
        });
        self.open.push(id);
        id
    }

    pub fn close_span(&mut self, id: usize) -> f64 {
        let end = self.now();
        let span = &mut self.spans[id];
        span.end = end;
        if self.open.last() == Some(&id) {
            self.open.pop();
        }
        end - span.start
    }

    /// Add a finished child interval that the program timed itself
    /// (e.g. a returned stage timing) under span `parent`.
    pub fn record(&mut self, name: &str, layer: &'static str, parent: usize, start: f64, end: f64) {
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            parent: Some(parent),
            start,
            end,
        });
    }

    pub fn span(&self, id: usize) -> &Span {
        &self.spans[id]
    }

    /// Spans grouped by name and layer, largest self time first.
    pub fn by_name(&self) -> Vec<SpanGroup> {
        let mut out: Vec<SpanGroup> = Vec::new();
        for (s, own) in self.spans.iter().zip(self_times(&self.spans)) {
            let inclusive = s.end - s.start;
            match out
                .iter_mut()
                .find(|g| g.name == s.name && g.layer == s.layer)
            {
                Some(g) => {
                    g.calls += 1;
                    g.inclusive += inclusive;
                    g.own += own;
                }
                None => out.push(SpanGroup {
                    name: s.name.clone(),
                    layer: s.layer,
                    calls: 1,
                    inclusive,
                    own,
                }),
            }
        }
        out.sort_by(|a, b| b.own.total_cmp(&a.own));
        out
    }

    /// Self seconds summed per layer, and the share of `root`'s duration
    /// that only `bench` spans account for.
    pub fn layer_self_times(&self, root: usize) -> (Vec<(&'static str, f64)>, f64) {
        let selfs = self_times(&self.spans);
        let mut per_layer: Vec<(&'static str, f64)> = Vec::new();
        for (s, t) in self.spans.iter().zip(&selfs) {
            match per_layer.iter_mut().find(|(l, _)| *l == s.layer) {
                Some((_, acc)) => *acc += t,
                None => per_layer.push((s.layer, *t)),
            }
        }
        let root_span = &self.spans[root];
        let wall = root_span.end - root_span.start;
        let bench = per_layer
            .iter()
            .find(|(l, _)| *l == "bench")
            .map_or(0.0, |(_, t)| *t);
        (per_layer, if wall > 0.0 { bench / wall } else { 0.0 })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name: String::new(),
            layer: "bench",
            parent,
            start,
            end,
        }
    }

    #[test]
    fn nearest_rank_picks_measured_samples() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(nearest_rank(&sorted, 50.0), Some(50.0));
        assert_eq!(nearest_rank(&sorted, 99.0), Some(99.0));
        assert_eq!(nearest_rank(&sorted, 100.0), Some(100.0));
        assert_eq!(nearest_rank(&sorted, 0.0), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        // n = 10: rank ceil(0.5 * 10) = 5, ceil(0.99 * 10) = 10.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&ten, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&ten, 99.0), Some(10.0));
    }

    #[test]
    fn percentile_counts_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let p99 = percentile(&samples, 99.0).unwrap();
        assert_eq!(
            p99,
            Percentile {
                value: 990.0,
                n: 1000,
                beyond: 10
            }
        );
        let p50 = percentile(&samples, 50.0).unwrap();
        assert_eq!((p50.value, p50.beyond), (500.0, 500));
        // Ties at the percentile are not beyond it.
        let tied = percentile(&[1.0, 2.0, 2.0, 2.0], 50.0).unwrap();
        assert_eq!((tied.value, tied.beyond), (2.0, 0));
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(None, 0.0, 10.0),
            span(Some(0), 1.0, 3.0),
            span(Some(0), 5.0, 6.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![7.0, 2.0, 1.0]);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two children on different threads overlap in [2, 4]; a third
        // sticks out past the parent's end.
        let spans = vec![
            span(None, 0.0, 10.0),
            span(Some(0), 1.0, 4.0),
            span(Some(0), 2.0, 5.0),
            span(Some(0), 9.0, 12.0),
        ];
        let st = self_times(&spans);
        assert_eq!(st[0], 10.0 - 4.0 - 1.0);
    }

    #[test]
    fn self_time_ignores_grandchildren() {
        let spans = vec![
            span(None, 0.0, 10.0),
            span(Some(0), 0.0, 8.0),
            span(Some(1), 0.0, 8.0),
        ];
        assert_eq!(self_times(&spans), vec![2.0, 0.0, 8.0]);
    }

    #[test]
    fn tracer_nests_and_reports_unaccounted_share() {
        let mut tr = Tracer::new();
        let root = tr.open_span("root", "bench");
        let ((), inner) = tr.time("work", "core", || {
            std::thread::sleep(std::time::Duration::from_millis(20))
        });
        tr.close_span(root);
        assert_eq!(tr.span(1).parent, Some(root));
        assert!(inner >= 0.02);
        let (layers, unaccounted) = tr.layer_self_times(root);
        let core = layers.iter().find(|(l, _)| *l == "core").unwrap().1;
        assert!((core - inner).abs() < 1e-12);
        assert!(
            (0.0..0.5).contains(&unaccounted),
            "unaccounted {unaccounted}"
        );
    }

    #[test]
    fn spans_group_by_name_and_layer() {
        let mut tr = Tracer::new();
        let root = tr.open_span("root", "bench");
        tr.record("call", "wire", root, 0.0, 1.0);
        tr.record("call", "wire", root, 2.0, 4.0);
        tr.record("call", "suggest", root, 5.0, 5.5);
        tr.spans[root].end = 10.0;
        tr.spans[root].start = 0.0;
        let groups = tr.by_name();
        let names: Vec<(&str, &str, usize)> = groups
            .iter()
            .map(|g| (g.name.as_str(), g.layer, g.calls))
            .collect();
        assert_eq!(
            names,
            vec![
                ("root", "bench", 1),
                ("call", "wire", 2),
                ("call", "suggest", 1)
            ]
        );
        assert_eq!((groups[0].inclusive, groups[0].own), (10.0, 6.5));
        assert_eq!((groups[1].inclusive, groups[1].own), (3.0, 3.0));
    }
}
