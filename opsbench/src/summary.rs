//! Median and quartiles of a small sample, the way the driver computes
//! them (Python's `statistics.quantiles(values, n=4)`, exclusive method).

use serde_json::{json, Value};

/// Quartiles and size of one sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles of `values` (exclusive method: the p-th quantile sits at
    /// rank `p·(n+1)`, linearly interpolated, clamped to the sample). A
    /// single value is its own quartiles; panics on an empty sample — a
    /// benchmark that measured nothing has nothing to report.
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut sorted = values.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let at = |p: f64| {
            let rank = p * (n as f64 + 1.0);
            let lo = (rank.floor() as usize).clamp(1, n);
            let hi = (lo + 1).min(n);
            let frac = (rank - lo as f64).clamp(0.0, 1.0);
            sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
        };
        Quartiles {
            q1: at(0.25),
            median: at(0.5),
            q3: at(0.75),
            n,
        }
    }

    /// Interquartile range as a share of the median (0 when the median
    /// is 0).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// JSON form for the detail line. With fewer than 21 samples no
    /// percentile has ten samples beyond it, so none is reported.
    pub fn to_json(self) -> Value {
        json!({
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "n": self.n,
            "tail": if self.n < 21 { Value::String("n<21: no percentile has ten samples beyond it".into()) } else { Value::Null },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_python_statistics_quantiles_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let q = Quartiles::of(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        let q = Quartiles::of(&[4.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        let q = Quartiles::of(&[3.0, 1.0, 4.0, 1.0, 5.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 3.0, 4.5));
    }

    #[test]
    fn one_sample_is_its_own_quartiles_and_spread_is_relative() {
        let q = Quartiles::of(&[7.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (7.0, 7.0, 7.0, 1));
        let q = Quartiles::of(&[90.0, 100.0, 110.0]);
        assert!((q.spread() - 0.2).abs() < 1e-12);
        assert_eq!(Quartiles::of(&[0.0, 0.0]).spread(), 0.0);
    }
}
