//! Order statistics of per-solve samples.

/// Median (mean of the middle pair for even counts); 0 for no samples.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it: the value with exactly ten larger samples, its percentile rank,
/// and the sample count. With too few samples it falls back to the
/// maximum (percentile 100), which the caller reports as such.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            samples: 0,
        };
    }
    let idx = if n > TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    let beyond = n - 1 - idx;
    Tail {
        value: v[idx],
        percentile: 100.0 * (n - beyond) as f64 / n as f64,
        samples: n,
    }
}

/// A tail value with the percentile and sample count it stands for.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    pub value: f64,
    pub percentile: f64,
    pub samples: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 30.0);
        assert_eq!(xs.iter().filter(|&&x| x > t.value).count(), TAIL_BEYOND);
        assert_eq!(t.percentile, 75.0);
        assert_eq!(t.samples, 40);
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum() {
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!(t.value, 5.0);
        assert_eq!(t.percentile, 100.0);
        assert_eq!(t.samples, 3);
    }
}
