//! Named metrics with units, and the statistics the harness reports.

/// Metrics in insertion order; setting a name again replaces its value.
#[derive(Debug, Default, Clone)]
pub struct Metrics {
    entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(e) => {
                e.1 = value;
                e.2 = unit;
            }
            None => self.entries.push((name.to_owned(), value, unit)),
        }
    }

    /// Every `(name, value, unit)`.
    pub fn iter(&self) -> impl Iterator<Item = &(String, f64, &'static str)> {
        self.entries.iter()
    }

    /// Appends every metric of `other`.
    pub fn extend(&mut self, other: &Metrics) {
        for (n, v, u) in other.iter() {
            self.set(n, *v, u);
        }
    }
}

/// Median (mean of the middle two for an even count); NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and every metric with its unit. Values print with all their
/// digits (Rust's shortest round-trip form).
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(n, v, u)| {
            let v = if v.is_finite() { format!("{v:?}") } else { "null".to_owned() };
            format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
