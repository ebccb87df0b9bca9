//! The benchmark's result line: metrics with units, rendered as one JSON
//! object.

use crate::stats::valid_metric_name;

/// A metric value: a measured float, or a seed-deterministic count printed
/// as an exact integer so it can be compared exactly between runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// A measured quantity.
    Real(f64),
    /// An exact count.
    Count(u64),
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name (`[A-Za-z0-9_.-]+`).
    pub name: String,
    /// Its value.
    pub value: Value,
    /// Its unit (`s`, `ms`, `1/s`, `count`, ...).
    pub unit: &'static str,
}

/// An ordered set of metrics.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<Metric>);

impl Metrics {
    /// Records a measured value.
    pub fn real(&mut self, name: &str, value: f64, unit: &'static str) {
        self.push_value(name, Value::Real(value), unit);
    }

    /// Records an exact count.
    pub fn count(&mut self, name: &str, value: u64) {
        self.push_value(name, Value::Count(value), "count");
    }

    /// Records `value` under `name`; names must be valid and unique.
    pub fn push_value(&mut self, name: &str, value: Value, unit: &'static str) {
        assert!(valid_metric_name(name), "invalid metric name {name:?}");
        assert!(self.get(name).is_none(), "metric {name:?} recorded twice");
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The metric named `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    /// Metric names in recording order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.0.iter().map(|m| m.name.as_str())
    }

    /// The metrics in recording order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.0.iter()
    }
}

/// The run's verdict and metrics, rendered as the last stdout line.
#[derive(Debug, Clone)]
pub struct ResultLine {
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed, were refused, or failed an output check.
    pub failed: u64,
    /// The metrics to print.
    pub metrics: Metrics,
}

impl ResultLine {
    /// Renders the line as compact JSON. Floats use Rust's shortest
    /// round-trip formatting (every significant digit); a non-finite value
    /// is a bug in the benchmark and panics rather than printing invalid
    /// JSON.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = match m.value {
                    Value::Real(v) => {
                        assert!(v.is_finite(), "metric {} is not finite: {v}", m.name);
                        let text = format!("{v}");
                        // `1` is valid JSON, but keep reals visibly real.
                        if text.contains(['.', 'e', 'E']) {
                            text
                        } else {
                            format!("{text}.0")
                        }
                    }
                    Value::Count(c) => c.to_string(),
                };
                format!(
                    "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use marius::core::checkpoint::json::Json;

    fn sample() -> ResultLine {
        let mut metrics = Metrics::default();
        metrics.real("setup_s", 0.812_734_5, "s");
        metrics.real("throughput_per_s", 1234.0, "1/s");
        metrics.real("tiny", 1.5e-7, "s");
        metrics.count("storage.bytes_read", 88_123_456_789);
        ResultLine {
            correct: true,
            attempted: 1000,
            failed: 0,
            metrics,
        }
    }

    #[test]
    fn result_line_parses_back_through_the_checkpoint_json_reader() {
        let text = sample().to_json();
        let json = Json::parse(&text).expect("valid JSON");
        assert!(json.field("correct").unwrap().as_bool().unwrap());
        assert_eq!(json.u64_field("attempted").unwrap(), 1000);
        assert_eq!(json.u64_field("failed").unwrap(), 0);
        let metrics = json.field("metrics").unwrap();
        let setup = metrics.field("setup_s").unwrap();
        assert_eq!(setup.field("value").unwrap().as_f64().unwrap(), 0.812_734_5);
        assert_eq!(setup.str_field("unit").unwrap(), "s");
        let tp = metrics.field("throughput_per_s").unwrap();
        assert_eq!(tp.field("value").unwrap().as_f64().unwrap(), 1234.0);
        assert_eq!(
            metrics
                .field("tiny")
                .unwrap()
                .field("value")
                .unwrap()
                .as_f64()
                .unwrap(),
            1.5e-7
        );
        let bytes = metrics.field("storage.bytes_read").unwrap();
        assert_eq!(bytes.u64_field("value").unwrap(), 88_123_456_789);
        assert_eq!(bytes.str_field("unit").unwrap(), "count");
        match json {
            Json::Obj(pairs) => {
                let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            }
            other => panic!("expected an object, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "invalid metric name")]
    fn invalid_names_are_rejected() {
        Metrics::default().real("bad name", 1.0, "s");
    }

    #[test]
    #[should_panic(expected = "recorded twice")]
    fn duplicate_names_are_rejected() {
        let mut m = Metrics::default();
        m.count("a", 1);
        m.count("a", 2);
    }

    #[test]
    #[should_panic(expected = "not finite")]
    fn non_finite_values_are_rejected() {
        let mut metrics = Metrics::default();
        metrics.real("x", f64::NAN, "s");
        ResultLine {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics,
        }
        .to_json();
    }
}
