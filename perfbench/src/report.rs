//! What one benchmark run prints: named metrics with units and sample
//! counts, self-check verdicts, failures, and the final JSON line.

use std::fmt::Write as _;

use stackcache_obs::JsonObj;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as declared in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: u64,
}

/// Everything a run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations whose result was checked.
    pub attempted: u64,
    /// Operations that diverged, were refused, or failed on the wire.
    pub failed: u64,
    /// The first few failure descriptions.
    pub failures: Vec<String>,
    /// Workload self-checks: name, verdict, detail.
    pub checks: Vec<(String, bool, String)>,
    /// Free-form lines printed before the result (tables, provenance).
    pub notes: Vec<String>,
}

impl Report {
    /// Record a metric.
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: u64,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// The value of a recorded metric.
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// Count one checked operation, failed when `error` is set.
    pub fn verdict(&mut self, error: Option<String>) {
        self.attempted += 1;
        if let Some(e) = error {
            self.failed += 1;
            if self.failures.len() < 16 {
                self.failures.push(e);
            }
        }
    }

    /// Merge checked-operation counts gathered elsewhere.
    pub fn absorb(&mut self, attempted: u64, failures: Vec<String>) {
        self.attempted += attempted;
        self.failed += failures.len() as u64;
        for f in failures {
            if self.failures.len() < 16 {
                self.failures.push(f);
            }
        }
    }

    /// Record a workload self-check.
    pub fn check(&mut self, name: &str, ok: bool, detail: String) {
        self.checks.push((name.to_string(), ok, detail));
    }

    /// Add a line to the human-readable part of the output.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every operation agreed with the reference, every
    /// self-check held and every metric is a finite number.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.failed == 0
            && self.checks.iter().all(|(_, ok, _)| *ok)
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// Failed operations divided by attempted ones.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The human-readable lines: notes, metrics, checks, failures.
    #[must_use]
    pub fn human(&self) -> String {
        let mut s = String::new();
        for n in &self.notes {
            let _ = writeln!(s, "{n}");
        }
        for m in &self.metrics {
            let _ = writeln!(
                s,
                "metric {:<40} {:>16.4} {:<6} samples={}",
                m.name, m.value, m.unit, m.samples
            );
        }
        let _ = writeln!(
            s,
            "error_rate {} ({} failed of {} attempted)",
            self.error_rate(),
            self.failed,
            self.attempted
        );
        for (name, ok, detail) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAILED" };
            let _ = writeln!(s, "self-check {name}: {verdict} ({detail})");
        }
        for f in &self.failures {
            let _ = writeln!(s, "failure: {f}");
        }
        s
    }

    /// The final result line: `correct`, `attempted`, `failed`, and
    /// every metric with its unit.
    #[must_use]
    pub fn json_line(&self) -> String {
        let mut metrics = JsonObj::new();
        for m in &self.metrics {
            let mut v = JsonObj::new();
            v.field_f64("value", m.value).field_str("unit", m.unit);
            metrics.field_raw(&m.name, &v.finish());
        }
        let mut o = JsonObj::new();
        o.field_bool("correct", self.correct())
            .field_u64("attempted", self.attempted.max(1))
            .field_u64("failed", self.failed)
            .field_raw("metrics", &metrics.finish());
        o.finish()
    }
}
