//! `BENCHMARK.json`, compiled in: the one place that names the workloads,
//! the metrics, their units and their regression bounds.  The harness
//! prints exactly the metrics listed there.  `BENCHMARK.json` has room for
//! one bound per metric, which is the loosest any workload needs; the bound
//! of each workload × metric pairing, derived from the committed noise data,
//! is compiled in from `noise.json`, and `compare` judges gaps by those.

use fg_core::Json;

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may get worse;
    /// per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Contract {
    pub run_seconds: u64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// `(workload, metric, bound)` of every pairing `noise.json` lists.
    pub cell_bounds: Vec<(String, String, f64)>,
}

impl Contract {
    pub fn load() -> Contract {
        let doc = Json::parse(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json is valid JSON");
        let text = |j: &Json, key: &str| -> String {
            j.get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("`{key}` must be a string"))
                .to_string()
        };
        let list = |key: &str| -> &[Json] {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("BENCHMARK.json: `{key}` must be a list"))
        };
        let metrics = |key: &str| -> Vec<Metric> {
            list(key)
                .iter()
                .map(|m| Metric {
                    name: text(m, "name"),
                    unit: text(m, "unit"),
                    lower_is_better: text(m, "better") == "lower",
                    bound: m.get("bound").and_then(Json::as_f64),
                })
                .collect()
        };
        let noise = Json::parse(include_str!("../noise.json")).expect("noise.json is valid JSON");
        let cell_bounds = noise
            .get("cells")
            .and_then(Json::as_arr)
            .expect("noise.json: `cells` must be a list")
            .iter()
            .filter_map(|c| {
                let bound = c.get("bound").and_then(Json::as_f64)?;
                Some((text(c, "workload"), text(c, "metric"), bound))
            })
            .collect();
        Contract {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_u64)
                .expect("BENCHMARK.json: `run_seconds` must be a number"),
            workloads: list("workloads").iter().map(|w| text(w, "name")).collect(),
            end_to_end: metrics("end_to_end"),
            per_layer: metrics("per_layer"),
            cell_bounds,
        }
    }

    /// The regression bound of one workload × end-to-end metric pairing.
    pub fn cell_bound(&self, workload: &str, metric: &str) -> f64 {
        self.cell_bounds
            .iter()
            .find(|(w, m, _)| w == workload && m == metric)
            .map(|(_, _, bound)| *bound)
            .unwrap_or_else(|| panic!("noise.json has no bound for {workload}/{metric}"))
    }

    /// Pair measured values with the contract's metrics, in the contract's
    /// order.  A metric the harness did not measure, or one it measured
    /// that the contract does not list, is a bug in the benchmark.
    pub fn label<'a>(
        metrics: &'a [Metric],
        measured: &[(&'static str, f64)],
    ) -> Result<Vec<(&'a Metric, f64)>, String> {
        if let Some((extra, _)) = measured
            .iter()
            .find(|(name, _)| !metrics.iter().any(|m| m.name == *name))
        {
            return Err(format!(
                "BENCHMARK.json does not list measured metric {extra}"
            ));
        }
        metrics
            .iter()
            .map(|m| {
                measured
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .map(|(_, v)| (m, *v))
                    .ok_or_else(|| format!("metric {} was not measured", m.name))
            })
            .collect()
    }
}
