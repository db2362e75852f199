//! The built-in benchmark applications by name, used by the experiment
//! harness, the serve layer, examples, and integration tests.
//!
//! The table is fixed at compile time: the paper's Table 1 order,
//! followed by the survey-workload ports. Names compare
//! case-insensitively, and a lookup builds only the application it
//! names.

use crate::{Bodytrack, CoMd, Lulesh, PageRank, Pso, Stencil, StreamAgg, VideoPipeline};
use opprox_approx_rt::ApproxApp;

type Build = fn() -> Box<dyn ApproxApp>;

/// Each built-in application's name (its `meta().name`) and constructor.
const BUILTIN: [(&str, Build); 8] = [
    ("LULESH", || Box::new(Lulesh::new())),
    ("FFmpeg", || Box::new(VideoPipeline::new())),
    ("Bodytrack", || Box::new(Bodytrack::new())),
    ("PSO", || Box::new(Pso::new())),
    ("CoMD", || Box::new(CoMd::new())),
    ("PageRank", || Box::new(PageRank::new())),
    ("StreamAgg", || Box::new(StreamAgg::new())),
    ("Stencil", || Box::new(Stencil::new())),
];

/// Instantiates every built-in benchmark application, in the paper's
/// Table 1 order followed by the survey-workload ports.
///
/// # Example
///
/// ```
/// let apps = opprox_apps::registry::all_apps();
/// let names: Vec<&str> = apps.iter().map(|a| a.meta().name.as_str()).collect();
/// assert_eq!(
///     names,
///     ["LULESH", "FFmpeg", "Bodytrack", "PSO", "CoMD", "PageRank", "StreamAgg", "Stencil"]
/// );
/// ```
pub fn all_apps() -> Vec<Box<dyn ApproxApp>> {
    BUILTIN.iter().map(|(_, build)| build()).collect()
}

/// Builds the built-in application with this (case-insensitive) name.
///
/// # Example
///
/// ```
/// let app = opprox_apps::registry::by_name("lulesh").unwrap();
/// assert_eq!(app.meta().num_blocks(), 4);
/// assert!(opprox_apps::registry::by_name("nosuch").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Box<dyn ApproxApp>> {
    BUILTIN
        .iter()
        .find(|(known, _)| known.eq_ignore_ascii_case(name))
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_lists_eight_apps_with_metadata() {
        let apps = all_apps();
        assert_eq!(apps.len(), 8);
        for app in &apps {
            let meta = app.meta();
            assert!(!meta.name.is_empty());
            assert!(meta.num_blocks() >= 3, "{} has too few blocks", meta.name);
            assert!(!meta.input_param_names.is_empty());
            assert!(
                !app.representative_inputs().is_empty(),
                "{} has no training inputs",
                meta.name
            );
        }
    }

    #[test]
    fn every_representative_input_runs_golden() {
        for app in all_apps() {
            for input in app.representative_inputs() {
                let g = app.golden(&input).expect("golden run");
                assert!(g.work > 0);
                assert!(g.outer_iters > 0);
                assert!(!g.output.is_empty());
            }
        }
    }

    /// The table's names are the apps' own: every name resolves in any
    /// case to the app that declares it, no two names collide
    /// case-insensitively, and an unknown name resolves to nothing.
    #[test]
    fn by_name_resolves_every_builtin_name_in_any_case() {
        for (i, (name, _)) in BUILTIN.iter().enumerate() {
            for spelling in [name.to_string(), name.to_lowercase(), name.to_uppercase()] {
                let app = by_name(&spelling).unwrap_or_else(|| panic!("`{spelling}` unresolved"));
                assert_eq!(app.meta().name, *name);
            }
            for (other, _) in &BUILTIN[i + 1..] {
                assert!(!name.eq_ignore_ascii_case(other), "{name} vs {other}");
            }
        }
        assert!(by_name("unknown").is_none());
        assert!(by_name("").is_none());
    }
}
