//! A registry of the benchmark applications, used by the experiment
//! harness, the serve layer, examples, and integration tests.
//!
//! The registry is *registration-based*: [`AppRegistry::register`]
//! refuses a second application with the same (case-insensitive) name
//! with a typed [`RegistryError`] instead of silently overwriting — a
//! silent overwrite would let one mis-named port shadow another and every
//! downstream artifact (models, traces, serve stores) would attribute its
//! results to the wrong application. The free functions [`all_apps`] and
//! [`by_name`] expose the built-in registry the way earlier revisions
//! did.

use crate::{Bodytrack, CoMd, Lulesh, PageRank, Pso, Stencil, StreamAgg, VideoPipeline};
use opprox_approx_rt::ApproxApp;

/// Errors produced by application registration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// An application with this (case-insensitive) name is already
    /// registered; registration never overwrites.
    DuplicateApp {
        /// The name that collided.
        name: String,
    },
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::DuplicateApp { name } => {
                write!(f, "an app named `{name}` is already registered")
            }
        }
    }
}

impl std::error::Error for RegistryError {}

/// An ordered collection of registered applications with unique,
/// case-insensitively compared names.
///
/// # Example
///
/// ```
/// use opprox_apps::{AppRegistry, Pso};
///
/// let mut registry = AppRegistry::empty();
/// registry.register(Box::new(Pso::new())).unwrap();
/// assert!(registry.register(Box::new(Pso::new())).is_err()); // duplicate
/// assert_eq!(registry.names(), ["PSO"]);
/// ```
#[derive(Default)]
pub struct AppRegistry {
    apps: Vec<Box<dyn ApproxApp>>,
}

impl AppRegistry {
    /// Creates an empty registry.
    pub fn empty() -> Self {
        AppRegistry { apps: Vec::new() }
    }

    /// Creates a registry holding every built-in benchmark application:
    /// the paper's Table 1 order, followed by the survey-workload ports.
    pub(crate) fn with_builtin() -> Self {
        let mut registry = AppRegistry::empty();
        let builtin: Vec<Box<dyn ApproxApp>> = vec![
            Box::new(Lulesh::new()),
            Box::new(VideoPipeline::new()),
            Box::new(Bodytrack::new()),
            Box::new(Pso::new()),
            Box::new(CoMd::new()),
            Box::new(PageRank::new()),
            Box::new(StreamAgg::new()),
            Box::new(Stencil::new()),
        ];
        for app in builtin {
            registry
                .register(app)
                .expect("built-in application names are unique");
        }
        registry
    }

    /// Registers an application, keeping registration order.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::DuplicateApp`] when an app with the same
    /// case-insensitive name is already present; the registry is left
    /// unchanged.
    pub fn register(&mut self, app: Box<dyn ApproxApp>) -> Result<(), RegistryError> {
        let name = app.meta().name.clone();
        if self.by_name(&name).is_some() {
            return Err(RegistryError::DuplicateApp { name });
        }
        self.apps.push(app);
        Ok(())
    }

    /// The registered applications, in registration order.
    pub fn apps(&self) -> &[Box<dyn ApproxApp>] {
        &self.apps
    }

    /// Consumes the registry, yielding the applications in order.
    pub(crate) fn into_apps(self) -> Vec<Box<dyn ApproxApp>> {
        self.apps
    }

    /// Looks an application up by its (case-insensitive) name.
    pub fn by_name(&self, name: &str) -> Option<&dyn ApproxApp> {
        self.apps
            .iter()
            .find(|a| a.meta().name.eq_ignore_ascii_case(name))
            .map(|a| a.as_ref())
    }

    /// The registered application names, in registration order.
    pub fn names(&self) -> Vec<String> {
        self.apps.iter().map(|a| a.meta().name.clone()).collect()
    }

    /// Number of registered applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }
}

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
    AppRegistry::with_builtin().into_apps()
}

/// Looks a built-in application up by its (case-insensitive) name.
///
/// # Example
///
/// ```
/// let app = opprox_apps::registry::by_name("lulesh").unwrap();
/// assert_eq!(app.meta().num_blocks(), 4);
/// assert!(opprox_apps::registry::by_name("nosuch").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Box<dyn ApproxApp>> {
    all_apps()
        .into_iter()
        .find(|a| a.meta().name.eq_ignore_ascii_case(name))
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

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(by_name("FFMPEG").is_some());
        assert!(by_name("CoMD").is_some());
        assert!(by_name("pagerank").is_some());
        assert!(by_name("STREAMAGG").is_some());
        assert!(by_name("stencil").is_some());
        assert!(by_name("unknown").is_none());
    }

    #[test]
    fn duplicate_registration_is_refused_and_leaves_registry_intact() {
        let mut registry = AppRegistry::with_builtin();
        let before = registry.names();
        let err = registry
            .register(Box::new(Pso::new()))
            .expect_err("duplicate must be refused");
        assert_eq!(err, RegistryError::DuplicateApp { name: "PSO".into() });
        assert!(err.to_string().contains("PSO"));
        assert_eq!(registry.names(), before, "failed registration mutated");
    }

    /// The duplicate check is case-insensitive, matching `by_name` — a
    /// `pso`/`PSO` pair would be distinct keys to a naive map but the
    /// same app to every lookup path.
    #[test]
    fn duplicate_check_is_case_insensitive() {
        struct Renamed(opprox_approx_rt::app::AppMeta);
        impl ApproxApp for Renamed {
            fn meta(&self) -> &opprox_approx_rt::app::AppMeta {
                &self.0
            }
            fn run(
                &self,
                _: &opprox_approx_rt::InputParams,
                _: &opprox_approx_rt::PhaseSchedule,
            ) -> Result<opprox_approx_rt::RunResult, opprox_approx_rt::RuntimeError> {
                unreachable!("registration never runs the app")
            }
            fn representative_inputs(&self) -> Vec<opprox_approx_rt::InputParams> {
                Vec::new()
            }
        }
        let mut meta = Pso::new().meta().clone();
        meta.name = "pso".into();
        let mut registry = AppRegistry::with_builtin();
        assert!(matches!(
            registry.register(Box::new(Renamed(meta))),
            Err(RegistryError::DuplicateApp { .. })
        ));
    }

    #[test]
    fn empty_registry_accepts_then_refuses() {
        let mut registry = AppRegistry::empty();
        assert!(registry.is_empty());
        registry
            .register(Box::new(Stencil::new()))
            .expect("first registration succeeds");
        assert_eq!(registry.len(), 1);
        assert!(registry.by_name("stencil").is_some());
        assert!(registry.register(Box::new(Stencil::new())).is_err());
        assert_eq!(registry.len(), 1);
    }
}
