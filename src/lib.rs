//! `dike` — umbrella crate for the reproduction of *"When the Dike Breaks:
//! Dissecting DNS Defenses During DDoS"* (Moura et al., ACM IMC 2018).
//!
//! This crate re-exports the full workspace public API. Start with
//! [`experiments`]: an [`experiments::ExperimentSetup`] describes a run,
//! [`experiments::Report::run`] executes it, and
//! [`experiments::SweepEngine`] varies it along axes. The `examples/`
//! directory has runnable scenarios.

pub use dike_attack as attack;
pub use dike_auth as auth;
pub use dike_cache as cache;
pub use dike_defense as defense;
pub use dike_experiments as experiments;
pub use dike_faults as faults;
pub use dike_netsim as netsim;
pub use dike_resolver as resolver;
pub use dike_serve as serve;
pub use dike_stats as stats;
pub use dike_stub as stub;
pub use dike_telemetry as telemetry;
pub use dike_wire as wire;
