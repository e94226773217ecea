#![forbid(unsafe_code)]
//! TELEIOS facade: re-exports every tier of the Virtual Earth Observatory.
pub use teleios_core as core;
pub use teleios_exec as exec;
pub use teleios_geo as geo;
pub use teleios_ingest as ingest;
pub use teleios_linked as linked;
pub use teleios_mining as mining;
pub use teleios_monet as monet;
pub use teleios_noa as noa;
pub use teleios_rdf as rdf;
pub use teleios_resilience as resilience;
pub use teleios_sciql as sciql;
pub use teleios_store as store;
pub use teleios_strabon as strabon;
pub use teleios_vault as vault;
