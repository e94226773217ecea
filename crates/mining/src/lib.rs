#![forbid(unsafe_code)]
//! # teleios-mining — knowledge discovery and data mining
//!
//! The image-information-mining tier of the Virtual Earth Observatory
//! (paper §1/§2, after Datcu et al.): it closes the *semantic gap*
//! between low-level image descriptors and the domain concepts users
//! search for. Components:
//!
//! * [`ontology::Ontology`] — an OWL-ish concept hierarchy (land-cover
//!   and environmental-monitoring concepts) with RDFS subclass
//!   subsumption reasoning,
//! * [`classify`] — a k-nearest-neighbour feature-vector classifier
//!   mapping patch descriptors to ontology concepts,
//! * [`annotate`] — semantic annotation: publishing classified patches
//!   as stRDF so they join with linked open data in Strabon.

pub mod annotate;
pub mod classify;
pub mod ontology;

pub use classify::{Classifier, LabeledExample};
