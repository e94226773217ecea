//! Namespace constants used across the Virtual Earth Observatory.

/// RDF core vocabulary.
pub mod rdf {
    /// `rdf:type`.
    pub const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    /// Namespace prefix.
    pub const NS: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
}

/// RDFS vocabulary.
pub mod rdfs {
    /// `rdfs:subClassOf`.
    pub const SUB_CLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    /// `rdfs:label`.
    pub const LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
    /// Namespace prefix.
    pub const NS: &str = "http://www.w3.org/2000/01/rdf-schema#";
}

/// XML Schema datatypes.
pub mod xsd {
    /// `xsd:integer`.
    pub const INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    /// `xsd:double`.
    pub const DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
    /// `xsd:boolean`.
    pub const BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
    /// `xsd:dateTime`.
    pub(crate) const DATE_TIME: &str = "http://www.w3.org/2001/XMLSchema#dateTime";
    /// `xsd:string`.
    pub const STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
    /// Namespace prefix.
    pub const NS: &str = "http://www.w3.org/2001/XMLSchema#";
}

/// The stRDF/stSPARQL vocabulary (Koubarakis & Kyzirakos, ESWC 2010).
pub mod strdf {
    /// Datatype of spatial literals in WKT form.
    pub const WKT: &str = "http://strdf.di.uoa.gr/ontology#WKT";
    /// Datatype of valid-time period literals.
    pub(crate) const PERIOD: &str = "http://strdf.di.uoa.gr/ontology#period";
    /// Property linking a feature to its geometry literal.
    pub const HAS_GEOMETRY: &str = "http://strdf.di.uoa.gr/ontology#hasGeometry";
    /// Property linking a triple/product to its valid time.
    pub const HAS_VALID_TIME: &str = "http://strdf.di.uoa.gr/ontology#hasValidTime";
    /// Namespace prefix.
    pub const NS: &str = "http://strdf.di.uoa.gr/ontology#";
}

/// The NOA fire-monitoring application vocabulary.
pub mod noa {
    /// Namespace prefix.
    pub const NS: &str = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#";
    /// Class of raw satellite image products.
    pub const RAW_IMAGE: &str = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#RawImage";
    /// Class of hotspot products.
    pub const HOTSPOT: &str = "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#Hotspot";
    /// Class of derived (processed) products.
    pub const DERIVED_PRODUCT: &str =
        "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#DerivedProduct";
    /// Acquisition time property.
    pub const HAS_ACQUISITION_TIME: &str =
        "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasAcquisitionTime";
    /// Sensor/satellite property.
    pub const ACQUIRED_BY: &str =
        "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#isAcquiredBy";
    /// Confidence of a detected hotspot.
    pub const HAS_CONFIDENCE: &str =
        "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#hasConfidence";
    /// Links a derived product to the raw product it came from.
    pub const IS_DERIVED_FROM: &str =
        "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#isDerivedFrom";
    /// Processing chain (classifier) that produced a product.
    pub const PRODUCED_BY_CHAIN: &str =
        "http://teleios.di.uoa.gr/ontologies/noaOntology.owl#isProducedByProcessingChain";
}

/// Synthetic linked-data namespaces (GeoNames / LinkedGeoData / CORINE
/// stand-ins generated by `teleios-linked`).
pub mod linked {
    /// GeoNames-like namespace for populated places and sites.
    pub const GEONAMES: &str = "http://sws.geonames.org/";
    /// LinkedGeoData-like namespace for roads and infrastructure.
    pub const LGD: &str = "http://linkedgeodata.org/triplify/";
    /// CORINE-like land-cover namespace.
    pub const CORINE: &str = "http://geo.linkedopendata.gr/corine/";
    /// Coastline dataset namespace.
    pub const COASTLINE: &str = "http://geo.linkedopendata.gr/coastline/";
}

#[cfg(test)]
mod tests {
    #[test]
    fn namespaces_are_consistent() {
        assert!(super::rdf::TYPE.starts_with(super::rdf::NS));
        assert!(super::rdfs::SUB_CLASS_OF.starts_with(super::rdfs::NS));
        assert!(super::xsd::INTEGER.starts_with(super::xsd::NS));
        assert!(super::strdf::WKT.starts_with(super::strdf::NS));
        assert!(super::noa::HOTSPOT.starts_with(super::noa::NS));
    }
}
