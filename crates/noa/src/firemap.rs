//! Rapid mapping: automatic fire-map generation from linked data.
//!
//! "The automatic generation of fire maps enriched with relevant
//! geo-information available as open linked data is made possible with
//! the use of a series of stSPARQL queries and the visualization of the
//! results" (paper §4). A [`FireMap`] is the queryable product of that
//! series: one layer per linked dataset, restricted to the mapped
//! region, plus the detected hotspots.

use teleios_geo::{Coord, Envelope, Geometry};
use teleios_geo::geometry::{LineString, Polygon};
use teleios_rdf::strdf::{geometry_literal_wgs84, parse_geometry};
use teleios_rdf::vocab::{linked, noa};
use teleios_strabon::{Strabon, StrabonError};

/// One thematic layer of the map.
#[derive(Debug, Clone)]
pub struct MapLayer {
    /// Layer name (e.g. `hotspots`, `places`, `roads`).
    pub name: String,
    /// Features: geometry plus display label.
    pub features: Vec<(Geometry, String)>,
}

/// A generated fire map.
#[derive(Debug, Clone)]
pub struct FireMap {
    /// Mapped region.
    pub region: Envelope,
    /// Layers in drawing order (background first).
    pub layers: Vec<MapLayer>,
}

impl FireMap {
    /// Layer by name.
    pub fn layer(&self, name: &str) -> Option<&MapLayer> {
        self.layers.iter().find(|l| l.name == name)
    }

    /// Total feature count.
    pub fn num_features(&self) -> usize {
        self.layers.iter().map(|l| l.features.len()).sum()
    }

    /// GeoJSON FeatureCollection rendering — what a rapid-mapping GIS
    /// client ingests, one feature per line. Layers become a `layer`
    /// property on each feature.
    pub fn to_geojson(&self) -> String {
        let r = &self.region;
        let mut out = String::from("{\"type\":\"FeatureCollection\",\"bbox\":");
        json_numbers(&mut out, &[r.min.x, r.min.y, r.max.x, r.max.y]);
        out.push_str(",\"features\":[");
        let features = self
            .layers
            .iter()
            .flat_map(|layer| layer.features.iter().map(move |f| (&layer.name, f)));
        for (i, (layer, (g, label))) in features.enumerate() {
            out.push_str(if i == 0 { "\n" } else { ",\n" });
            out.push_str("{\"type\":\"Feature\",\"properties\":{\"layer\":");
            json_string(&mut out, layer);
            out.push_str(",\"label\":");
            json_string(&mut out, label);
            out.push_str("},\"geometry\":");
            out.push_str(&geometry_to_geojson(g));
            out.push('}');
        }
        out.push_str("\n]}");
        out
    }

    /// Text rendering (the demo's "visualization of the results").
    pub fn to_text(&self) -> String {
        let mut out = format!(
            "Fire map [{:.2}, {:.2}] x [{:.2}, {:.2}]\n",
            self.region.min.x, self.region.max.x, self.region.min.y, self.region.max.y
        );
        for layer in &self.layers {
            out.push_str(&format!("  layer {:<12} {} feature(s)\n", layer.name, layer.features.len()));
            for (g, label) in layer.features.iter().take(5) {
                out.push_str(&format!("    - {} [{}]\n", label, g.type_name()));
            }
            if layer.features.len() > 5 {
                out.push_str(&format!("    … {} more\n", layer.features.len() - 5));
            }
        }
        out
    }
}

/// Append `s` as a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Append a JSON array of numbers (JSON has no NaN or infinity: `null`).
fn json_numbers(out: &mut String, values: &[f64]) {
    json_array(out, values, |out, v| {
        if v.is_finite() {
            out.push_str(&format!("{v:?}"));
        } else {
            out.push_str("null");
        }
    });
}

/// Append a JSON array, writing each element with `item`.
fn json_array<T>(out: &mut String, items: &[T], item: impl Fn(&mut String, &T)) {
    out.push('[');
    for (i, it) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        item(out, it);
    }
    out.push(']');
}

fn coords_json(out: &mut String, coords: &[Coord]) {
    json_array(out, coords, |out, c| json_numbers(out, &[c.x, c.y]));
}

fn polygon_rings_json(out: &mut String, p: &Polygon) {
    let rings: Vec<&LineString> = std::iter::once(&p.exterior).chain(&p.interiors).collect();
    json_array(out, &rings, |out, r| coords_json(out, r.coords()));
}

/// Convert a geometry to its GeoJSON `geometry` object (as JSON text).
fn geometry_to_geojson(g: &Geometry) -> String {
    let mut body = String::new();
    let out = &mut body;
    let kind = match g {
        Geometry::Point(p) => {
            json_numbers(out, &[p.x(), p.y()]);
            "Point"
        }
        Geometry::LineString(l) => {
            coords_json(out, l.coords());
            "LineString"
        }
        Geometry::Polygon(p) => {
            polygon_rings_json(out, p);
            "Polygon"
        }
        Geometry::MultiPoint(ps) => {
            json_array(out, ps, |out, p| json_numbers(out, &[p.x(), p.y()]));
            "MultiPoint"
        }
        Geometry::MultiLineString(ls) => {
            json_array(out, ls, |out, l| coords_json(out, l.coords()));
            "MultiLineString"
        }
        Geometry::MultiPolygon(ps) => {
            json_array(out, ps, polygon_rings_json);
            "MultiPolygon"
        }
        Geometry::GeometryCollection(gs) => {
            json_array(out, gs, |out, g| out.push_str(&geometry_to_geojson(g)));
            "GeometryCollection"
        }
    };
    let member = if kind == "GeometryCollection" { "geometries" } else { "coordinates" };
    format!("{{\"type\":\"{kind}\",\"{member}\":{body}}}")
}

/// One stSPARQL layer query: features of `class` with geometry
/// intersecting the region.
fn layer_query(class: &str, region_lit: &str, label_pattern: Option<&str>) -> String {
    let label_part = match label_pattern {
        Some(p) => format!("OPTIONAL {{ ?f <{p}> ?label }}"),
        None => String::new(),
    };
    format!(
        "PREFIX strdf: <http://strdf.di.uoa.gr/ontology#>\n\
         SELECT ?f ?g ?label WHERE {{\n\
           ?f a <{class}> ; strdf:hasGeometry ?g .\n\
           {label_part}\n\
           FILTER(strdf:intersects(?g, {region_lit}))\n\
         }}"
    )
}

fn run_layer(
    db: &mut Strabon,
    name: &str,
    class: &str,
    region_lit: &str,
    label_prop: Option<&str>,
) -> Result<MapLayer, StrabonError> {
    let sols = db.query(&layer_query(class, region_lit, label_prop))?;
    let mut features = Vec::with_capacity(sols.len());
    for i in 0..sols.len() {
        let Some(gterm) = sols.get(i, "g") else { continue };
        let Ok((geom, _)) = parse_geometry(gterm) else { continue };
        let label = sols
            .get(i, "label")
            .and_then(|t| t.lexical().map(str::to_string))
            .or_else(|| sols.get(i, "f").and_then(|t| t.as_iri().map(short_iri)))
            .unwrap_or_default();
        features.push((geom, label));
    }
    Ok(MapLayer { name: name.to_string(), features })
}

fn short_iri(iri: &str) -> String {
    iri.rsplit(['/', '#']).next().unwrap_or(iri).to_string()
}

/// Generate the fire map for a region: coastline, land cover, roads,
/// populated places, archaeological sites, and the detected hotspots.
pub fn build_fire_map(db: &mut Strabon, region: &Envelope) -> Result<FireMap, StrabonError> {
    let region_lit =
        geometry_literal_wgs84(&Geometry::Polygon(Polygon::from_envelope(region))).to_string();
    let layers = vec![
        run_layer(
            db,
            "coastline",
            &format!("{}ontology#LandMass", linked::COASTLINE),
            &region_lit,
            None,
        )?,
        run_layer(
            db,
            "landcover",
            &format!("{}ontology#Area", linked::CORINE),
            &region_lit,
            None,
        )?,
        run_layer(db, "roads", &format!("{}Road", linked::LGD), &region_lit, None)?,
        run_layer(
            db,
            "places",
            &format!("{}ontology#PopulatedPlace", linked::GEONAMES),
            &region_lit,
            Some(&format!("{}ontology#name", linked::GEONAMES)),
        )?,
        run_layer(
            db,
            "sites",
            "http://dbpedia.org/ontology/ArchaeologicalSite",
            &region_lit,
            Some("http://www.w3.org/2000/01/rdf-schema#label"),
        )?,
        run_layer(db, "hotspots", noa::HOTSPOT, &region_lit, None)?,
    ];
    Ok(FireMap { region: *region, layers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use teleios_geo::Coord;
    use teleios_linked::emit;
    use teleios_linked::world::{World, WorldSpec};

    fn db_with_world() -> (Strabon, World) {
        let world = World::generate(WorldSpec::default());
        let mut db = Strabon::new();
        emit::emit_all(&world, db.store_mut());
        (db, world)
    }

    #[test]
    fn map_has_all_layers() {
        let (mut db, world) = db_with_world();
        let map = build_fire_map(&mut db, &world.spec.bbox).unwrap();
        assert_eq!(map.layers.len(), 6);
        assert!(map.layer("coastline").unwrap().features.len() == 1);
        assert!(!map.layer("places").unwrap().features.is_empty());
        assert!(!map.layer("landcover").unwrap().features.is_empty());
        assert!(map.layer("hotspots").unwrap().features.is_empty()); // none published
    }

    #[test]
    fn region_restricts_layers() {
        let (mut db, world) = db_with_world();
        let full = build_fire_map(&mut db, &world.spec.bbox).unwrap();
        // A tiny corner region far from the landmass centre.
        let corner = Envelope::new(world.spec.bbox.min, Coord::new(21.05, 36.05));
        let small = build_fire_map(&mut db, &corner).unwrap();
        assert!(small.num_features() < full.num_features());
    }

    #[test]
    fn place_labels_resolved() {
        let (mut db, world) = db_with_world();
        let map = build_fire_map(&mut db, &world.spec.bbox).unwrap();
        let places = map.layer("places").unwrap();
        assert!(places.features.iter().any(|(_, l)| l.starts_with("City-")));
    }

    #[test]
    fn hotspots_appear_after_publication() {
        let (mut db, world) = db_with_world();
        // Publish one hotspot at the window centre.
        let center = world.spec.bbox.center();
        db.insert(
            &teleios_rdf::term::Term::iri("http://teleios.di.uoa.gr/products/p/hotspot/0"),
            &teleios_rdf::term::Term::iri(teleios_rdf::vocab::rdf::TYPE),
            &teleios_rdf::term::Term::iri(noa::HOTSPOT),
        );
        db.insert(
            &teleios_rdf::term::Term::iri("http://teleios.di.uoa.gr/products/p/hotspot/0"),
            &teleios_rdf::term::Term::iri(teleios_rdf::vocab::strdf::HAS_GEOMETRY),
            &geometry_literal_wgs84(&Geometry::Point(teleios_geo::geometry::Point(center))),
        );
        let map = build_fire_map(&mut db, &world.spec.bbox).unwrap();
        assert_eq!(map.layer("hotspots").unwrap().features.len(), 1);
    }

    /// Brackets and braces outside string literals nest and close.
    fn is_balanced(json: &str) -> bool {
        let mut stack = Vec::new();
        let mut chars = json.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => loop {
                    match chars.next() {
                        Some('\\') => drop(chars.next()),
                        Some('"') => break,
                        Some(_) => {}
                        None => return false,
                    }
                },
                '[' => stack.push(']'),
                '{' => stack.push('}'),
                ']' | '}' => {
                    let expected = stack.pop();
                    if expected != Some(c) {
                        return false;
                    }
                }
                _ => {}
            }
        }
        stack.is_empty()
    }

    #[test]
    fn geojson_rendering_is_one_feature_per_line() {
        let (mut db, world) = db_with_world();
        let map = build_fire_map(&mut db, &world.spec.bbox).unwrap();
        let geojson = map.to_geojson();
        assert!(geojson.starts_with("{\"type\":\"FeatureCollection\",\"bbox\":["));
        assert!(is_balanced(&geojson));
        let features: Vec<&str> =
            geojson.lines().filter(|l| l.starts_with("{\"type\":\"Feature\",")).collect();
        assert!(map.num_features() > 0);
        assert_eq!(features.len(), map.num_features());
        // Every feature has a layer property and a typed geometry.
        for f in features {
            assert!(f.contains("\"properties\":{\"layer\":\""), "{f}");
            assert!(f.contains("\"geometry\":{\"type\":\""), "{f}");
        }
    }

    #[test]
    fn geojson_escapes_labels_and_nulls_non_finite_numbers() {
        let point = |x, y| Geometry::Point(teleios_geo::geometry::Point::new(x, y));
        let map = FireMap {
            region: Envelope::new(Coord::new(0.0, 0.0), Coord::new(1.0, 1.5)),
            layers: vec![MapLayer {
                name: "hot\"spots\\".into(),
                features: vec![(point(0.5, f64::NAN), "line\nbreak\ttab\u{1}".into())],
            }],
        };
        let geojson = map.to_geojson();
        assert!(is_balanced(&geojson));
        assert!(geojson.contains("\"bbox\":[0.0,0.0,1.0,1.5]"));
        assert!(geojson.contains(r#""layer":"hot\"spots\\""#));
        assert!(geojson.contains(r#""label":"line\nbreak\ttab\u0001""#));
        assert!(geojson.contains("\"coordinates\":[0.5,null]"));
    }

    #[test]
    fn geometry_to_geojson_shapes() {
        use teleios_geo::wkt;
        let cases = [
            ("POINT (1 2)", r#"{"type":"Point","coordinates":[1.0,2.0]}"#),
            ("LINESTRING (0 0, 1 1)", r#"{"type":"LineString","coordinates":[[0.0,0.0],[1.0,1.0]]}"#),
            (
                "MULTIPOLYGON (((0 0, 1 0, 1 1, 0 0)))",
                r#"{"type":"MultiPolygon","coordinates":[[[[0.0,0.0],[1.0,0.0],[1.0,1.0],[0.0,0.0]]]]}"#,
            ),
            (
                "GEOMETRYCOLLECTION (POINT (1 2))",
                r#"{"type":"GeometryCollection","geometries":[{"type":"Point","coordinates":[1.0,2.0]}]}"#,
            ),
            // A polygon with a hole has two rings.
            (
                "POLYGON ((0 0, 9 0, 9 9, 0 0), (1 1, 2 1, 2 2, 1 1))",
                r#"{"type":"Polygon","coordinates":[[[0.0,0.0],[9.0,0.0],[9.0,9.0],[0.0,0.0]],[[1.0,1.0],[2.0,1.0],[2.0,2.0],[1.0,1.0]]]}"#,
            ),
        ];
        for (wkt_text, expect) in cases {
            assert_eq!(geometry_to_geojson(&wkt::parse(wkt_text).unwrap()), expect);
        }
    }

    #[test]
    fn text_rendering_mentions_layers() {
        let (mut db, world) = db_with_world();
        let map = build_fire_map(&mut db, &world.spec.bbox).unwrap();
        let text = map.to_text();
        assert!(text.contains("layer places"));
        assert!(text.contains("Fire map"));
    }
}
