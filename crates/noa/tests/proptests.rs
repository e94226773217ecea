//! Property-based tests of the NOA product pipeline invariants.

use teleios_check::{forall, Gen};
use teleios_ingest::raster::GeoTransform;
use teleios_monet::array::NdArray;
use teleios_noa::accuracy;
use teleios_noa::refine::features_to_mask;
use teleios_noa::shapefile::mask_to_features;

fn geo() -> GeoTransform {
    GeoTransform { origin_x: 0.0, origin_y: 16.0, pixel_w: 1.0, pixel_h: 1.0 }
}

fn mask_from_cells(rows: usize, cols: usize, cells: &[(usize, usize)]) -> NdArray {
    let mut m = NdArray::matrix(rows, cols, vec![0.0; rows * cols]).expect("mask");
    for &(r, c) in cells {
        m.set(&[r % rows, c % cols], 1.0).expect("in range");
    }
    m
}

/// Up to `max` cell positions on an `n`×`n` grid.
fn cells(g: &mut Gen, n: usize, max: usize) -> Vec<(usize, usize)> {
    g.vec(0..max, |g| (g.size(0..n), g.size(0..n)))
}

/// Polygonization is exact: total feature area equals the number of
/// positive pixels (pixel size 1), and feature cell counts partition
/// the positive pixels.
#[test]
fn polygonization_conserves_area() {
    forall(
        |g| cells(g, 16, 60),
        |cells| {
            let mask = mask_from_cells(16, 16, &cells);
            let positive = mask.data().iter().filter(|&&v| v > 0.0).count();
            let features = mask_to_features(&mask, &geo()).expect("features");
            let total_cells: usize = features.iter().map(|f| f.cells).sum();
            assert_eq!(total_cells, positive);
            let total_area: f64 = features.iter().map(|f| f.polygon.area()).sum();
            assert!(
                (total_area - positive as f64).abs() < 1e-9,
                "area {} != pixels {}",
                total_area,
                positive
            );
        },
    );
}

/// Every produced polygon is structurally valid.
#[test]
fn polygonization_produces_valid_geometries() {
    forall(
        |g| cells(g, 12, 50),
        |cells| {
            let mask = mask_from_cells(12, 12, &cells);
            for f in mask_to_features(&mask, &geo()).expect("features") {
                assert!(f.geometry().validate().is_ok());
            }
        },
    );
}

/// Rasterizing the features back yields the original mask
/// (mask → polygons → mask is the identity).
#[test]
fn polygonize_rasterize_roundtrip() {
    forall(
        |g| cells(g, 12, 50),
        |cells| {
            let mask = mask_from_cells(12, 12, &cells);
            let features = mask_to_features(&mask, &geo()).expect("features");
            let polys: Vec<&teleios_geo::geometry::Polygon> =
                features.iter().map(|f| &f.polygon).collect();
            let back = features_to_mask(&polys, &geo(), 12, 12);
            assert_eq!(back, mask);
        },
    );
}

/// Accuracy counts partition the pixel grid.
#[test]
fn accuracy_counts_partition() {
    forall(
        |g| (cells(g, 10, 40), cells(g, 10, 40)),
        |(detected, truth)| {
            let d = mask_from_cells(10, 10, &detected);
            let t = mask_from_cells(10, 10, &truth);
            let a = accuracy::score(&d, &t).expect("score");
            assert_eq!(
                a.true_positives + a.false_positives + a.false_negatives + a.true_negatives,
                100
            );
            assert!(a.precision() >= 0.0 && a.precision() <= 1.0);
            assert!(a.recall() >= 0.0 && a.recall() <= 1.0);
            assert!(a.f1() >= 0.0 && a.f1() <= 1.0);
        },
    );
}

/// Burnt-area accumulation is commutative and idempotent.
#[test]
fn burnt_accumulation_properties() {
    use teleios_noa::burnt::accumulate_masks;
    forall(
        |g| (cells(g, 8, 20), cells(g, 8, 20)),
        |(a_cells, b_cells)| {
            let a = mask_from_cells(8, 8, &a_cells);
            let b = mask_from_cells(8, 8, &b_cells);
            let ab = accumulate_masks(&[a.clone(), b.clone()]).expect("acc");
            let ba = accumulate_masks(&[b.clone(), a.clone()]).expect("acc");
            assert_eq!(&ab, &ba);
            let aa = accumulate_masks(&[a.clone(), a.clone()]).expect("acc");
            assert_eq!(aa, a);
            // Union dominates both inputs.
            for (o, i) in ab.data().iter().zip(b.data()) {
                assert!(o >= i);
            }
        },
    );
}
