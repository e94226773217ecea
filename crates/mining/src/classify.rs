//! Feature-vector classifiers mapping patches to ontology concepts.

use std::collections::HashMap;
use teleios_ingest::features::feature_distance;

/// A training example: feature vector plus concept IRI label.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledExample {
    /// The feature vector.
    pub features: Vec<f64>,
    /// The concept IRI.
    pub label: String,
}

/// A trained k-nearest-neighbour classifier over normalized features.
#[derive(Debug, Clone)]
pub struct Classifier {
    /// Neighbours consulted.
    k: usize,
    /// Normalized training set.
    examples: Vec<LabeledExample>,
    /// Per-dimension (mean, std) used for normalization.
    scaler: Vec<(f64, f64)>,
}

fn fit_scaler(examples: &[LabeledExample]) -> Vec<(f64, f64)> {
    let dim = examples.first().map_or(0, |e| e.features.len());
    let n = examples.len() as f64;
    (0..dim)
        .map(|d| {
            let mean = examples.iter().map(|e| e.features[d]).sum::<f64>() / n;
            let var = examples
                .iter()
                .map(|e| (e.features[d] - mean).powi(2))
                .sum::<f64>()
                / n;
            (mean, var.sqrt().max(1e-9))
        })
        .collect()
}

fn scale(features: &[f64], scaler: &[(f64, f64)]) -> Vec<f64> {
    features
        .iter()
        .zip(scaler)
        .map(|(v, (m, s))| (v - m) / s)
        .collect()
}

impl Classifier {
    /// Train a kNN classifier. Panics on an empty training set or k = 0.
    pub fn train_knn(k: usize, examples: Vec<LabeledExample>) -> Classifier {
        assert!(k > 0, "k must be positive");
        assert!(!examples.is_empty(), "training set must not be empty");
        let scaler = fit_scaler(&examples);
        let examples = examples
            .into_iter()
            .map(|e| LabeledExample { features: scale(&e.features, &scaler), label: e.label })
            .collect();
        Classifier { k, examples, scaler }
    }

    /// Classify a feature vector, returning the winning concept IRI.
    pub(crate) fn classify(&self, features: &[f64]) -> &str {
        let probe = scale(features, &self.scaler);
        // Collect the k nearest by distance.
        let mut dists: Vec<(f64, &str)> = self
            .examples
            .iter()
            .map(|e| (feature_distance(&e.features, &probe), e.label.as_str()))
            .collect();
        dists.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal));
        let mut votes: HashMap<&str, usize> = HashMap::new();
        for (_, label) in dists.iter().take(self.k) {
            *votes.entry(label).or_insert(0) += 1;
        }
        // Majority; ties broken by closeness (first occurrence in
        // the distance-sorted list).
        let best = votes.values().max().copied().unwrap_or(0);
        dists
            .iter()
            .take(self.k)
            .find(|(_, l)| votes[l] == best)
            .map(|(_, l)| *l)
            // Empty training set: no label to emit.
            .unwrap_or("")
    }

    /// Accuracy over a labeled evaluation set.
    pub fn accuracy(&self, eval: &[LabeledExample]) -> f64 {
        if eval.is_empty() {
            return 0.0;
        }
        let correct = eval
            .iter()
            .filter(|e| self.classify(&e.features) == e.label)
            .count();
        correct as f64 / eval.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated clusters in 2-D.
    fn clustered(n: usize) -> Vec<LabeledExample> {
        let mut out = Vec::new();
        for i in 0..n {
            let t = i as f64 / n as f64;
            out.push(LabeledExample {
                features: vec![t * 0.1, 1.0 + t * 0.1],
                label: "http://c/A".into(),
            });
            out.push(LabeledExample {
                features: vec![5.0 + t * 0.1, -3.0 + t * 0.1],
                label: "http://c/B".into(),
            });
        }
        out
    }

    #[test]
    fn knn_separates_clusters() {
        let c = Classifier::train_knn(3, clustered(10));
        assert_eq!(c.classify(&[0.05, 1.0]), "http://c/A");
        assert_eq!(c.classify(&[5.0, -3.0]), "http://c/B");
    }

    #[test]
    fn accuracy_on_training_data_is_high() {
        let data = clustered(20);
        let knn = Classifier::train_knn(1, data.clone());
        assert_eq!(knn.accuracy(&data), 1.0);
    }

    #[test]
    fn scaling_makes_dimensions_comparable() {
        // One dimension has a huge scale; without normalization it would
        // dominate. Class is determined by the small dimension.
        let mut data = Vec::new();
        for i in 0..10 {
            data.push(LabeledExample {
                features: vec![1e6 + i as f64, 0.0],
                label: "http://c/zero".into(),
            });
            data.push(LabeledExample {
                features: vec![1e6 + i as f64, 1.0],
                label: "http://c/one".into(),
            });
        }
        let c = Classifier::train_knn(3, data);
        assert_eq!(c.classify(&[1e6, 0.05]), "http://c/zero");
        assert_eq!(c.classify(&[1e6, 0.95]), "http://c/one");
    }

    #[test]
    fn knn_majority_vote() {
        let data = vec![
            LabeledExample { features: vec![0.0], label: "http://c/A".into() },
            LabeledExample { features: vec![0.1], label: "http://c/A".into() },
            LabeledExample { features: vec![0.2], label: "http://c/B".into() },
        ];
        let c = Classifier::train_knn(3, data);
        assert_eq!(c.classify(&[0.15]), "http://c/A");
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn knn_zero_k_panics() {
        Classifier::train_knn(0, clustered(2));
    }

    #[test]
    #[should_panic(expected = "training set must not be empty")]
    fn empty_training_panics() {
        Classifier::train_knn(1, Vec::new());
    }

    #[test]
    fn accuracy_of_empty_eval_is_zero() {
        let c = Classifier::train_knn(1, clustered(2));
        assert_eq!(c.accuracy(&[]), 0.0);
    }
}
