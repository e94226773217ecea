//! Result digests: FNV-1a folds for ordered sequences and an
//! order-insensitive row hash for query answers.

use teleios_monet::catalog::ResultSet;
use teleios_noa::firemap::FireMap;
use teleios_strabon::Solutions;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An ordered FNV-1a fold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fold(pub u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(FNV_OFFSET)
    }
}

impl Fold {
    /// Fold in raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Fold {
        for b in bytes {
            self.0 = (self.0 ^ u64::from(*b)).wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Fold in a string plus a terminator, so `("ab","c")` ≠ `("a","bc")`.
    pub fn text(&mut self, s: &str) -> &mut Fold {
        self.bytes(s.as_bytes()).bytes(&[0xff])
    }

    /// Fold in an integer.
    pub fn num(&mut self, v: u64) -> &mut Fold {
        self.bytes(&v.to_le_bytes())
    }
}

/// `(row count, order-insensitive hash)` of an answer: each row is
/// hashed on its own and the row hashes are summed, so two engines
/// that return the same rows in different orders agree.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Answer {
    /// Number of rows.
    pub rows: usize,
    /// Wrapping sum of the per-row hashes.
    pub hash: u64,
}

impl Answer {
    /// Add one row given its cells rendered as text.
    pub fn push_row<'a>(&mut self, cells: impl Iterator<Item = &'a str>) {
        let mut fold = Fold::default();
        for cell in cells {
            fold.text(cell);
        }
        self.rows += 1;
        self.hash = self.hash.wrapping_add(fold.0);
    }
}

/// Per-row hashes of an stSPARQL answer (unbound cells hash as empty).
pub fn solution_row_hashes(sols: &Solutions) -> Vec<u64> {
    sols.rows
        .iter()
        .map(|row| {
            let mut fold = Fold::default();
            for cell in row {
                fold.text(&cell.as_ref().map(ToString::to_string).unwrap_or_default());
            }
            fold.0
        })
        .collect()
}

/// Digest of an stSPARQL answer.
pub fn of_solutions(sols: &Solutions) -> Answer {
    let hashes = solution_row_hashes(sols);
    Answer {
        rows: hashes.len(),
        hash: hashes.iter().fold(0u64, |a, h| a.wrapping_add(*h)),
    }
}

/// Digest of a SQL answer.
pub fn of_result_set(rs: &ResultSet) -> Answer {
    let mut answer = Answer::default();
    for row in &rs.rows {
        let cells: Vec<String> = row.iter().map(ToString::to_string).collect();
        answer.push_row(cells.iter().map(String::as_str));
    }
    answer
}

/// Digest of a fire map: one row per feature, `(layer, label, WKT type)`.
pub fn of_fire_map(map: &FireMap) -> Answer {
    let mut answer = Answer::default();
    for layer in &map.layers {
        for (geometry, label) in &layer.features {
            answer
                .push_row([layer.name.as_str(), label.as_str(), geometry.type_name()].into_iter());
        }
    }
    answer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_ignores_row_order_but_not_content() {
        let mut a = Answer::default();
        a.push_row(["x", "1"].into_iter());
        a.push_row(["y", "2"].into_iter());
        let mut b = Answer::default();
        b.push_row(["y", "2"].into_iter());
        b.push_row(["x", "1"].into_iter());
        assert_eq!(a, b);
        let mut dropped = Answer::default();
        dropped.push_row(["x", "1"].into_iter());
        assert_ne!(a, dropped);
        let mut shifted = Answer::default();
        shifted.push_row(["x1", ""].into_iter());
        shifted.push_row(["y", "2"].into_iter());
        assert_ne!(a, shifted);
    }

    #[test]
    fn fold_is_order_sensitive() {
        let mut a = Fold::default();
        a.num(1).num(2);
        let mut b = Fold::default();
        b.num(2).num(1);
        assert_ne!(a, b);
    }
}
