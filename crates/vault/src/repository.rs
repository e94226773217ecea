//! The scientific file repository the vault attaches to.
//!
//! In the paper this is the EO data centre's archive filesystem; here it
//! is an in-memory map, which preserves the property that matters for
//! the vault experiments: reading a file's *header* is cheap, converting
//! its *payload* is proportional to its size.

use std::collections::BTreeMap;

/// An in-memory file repository: name → raw bytes.
#[derive(Debug, Clone, Default)]
pub struct Repository {
    files: BTreeMap<String, Vec<u8>>,
}

impl Repository {
    /// Empty repository.
    pub fn new() -> Repository {
        Repository::default()
    }

    /// Store (or replace) a file.
    pub fn put(&mut self, name: impl Into<String>, bytes: Vec<u8>) {
        self.files.insert(name.into(), bytes);
    }

    /// Fetch a file's bytes.
    pub fn get(&self, name: &str) -> Option<&[u8]> {
        self.files.get(name).map(Vec::as_slice)
    }

    /// Remove a file.
    pub fn remove(&mut self, name: &str) -> Option<Vec<u8>> {
        self.files.remove(name)
    }

    /// Number of files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// True when the repository holds no files.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// File names in sorted order.
    pub(crate) fn names(&self) -> impl Iterator<Item = &str> {
        self.files.keys().map(String::as_str)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_remove() {
        let mut r = Repository::new();
        r.put("a.sev1", b"123".to_vec());
        r.put("b.sev1", b"4567".to_vec());
        assert_eq!(r.len(), 2);
        assert_eq!(r.get("a.sev1").unwrap(), b"123");
        assert_eq!(r.names().collect::<Vec<_>>(), vec!["a.sev1", "b.sev1"]);
        assert!(r.remove("a.sev1").is_some());
        assert!(r.get("a.sev1").is_none());
        assert!(r.remove("a.sev1").is_none());
    }

    #[test]
    fn replace_overwrites() {
        let mut r = Repository::new();
        r.put("a", b"1".to_vec());
        r.put("a", b"22".to_vec());
        assert_eq!(r.len(), 1);
        assert_eq!(r.get("a").unwrap(), b"22");
    }
}
