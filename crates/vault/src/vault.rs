//! The Data Vault proper: policy, materialization, cache, quarantine,
//! statistics.

use crate::catalog::{extract_metadata, VaultCatalog};
use crate::format::{decode_gtf1, decode_sev1, decode_shp1, FormatKind, Shp1Record};
use crate::repository::Repository;
use crate::{Result, VaultError};
use std::collections::BTreeSet;
use teleios_monet::array::{Dim, NdArray};
use teleios_monet::Catalog;

/// When payloads are converted into database arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestionPolicy {
    /// Convert every file at registration time (the traditional load).
    Eager,
    /// Convert on first access (the Data Vault's just-in-time load).
    Lazy,
}

/// Access statistics (experiment E5 reads these).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct VaultStats {
    /// Header-only metadata extractions.
    pub registrations: usize,
    /// Full payload conversions performed.
    pub materializations: usize,
    /// Array requests served from the cache / database.
    pub cache_hits: usize,
    /// Array requests that had to materialize.
    pub cache_misses: usize,
    /// Cached arrays evicted to respect the cache capacity.
    pub evictions: usize,
    /// Files currently sitting in the quarantine list.
    pub quarantined: usize,
    /// Header/payload decodes that failed (corruption, truncation,
    /// malformed bytes) — each one quarantines its file.
    pub decode_failures: usize,
    /// Quarantine retries attempted via [`DataVault::retry_quarantined`].
    pub retries: usize,
}

/// The Data Vault: external repository + metadata catalog + array store.
#[derive(Debug)]
pub struct DataVault {
    repository: Repository,
    catalog: VaultCatalog,
    db: Catalog,
    policy: IngestionPolicy,
    /// LRU order of materialized array names (front = oldest).
    lru: Vec<String>,
    cache_capacity: usize,
    stats: VaultStats,
    /// Files whose decode failed; accesses are refused until a retry
    /// clears them, so one corrupt scene can't repeatedly stall a batch.
    quarantine: BTreeSet<String>,
}

impl DataVault {
    /// New vault over a repository and database catalog.
    ///
    /// `cache_capacity` bounds how many materialized raster arrays stay
    /// resident in the database at once (0 = unbounded).
    pub fn new(
        repository: Repository,
        db: Catalog,
        policy: IngestionPolicy,
        cache_capacity: usize,
    ) -> DataVault {
        DataVault {
            repository,
            catalog: VaultCatalog::new(),
            db,
            policy,
            lru: Vec::new(),
            cache_capacity,
            stats: VaultStats::default(),
            quarantine: BTreeSet::new(),
        }
    }

    /// The metadata catalog.
    pub fn catalog(&self) -> &VaultCatalog {
        &self.catalog
    }

    /// Persist the metadata catalog and quarantine list to a storage
    /// backend as one transaction; returns the commit sequence number.
    /// What survives a restart is the repository files plus this
    /// state: payloads re-materialize on demand, and known-bad files
    /// stay fenced off instead of re-stalling the first post-restart
    /// batch.
    pub fn persist_to(
        &self,
        backend: &mut dyn teleios_store::StorageBackend,
    ) -> std::result::Result<u64, teleios_store::StoreError> {
        teleios_store::transact(backend, |b| {
            crate::persist::persist_vault_state(&self.catalog, &self.quarantine, b)
        })
    }

    /// Restore the catalog and quarantine list persisted by
    /// [`Self::persist_to`], replacing the current ones. Returns
    /// `false` (and changes nothing) if the backend holds no vault
    /// state. Records referring to files missing from the repository
    /// are kept (accessing them errors), matching a vault pointed at a
    /// partially restored archive.
    pub fn restore_from(
        &mut self,
        backend: &dyn teleios_store::StorageBackend,
    ) -> std::result::Result<bool, teleios_store::StoreError> {
        match crate::persist::load_vault_state(backend)? {
            Some((catalog, quarantine)) => {
                self.catalog = catalog;
                self.quarantine = quarantine;
                self.stats.quarantined = self.quarantine.len();
                Ok(true)
            }
            None => Ok(false),
        }
    }

    /// The repository.
    pub fn repository(&self) -> &Repository {
        &self.repository
    }

    /// Mutable repository access (new files need [`Self::register`]).
    pub fn repository_mut(&mut self) -> &mut Repository {
        &mut self.repository
    }

    /// Current statistics.
    pub fn stats(&self) -> VaultStats {
        self.stats
    }

    /// Register one repository file: header parse into the catalog, plus
    /// immediate materialization under the eager policy. A failed header
    /// parse or eager decode quarantines the file and returns the error
    /// (never panics).
    pub fn register(&mut self, name: &str) -> Result<()> {
        let bytes = self
            .repository
            .get(name)
            .ok_or_else(|| VaultError::UnknownFile(name.to_string()))?;
        let record = match extract_metadata(name, bytes) {
            Ok(r) => r,
            Err(e) => {
                self.note_decode_failure(name);
                return Err(e);
            }
        };
        self.catalog.register(record);
        self.stats.registrations += 1;
        if self.policy == IngestionPolicy::Eager {
            self.materialize(name)?;
        }
        Ok(())
    }

    /// Register every file currently in the repository. Files that fail
    /// to decode are quarantined and skipped rather than aborting the
    /// sweep; the count of cleanly registered files is returned.
    pub fn register_all(&mut self) -> Result<usize> {
        let names: Vec<String> = self.repository.names().map(str::to_string).collect();
        let mut clean = 0;
        for name in &names {
            match self.register(name) {
                Ok(()) => clean += 1,
                Err(
                    VaultError::Malformed(_)
                    | VaultError::Corrupt(_)
                    | VaultError::UnknownFormat(_)
                    | VaultError::Quarantined(_),
                ) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(clean)
    }

    /// Database array name for a repository file.
    pub fn array_name(file: &str) -> String {
        format!("vault::{file}")
    }

    /// Fetch the raster array for a file, materializing it if needed.
    /// Errors for `.shp1` files (decode those with
    /// [`crate::format::decode_shp1`]) and for
    /// quarantined files (use [`Self::retry_quarantined`]).
    pub fn array_for(&mut self, name: &str) -> Result<NdArray> {
        if self.quarantine.contains(name) {
            return Err(VaultError::Quarantined(name.to_string()));
        }
        let record = self
            .catalog
            .get(name)
            .ok_or_else(|| VaultError::UnknownFile(name.to_string()))?
            .clone();
        if record.format == "shp1" {
            return Err(VaultError::Malformed(format!(
                "{name} is a geometry set, not a raster"
            )));
        }
        let array_name = Self::array_name(name);
        if self.db.has_array(&array_name) {
            self.stats.cache_hits += 1;
            self.touch(&array_name);
            return self
                .db
                .array(&array_name)
                .map_err(|e| VaultError::Database(e.to_string()));
        }
        self.stats.cache_misses += 1;
        self.materialize(name)?;
        self.db
            .array(&array_name)
            .map_err(|e| VaultError::Database(e.to_string()))
    }

    /// Fetch geometry records for a `.shp1` file (always decoded fresh —
    /// geometry sets are small next to rasters). Decode failures
    /// quarantine the file.
    pub(crate) fn records_for(&mut self, name: &str) -> Result<Vec<Shp1Record>> {
        if self.quarantine.contains(name) {
            return Err(VaultError::Quarantined(name.to_string()));
        }
        let bytes = self
            .repository
            .get(name)
            .ok_or_else(|| VaultError::UnknownFile(name.to_string()))?;
        match decode_shp1(bytes) {
            Ok(records) => Ok(records),
            Err(e) => {
                self.note_decode_failure(name);
                Err(e)
            }
        }
    }

    /// Names currently in the quarantine list (sorted).
    pub fn quarantined(&self) -> Vec<String> {
        self.quarantine.iter().cloned().collect()
    }

    /// Whether a file is quarantined.
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.quarantine.contains(name)
    }

    /// Lift a file out of quarantine and re-attempt its decode (e.g.
    /// after the archive operator restored the bytes). Counts towards
    /// `stats.retries`; a failing decode re-quarantines the file.
    pub fn retry_quarantined(&mut self, name: &str) -> Result<()> {
        if self.quarantine.remove(name) {
            self.stats.quarantined = self.quarantine.len();
            self.stats.retries += 1;
        }
        if self.catalog.get(name).is_none() {
            self.register(name)?;
            if self.policy == IngestionPolicy::Eager {
                // register already materialized.
                return Ok(());
            }
        }
        let format = self.catalog.get(name).map(|r| r.format.clone());
        match format.as_deref() {
            Some("shp1") => self.records_for(name).map(|_| ()),
            _ => self.materialize(name),
        }
    }

    /// Record a failed decode: quarantine the file and bump the stats.
    fn note_decode_failure(&mut self, name: &str) {
        self.stats.decode_failures += 1;
        self.quarantine.insert(name.to_string());
        self.stats.quarantined = self.quarantine.len();
    }

    /// Decode one file's payload. Raster formats yield the array to
    /// store; geometry sets are validated and yield `None`.
    fn decode_payload(name: &str, bytes: &[u8]) -> Result<Option<NdArray>> {
        match FormatKind::from_name(name)? {
            FormatKind::Sev1 => {
                let (h, payload) = decode_sev1(bytes)?;
                NdArray::from_vec(
                    vec![
                        Dim::new("band", h.bands as usize),
                        Dim::new("y", h.rows as usize),
                        Dim::new("x", h.cols as usize),
                    ],
                    payload,
                )
                .map(Some)
                .map_err(|e| VaultError::Database(e.to_string()))
            }
            FormatKind::Gtf1 => {
                let (h, payload) = decode_gtf1(bytes)?;
                NdArray::from_vec(
                    vec![Dim::new("y", h.rows as usize), Dim::new("x", h.cols as usize)],
                    payload,
                )
                .map(Some)
                .map_err(|e| VaultError::Database(e.to_string()))
            }
            FormatKind::Shp1 => decode_shp1(bytes).map(|_| None),
        }
    }

    /// Convert one file's payload into a database array. Decode failures
    /// quarantine the file instead of propagating garbage.
    fn materialize(&mut self, name: &str) -> Result<()> {
        let bytes = self
            .repository
            .get(name)
            .ok_or_else(|| VaultError::UnknownFile(name.to_string()))?;
        let array = match Self::decode_payload(name, bytes) {
            Ok(Some(array)) => array,
            Ok(None) => return Ok(()), // validated geometry set
            Err(e) => {
                if matches!(
                    e,
                    VaultError::Malformed(_) | VaultError::Corrupt(_) | VaultError::UnknownFormat(_)
                ) {
                    self.note_decode_failure(name);
                }
                return Err(e);
            }
        };
        let array_name = Self::array_name(name);
        self.db.put_array(&array_name, array);
        self.stats.materializations += 1;
        self.touch(&array_name);
        self.evict_if_needed();
        Ok(())
    }

    fn touch(&mut self, array_name: &str) {
        if let Some(pos) = self.lru.iter().position(|n| n == array_name) {
            self.lru.remove(pos);
        }
        self.lru.push(array_name.to_string());
    }

    fn evict_if_needed(&mut self) {
        if self.cache_capacity == 0 || self.lru.len() <= self.cache_capacity {
            return;
        }
        // Arrays dropped through the shared catalog are not resident:
        // forget them before counting, or a ghost evicts a live array.
        let db = &self.db;
        self.lru.retain(|name| db.has_array(name));
        while self.lru.len() > self.cache_capacity {
            let victim = self.lru.remove(0);
            if self.db.drop_array(&victim).is_ok() {
                self.stats.evictions += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{encode_sev1, encode_shp1, Sev1Header};

    fn scene_bytes(rows: u32, cols: u32, bbox: (f64, f64, f64, f64), fill: f64) -> Vec<u8> {
        let h = Sev1Header {
            rows,
            cols,
            bands: 1,
            acquisition: "2007-08-25T12:00:00Z".into(),
            bbox,
        };
        encode_sev1(&h, &vec![fill; (rows * cols) as usize]).unwrap()
    }

    fn vault_with(n: usize, policy: IngestionPolicy, cache: usize) -> DataVault {
        let mut repo = Repository::new();
        for i in 0..n {
            let x = i as f64;
            repo.put(
                format!("scene-{i:03}.sev1"),
                scene_bytes(4, 4, (x, 0.0, x + 1.0, 1.0), i as f64),
            );
        }
        let mut v = DataVault::new(repo, Catalog::new(), policy, cache);
        v.register_all().unwrap();
        v
    }

    /// How many of the first `n` scenes have an array in the database.
    fn resident(v: &DataVault, n: usize) -> usize {
        let name = |i: usize| DataVault::array_name(&format!("scene-{i:03}.sev1"));
        (0..n).filter(|&i| v.db.has_array(&name(i))).count()
    }

    #[test]
    fn lazy_defers_materialization() {
        let mut v = vault_with(10, IngestionPolicy::Lazy, 0);
        assert_eq!(v.stats().registrations, 10);
        assert_eq!(v.stats().materializations, 0);
        let a = v.array_for("scene-003.sev1").unwrap();
        assert_eq!(a.shape(), vec![1, 4, 4]);
        assert_eq!(a.data()[0], 3.0);
        assert_eq!(v.stats().materializations, 1);
        assert_eq!(v.stats().cache_misses, 1);
    }

    #[test]
    fn eager_materializes_everything() {
        let v = vault_with(10, IngestionPolicy::Eager, 0);
        assert_eq!(v.stats().materializations, 10);
        assert_eq!(resident(&v, 10), 10);
    }

    #[test]
    fn second_access_hits_cache() {
        let mut v = vault_with(5, IngestionPolicy::Lazy, 0);
        v.array_for("scene-001.sev1").unwrap();
        v.array_for("scene-001.sev1").unwrap();
        assert_eq!(v.stats().materializations, 1);
        assert_eq!(v.stats().cache_hits, 1);
    }

    #[test]
    fn cache_evicts_lru() {
        let mut v = vault_with(5, IngestionPolicy::Lazy, 2);
        v.array_for("scene-000.sev1").unwrap();
        v.array_for("scene-001.sev1").unwrap();
        v.array_for("scene-002.sev1").unwrap(); // evicts 000
        assert_eq!(resident(&v, 5), 2);
        assert_eq!(v.stats().evictions, 1);
        // Re-access of the evicted scene re-materializes.
        v.array_for("scene-000.sev1").unwrap();
        assert_eq!(v.stats().materializations, 4);
    }

    #[test]
    fn arrays_dropped_through_the_shared_catalog_leave_no_ghost() {
        let mut v = vault_with(4, IngestionPolicy::Lazy, 2);
        v.array_for("scene-000.sev1").unwrap();
        v.array_for("scene-001.sev1").unwrap();
        // A client of the same database drops a cached array.
        v.db.drop_array(&DataVault::array_name("scene-000.sev1")).unwrap();
        assert_eq!(resident(&v, 4), 1);
        // Two live arrays fit a cache of two: nothing is evicted for the ghost.
        v.array_for("scene-002.sev1").unwrap();
        assert_eq!(v.stats().evictions, 0);
        assert_eq!(resident(&v, 4), 2);
        assert!(v.db.has_array(&DataVault::array_name("scene-001.sev1")));
        // The next one does evict, and it evicts the oldest live array.
        v.array_for("scene-003.sev1").unwrap();
        assert_eq!(v.stats().evictions, 1);
        assert!(!v.db.has_array(&DataVault::array_name("scene-001.sev1")));
        assert!(v.db.has_array(&DataVault::array_name("scene-002.sev1")));
    }

    #[test]
    fn a_mutated_hit_never_changes_the_cached_array() {
        let mut v = vault_with(2, IngestionPolicy::Lazy, 0);
        let mut mine = v.array_for("scene-001.sev1").unwrap();
        mine.data_mut().iter_mut().for_each(|c| *c = -7.0);
        mine.set(&[0, 0, 0], -8.0).unwrap();
        let again = v.array_for("scene-001.sev1").unwrap();
        assert!(again.data().iter().all(|&c| c == 1.0));
        assert_eq!(v.db.array(&DataVault::array_name("scene-001.sev1")).unwrap(), again);
    }

    #[test]
    fn lru_touch_on_hit() {
        let mut v = vault_with(3, IngestionPolicy::Lazy, 2);
        v.array_for("scene-000.sev1").unwrap();
        v.array_for("scene-001.sev1").unwrap();
        v.array_for("scene-000.sev1").unwrap(); // refresh 000
        v.array_for("scene-002.sev1").unwrap(); // evicts 001, not 000
        assert!(v.db.has_array(&DataVault::array_name("scene-000.sev1")));
        assert!(!v.db.has_array(&DataVault::array_name("scene-001.sev1")));
    }

    #[test]
    fn shp1_records_roundtrip() {
        let mut repo = Repository::new();
        repo.put(
            "hotspots.shp1",
            encode_shp1(&[Shp1Record { wkt: "POINT (1 2)".into(), label: "fire".into() }]),
        );
        let mut v = DataVault::new(repo, Catalog::new(), IngestionPolicy::Lazy, 0);
        v.register_all().unwrap();
        let recs = v.records_for("hotspots.shp1").unwrap();
        assert_eq!(recs.len(), 1);
        assert!(v.array_for("hotspots.shp1").is_err());
    }

    #[test]
    fn unknown_file_errors() {
        let mut v = vault_with(1, IngestionPolicy::Lazy, 0);
        assert!(matches!(v.array_for("nope.sev1"), Err(VaultError::UnknownFile(_))));
        assert!(matches!(v.register("nope.sev1"), Err(VaultError::UnknownFile(_))));
    }

    #[test]
    fn unregistered_file_not_found_by_array_for() {
        let mut repo = Repository::new();
        repo.put("late.sev1", scene_bytes(2, 2, (0.0, 0.0, 1.0, 1.0), 1.0));
        let mut v = DataVault::new(repo, Catalog::new(), IngestionPolicy::Lazy, 0);
        assert!(v.array_for("late.sev1").is_err());
        v.register("late.sev1").unwrap();
        assert!(v.array_for("late.sev1").is_ok());
    }

    fn mem_backend() -> teleios_store::DurableBackend<teleios_store::MemMedium> {
        let config = teleios_store::DurableConfig::default();
        teleios_store::DurableBackend::open(teleios_store::MemMedium::new(), config).unwrap()
    }

    #[test]
    fn catalog_survives_persist_restore() {
        let v = vault_with(5, IngestionPolicy::Lazy, 0);
        let mut backend = mem_backend();
        v.persist_to(&mut backend).unwrap();
        // A fresh vault over the same repository restores discovery
        // without re-registering.
        let mut v2 = DataVault::new(v.repository().clone(), Catalog::new(), IngestionPolicy::Lazy, 0);
        assert!(!v2.restore_from(&mem_backend()).unwrap());
        assert!(v2.restore_from(&backend).unwrap());
        assert_eq!(v2.catalog().len(), 5);
        assert_eq!(v2.stats().registrations, 0); // no header parses needed
        let a = v2.array_for("scene-002.sev1").unwrap();
        assert_eq!(a.data()[0], 2.0);
    }

    #[test]
    fn quarantine_survives_persist_restore() {
        let mut repo = Repository::new();
        repo.put("good.sev1", scene_bytes(4, 4, (0.0, 0.0, 1.0, 1.0), 1.0));
        repo.put("bad.sev1", corrupt(scene_bytes(4, 4, (1.0, 0.0, 2.0, 1.0), 2.0)));
        let mut v = DataVault::new(repo, Catalog::new(), IngestionPolicy::Lazy, 0);
        v.register_all().unwrap();
        assert!(v.array_for("bad.sev1").is_err());
        assert!(v.is_quarantined("bad.sev1"));

        let mut backend = mem_backend();
        v.persist_to(&mut backend).unwrap();
        let mut v2 =
            DataVault::new(v.repository().clone(), Catalog::new(), IngestionPolicy::Lazy, 0);
        assert!(v2.restore_from(&backend).unwrap());
        assert_eq!(v2.catalog().len(), 2);
        // The restored vault fences the bad file off immediately,
        // without re-decoding it first.
        assert!(v2.is_quarantined("bad.sev1"));
        assert_eq!(v2.stats().quarantined, 1);
        assert!(matches!(v2.array_for("bad.sev1"), Err(VaultError::Quarantined(_))));
        assert_eq!(v2.stats().decode_failures, 0);
        assert!(v2.array_for("good.sev1").is_ok());
    }

    fn corrupt(mut raw: Vec<u8>) -> Vec<u8> {
        let last = raw.len() - 1;
        raw[last] ^= 0x01; // bit-flip in the payload region
        raw
    }

    #[test]
    fn lazy_corrupt_payload_quarantined_not_panicking() {
        let mut repo = Repository::new();
        repo.put("good.sev1", scene_bytes(4, 4, (0.0, 0.0, 1.0, 1.0), 1.0));
        repo.put("bad.sev1", corrupt(scene_bytes(4, 4, (1.0, 0.0, 2.0, 1.0), 2.0)));
        let mut v = DataVault::new(repo, Catalog::new(), IngestionPolicy::Lazy, 0);
        // Registration is header-only, so both files register cleanly.
        assert_eq!(v.register_all().unwrap(), 2);
        // First access detects the corruption and quarantines.
        assert!(matches!(v.array_for("bad.sev1"), Err(VaultError::Corrupt(_))));
        assert!(v.is_quarantined("bad.sev1"));
        assert_eq!(v.stats().decode_failures, 1);
        assert_eq!(v.stats().quarantined, 1);
        // Subsequent accesses short-circuit without re-decoding.
        assert!(matches!(v.array_for("bad.sev1"), Err(VaultError::Quarantined(_))));
        assert_eq!(v.stats().decode_failures, 1);
        // Healthy files are unaffected.
        assert!(v.array_for("good.sev1").is_ok());
    }

    #[test]
    fn eager_corrupt_payload_quarantined_not_panicking() {
        let mut repo = Repository::new();
        repo.put("good.sev1", scene_bytes(4, 4, (0.0, 0.0, 1.0, 1.0), 1.0));
        repo.put("bad.sev1", corrupt(scene_bytes(4, 4, (1.0, 0.0, 2.0, 1.0), 2.0)));
        let mut v = DataVault::new(repo, Catalog::new(), IngestionPolicy::Eager, 0);
        // The sweep survives the corrupt file: one clean registration.
        assert_eq!(v.register_all().unwrap(), 1);
        assert!(v.is_quarantined("bad.sev1"));
        assert_eq!(v.quarantined(), vec!["bad.sev1".to_string()]);
        assert_eq!(v.stats().materializations, 1);
        assert!(matches!(v.array_for("bad.sev1"), Err(VaultError::Quarantined(_))));
    }

    #[test]
    fn truncated_header_quarantined_under_both_policies() {
        for policy in [IngestionPolicy::Lazy, IngestionPolicy::Eager] {
            let mut repo = Repository::new();
            let full = scene_bytes(4, 4, (0.0, 0.0, 1.0, 1.0), 1.0);
            repo.put("cut.sev1", full[..9].to_vec()); // magic + half the checksum
            let mut v = DataVault::new(repo, Catalog::new(), policy, 0);
            assert_eq!(v.register_all().unwrap(), 0);
            assert!(v.is_quarantined("cut.sev1"), "policy {policy:?}");
            assert_eq!(v.stats().decode_failures, 1);
        }
    }

    #[test]
    fn retry_quarantined_after_repair() {
        let good = scene_bytes(4, 4, (0.0, 0.0, 1.0, 1.0), 7.0);
        let mut repo = Repository::new();
        repo.put("flaky.sev1", corrupt(good.clone()));
        let mut v = DataVault::new(repo, Catalog::new(), IngestionPolicy::Lazy, 0);
        v.register_all().unwrap();
        assert!(v.array_for("flaky.sev1").is_err());
        assert!(v.is_quarantined("flaky.sev1"));
        // Retrying without repairing fails and re-quarantines.
        assert!(v.retry_quarantined("flaky.sev1").is_err());
        assert!(v.is_quarantined("flaky.sev1"));
        // Repair the bytes, retry, and the file is healthy again.
        v.repository_mut().put("flaky.sev1", good);
        v.retry_quarantined("flaky.sev1").unwrap();
        assert!(!v.is_quarantined("flaky.sev1"));
        let a = v.array_for("flaky.sev1").unwrap();
        assert_eq!(a.data()[0], 7.0);
        assert_eq!(v.stats().retries, 2);
        assert_eq!(v.stats().quarantined, 0);
    }

    #[test]
    fn corrupt_shp1_records_quarantined() {
        let clean = encode_shp1(&[Shp1Record { wkt: "POINT (1 2)".into(), label: "fire".into() }]);
        let mut repo = Repository::new();
        repo.put("geoms.shp1", corrupt(clean));
        let mut v = DataVault::new(repo, Catalog::new(), IngestionPolicy::Lazy, 0);
        // Header (record count) parses, so registration succeeds...
        assert_eq!(v.register_all().unwrap(), 1);
        // ...but record access detects corruption and quarantines.
        assert!(matches!(v.records_for("geoms.shp1"), Err(VaultError::Corrupt(_))));
        assert!(v.is_quarantined("geoms.shp1"));
        assert!(matches!(v.records_for("geoms.shp1"), Err(VaultError::Quarantined(_))));
    }

    #[test]
    fn eager_vs_lazy_cost_shape() {
        // The E5 claim in miniature: with 10% access, lazy does ~10% of
        // the conversions eager does.
        let mut lazy = vault_with(50, IngestionPolicy::Lazy, 0);
        for i in 0..5 {
            lazy.array_for(&format!("scene-{:03}.sev1", i * 10)).unwrap();
        }
        let eager = vault_with(50, IngestionPolicy::Eager, 0);
        assert_eq!(lazy.stats().materializations, 5);
        assert_eq!(eager.stats().materializations, 50);
    }
}
