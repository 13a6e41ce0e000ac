//! The named dataset registry.
//!
//! Every surface that accepts a dataset name — `local:` site locators, on
//! every CLI command and under `serve` — resolves it here, so
//! the set of valid names lives in exactly one table and an unknown name
//! fails *early* with the full list (plus a nearest-match hint) instead of
//! deep inside dispatch.

use crate::spec::DataSpec;
use crate::vehicles::VehiclesSpec;

/// One named dataset: a recipe turning `(n, seed)` into a [`DataSpec`].
#[derive(Debug, Clone, Copy)]
pub struct DatasetDef {
    /// The registry name (what `local:<name>` accepts).
    pub name: &'static str,
    /// One-line description for listings and error messages.
    pub summary: &'static str,
    build: fn(n: usize, seed: u64) -> DataSpec,
}

impl DatasetDef {
    /// Instantiate the dataset's [`DataSpec`] at `n` tuples under `seed`.
    pub fn data_spec(&self, n: usize, seed: u64) -> DataSpec {
        (self.build)(n, seed)
    }
}

/// The registry table. Order is the order listings print in.
pub fn registry() -> &'static [DatasetDef] {
    const DEFS: &[DatasetDef] = &[
        DatasetDef {
            name: "vehicles-compact",
            summary: "6-attribute vehicle inventory (small domain product)",
            build: |n, seed| DataSpec::Vehicles(VehiclesSpec::compact(n, seed)),
        },
        DatasetDef {
            name: "vehicles-full",
            summary: "12-attribute Google-Base-like vehicle inventory",
            build: |n, seed| DataSpec::Vehicles(VehiclesSpec::full(n, seed)),
        },
        DatasetDef {
            name: "boolean",
            summary: "iid Boolean bits, m = 14, p = 0.5",
            build: |n, _| DataSpec::BooleanIid { m: 14, n, p: 0.5 },
        },
        DatasetDef {
            name: "boolean-correlated",
            summary: "cluster-correlated Boolean bits, m = 14, 4 clusters",
            build: |n, _| DataSpec::BooleanCorrelated {
                m: 14,
                n,
                clusters: 4,
                noise: 0.05,
            },
        },
    ];
    DEFS
}

/// All valid dataset names, in listing order.
pub fn dataset_names() -> Vec<&'static str> {
    registry().iter().map(|d| d.name).collect()
}

/// Resolve `name` to its definition.
///
/// # Errors
/// An unknown name fails with the full list of valid names and, when some
/// registered name is plausibly what the user meant (edit distance ≤ 3),
/// a `did you mean` hint.
pub fn resolve(name: &str) -> Result<&'static DatasetDef, String> {
    if let Some(def) = registry().iter().find(|d| d.name == name) {
        return Ok(def);
    }
    let valid = dataset_names().join(", ");
    let hint = registry()
        .iter()
        .map(|d| (edit_distance(name, d.name), d.name))
        .min()
        .filter(|(dist, _)| *dist <= 3)
        .map(|(_, near)| format!(" — did you mean `{near}`?"))
        .unwrap_or_default();
    Err(format!("unknown dataset `{name}` (valid: {valid}){hint}"))
}

/// Levenshtein distance, case-insensitive (two rolling rows).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.to_ascii_lowercase().chars().collect();
    let b: Vec<char> = b.to_ascii_lowercase().chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, &ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let subst = prev[j] + usize::from(ca != cb);
            cur[j + 1] = subst.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{DbConfig, WorkloadSpec};

    #[test]
    fn every_registered_dataset_builds() {
        for def in registry() {
            let db = WorkloadSpec {
                data: def.data_spec(200, 7),
                db: DbConfig::no_counts().with_k(50),
                seed: 7,
            }
            .build();
            assert_eq!(db.n_tuples(), 200, "{} must honor n", def.name);
        }
    }

    #[test]
    fn resolve_finds_exact_names() {
        assert_eq!(
            resolve("vehicles-compact").unwrap().name,
            "vehicles-compact"
        );
        assert_eq!(resolve("boolean").unwrap().name, "boolean");
    }

    #[test]
    fn unknown_names_list_valid_ones_with_a_hint() {
        let err = resolve("vehicles-compat").unwrap_err();
        assert!(err.contains("unknown dataset `vehicles-compat`"), "{err}");
        for def in registry() {
            assert!(err.contains(def.name), "{err} must list {}", def.name);
        }
        assert!(err.contains("did you mean `vehicles-compact`?"), "{err}");

        // Nothing nearby: no misleading hint, just the list.
        let err = resolve("zzzzzzzzzzzz").unwrap_err();
        assert!(!err.contains("did you mean"), "{err}");
        assert!(err.contains("valid:"), "{err}");
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("boolean", "boolean"), 0);
        assert_eq!(edit_distance("bolean", "boolean"), 1);
        assert_eq!(edit_distance("Boolean", "boolean"), 0, "case-insensitive");
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
    }
}
