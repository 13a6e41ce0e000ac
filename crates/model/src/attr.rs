//! Attribute definitions: names, kinds and finite domains.
//!
//! Every attribute exposed by a conjunctive web form has a *finite* domain of
//! selectable values (a `<select>` box, radio buttons, or a bucketized range
//! field). Internally a domain value is a dense index ([`DomIx`]) into the
//! attribute's label table, which keeps tuples compact and comparisons cheap.

use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// Dense index of a value within an attribute's domain.
///
/// `u16` bounds domains at 65 535 values, far beyond anything a real web form
/// exposes (the largest domain in the Google Base Vehicles scenario is the
/// model list with a few hundred entries).
pub type DomIx = u16;

/// Identifier of an attribute within a [`Schema`](crate::schema::Schema).
///
/// Attribute ids are dense positions assigned in schema declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct AttrId(pub u16);

impl AttrId {
    /// The id as a `usize`, for indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for AttrId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a{}", self.0)
    }
}

/// A half-open numeric range `[lo, hi)` used to discretize numeric attributes
/// the way web forms expose them ("$5,000–$10,000").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Bucket {
    /// Inclusive lower bound.
    pub lo: f64,
    /// Exclusive upper bound (`f64::INFINITY` for the last open-ended bucket).
    pub hi: f64,
    /// Human-readable label rendered in the form ("$5,000–$10,000").
    pub label: String,
}

impl Bucket {
    /// Create a bucket covering `[lo, hi)` with the given display label.
    pub fn new(lo: f64, hi: f64, label: impl Into<String>) -> Self {
        Bucket {
            lo,
            hi,
            label: label.into(),
        }
    }

    /// Whether `x` falls inside this bucket.
    #[inline]
    pub fn contains(&self, x: f64) -> bool {
        x >= self.lo && x < self.hi
    }
}

/// The kind of an attribute, which determines its domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum AttrKind {
    /// Two-valued attribute; domain is `{false, true}` rendered as
    /// `["no", "yes"]` unless custom labels are supplied.
    Boolean,
    /// Categorical attribute with an explicit list of value labels.
    Categorical {
        /// Display labels, one per domain index.
        labels: Vec<String>,
    },
    /// Numeric attribute discretized into ordered, non-overlapping buckets.
    ///
    /// Only the *bucket* is queryable through the form; the raw numeric value
    /// travels with tuples as a measure.
    Numeric {
        /// Ordered buckets covering the attribute's range.
        buckets: Vec<Bucket>,
    },
}

/// A single form attribute: a name plus its finite domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Attribute {
    name: String,
    kind: AttrKind,
}

impl Attribute {
    /// Construct a Boolean attribute.
    pub fn boolean(name: impl Into<String>) -> Self {
        Attribute {
            name: name.into(),
            kind: AttrKind::Boolean,
        }
    }

    /// Construct a categorical attribute from its value labels.
    ///
    /// # Errors
    /// Returns [`ModelError::EmptyDomain`] for an empty label list and
    /// [`ModelError::DomainTooLarge`] when more than `u16::MAX` labels are
    /// supplied, and [`ModelError::DuplicateLabel`] on repeated labels.
    pub fn categorical<S: Into<String>>(
        name: impl Into<String>,
        labels: impl IntoIterator<Item = S>,
    ) -> Result<Self, ModelError> {
        let name = name.into();
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        if labels.is_empty() {
            return Err(ModelError::EmptyDomain { attr: name });
        }
        if labels.len() > DomIx::MAX as usize {
            return Err(ModelError::DomainTooLarge {
                attr: name,
                size: labels.len(),
            });
        }
        let mut seen = std::collections::HashSet::with_capacity(labels.len());
        for l in &labels {
            if !seen.insert(l.as_str()) {
                return Err(ModelError::DuplicateLabel {
                    attr: name,
                    label: l.clone(),
                });
            }
        }
        Ok(Attribute {
            name,
            kind: AttrKind::Categorical { labels },
        })
    }

    /// Construct a discretized numeric attribute from ordered buckets.
    ///
    /// # Errors
    /// Returns [`ModelError::EmptyDomain`] for an empty bucket list and
    /// [`ModelError::UnorderedBuckets`] when buckets are not strictly
    /// increasing and contiguous-or-disjoint.
    pub fn numeric(name: impl Into<String>, buckets: Vec<Bucket>) -> Result<Self, ModelError> {
        let name = name.into();
        if buckets.is_empty() {
            return Err(ModelError::EmptyDomain { attr: name });
        }
        if buckets.len() > DomIx::MAX as usize {
            return Err(ModelError::DomainTooLarge {
                attr: name,
                size: buckets.len(),
            });
        }
        for w in buckets.windows(2) {
            if w[0].hi > w[1].lo || w[0].lo >= w[0].hi {
                return Err(ModelError::UnorderedBuckets { attr: name });
            }
        }
        if let Some(last) = buckets.last() {
            if last.lo >= last.hi {
                return Err(ModelError::UnorderedBuckets { attr: name });
            }
        }
        Ok(Attribute {
            name,
            kind: AttrKind::Numeric { buckets },
        })
    }

    /// Construct an evenly bucketized numeric attribute over `[lo, hi)`.
    ///
    /// Labels are generated as `"{lo}–{hi}"` with no unit formatting; callers
    /// that want pretty labels should build buckets explicitly.
    pub fn numeric_even(
        name: impl Into<String>,
        lo: f64,
        hi: f64,
        n_buckets: usize,
    ) -> Result<Self, ModelError> {
        let name = name.into();
        // `partial_cmp` keeps the NaN-rejecting behavior of `!(hi > lo)`
        // without the negated-comparison lint.
        if n_buckets == 0 || hi.partial_cmp(&lo) != Some(std::cmp::Ordering::Greater) {
            return Err(ModelError::EmptyDomain { attr: name });
        }
        let width = (hi - lo) / n_buckets as f64;
        let buckets = (0..n_buckets)
            .map(|i| {
                let b_lo = lo + width * i as f64;
                let b_hi = if i + 1 == n_buckets {
                    hi
                } else {
                    lo + width * (i + 1) as f64
                };
                Bucket::new(b_lo, b_hi, format!("{b_lo:.0}–{b_hi:.0}"))
            })
            .collect();
        Attribute::numeric(name, buckets)
    }

    /// The attribute's name as shown on the form.
    #[inline]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The attribute's kind.
    #[inline]
    pub fn kind(&self) -> &AttrKind {
        &self.kind
    }

    /// Number of values in the domain (the branching factor of this
    /// attribute's level in the query tree, §2 of the paper).
    #[inline]
    pub fn domain_size(&self) -> usize {
        match &self.kind {
            AttrKind::Boolean => 2,
            AttrKind::Categorical { labels } => labels.len(),
            AttrKind::Numeric { buckets } => buckets.len(),
        }
    }

    /// Display label for domain index `v`.
    ///
    /// # Panics
    /// Panics if `v` is out of range for this domain; use
    /// [`Attribute::check`] to validate untrusted indices first.
    pub fn label(&self, v: DomIx) -> std::borrow::Cow<'_, str> {
        use std::borrow::Cow;
        match &self.kind {
            AttrKind::Boolean => match v {
                0 => Cow::Borrowed("no"),
                1 => Cow::Borrowed("yes"),
                _ => panic!("boolean domain index {v} out of range"),
            },
            AttrKind::Categorical { labels } => Cow::Borrowed(&labels[v as usize]),
            AttrKind::Numeric { buckets } => Cow::Borrowed(&buckets[v as usize].label),
        }
    }

    /// Resolve a display label back to its domain index (the inverse of
    /// [`Attribute::label`]); a linear scan of
    /// [`accepted_labels`](Attribute::accepted_labels).
    pub fn parse_label(&self, s: &str) -> Option<DomIx> {
        self.accepted_labels()
            .find(|&(l, _)| l == s)
            .map(|(_, v)| v)
    }

    /// Every string [`parse_label`](Attribute::parse_label) resolves, with
    /// its domain index, in resolution order: a label listed twice resolves
    /// to its first index. Boolean attributes also accept `false`/`0` and
    /// `true`/`1`. Scrapers build their label maps from this list.
    pub fn accepted_labels(&self) -> Box<dyn Iterator<Item = (&str, DomIx)> + '_> {
        match &self.kind {
            AttrKind::Boolean => Box::new(
                [
                    ("no", 0),
                    ("false", 0),
                    ("0", 0),
                    ("yes", 1),
                    ("true", 1),
                    ("1", 1),
                ]
                .into_iter(),
            ),
            AttrKind::Categorical { labels } => Box::new(
                labels
                    .iter()
                    .enumerate()
                    .map(|(i, l)| (l.as_str(), i as DomIx)),
            ),
            AttrKind::Numeric { buckets } => Box::new(
                buckets
                    .iter()
                    .enumerate()
                    .map(|(i, b)| (b.label.as_str(), i as DomIx)),
            ),
        }
    }

    /// For numeric attributes, the bucket containing `x`, if any.
    pub fn bucket_of(&self, x: f64) -> Option<DomIx> {
        match &self.kind {
            AttrKind::Numeric { buckets } => buckets
                .iter()
                .position(|b| b.contains(x))
                .map(|i| i as DomIx),
            _ => None,
        }
    }

    /// Validate that `v` is a legal domain index for this attribute.
    pub fn check(&self, v: DomIx) -> Result<(), ModelError> {
        if (v as usize) < self.domain_size() {
            Ok(())
        } else {
            Err(ModelError::ValueOutOfRange {
                attr: self.name.clone(),
                value: v,
                domain_size: self.domain_size(),
            })
        }
    }

    /// Iterator over all domain indices of this attribute.
    pub fn domain(&self) -> impl Iterator<Item = DomIx> + '_ {
        (0..self.domain_size() as DomIx).map(|v| v as DomIx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boolean_domain() {
        let a = Attribute::boolean("used");
        assert_eq!(a.domain_size(), 2);
        assert_eq!(a.label(0), "no");
        assert_eq!(a.label(1), "yes");
        assert_eq!(a.parse_label("yes"), Some(1));
        assert_eq!(a.parse_label("true"), Some(1));
        assert_eq!(a.parse_label("maybe"), None);
        assert!(a.check(1).is_ok());
        assert!(a.check(2).is_err());
    }

    #[test]
    fn categorical_roundtrip() {
        let a = Attribute::categorical("make", ["Toyota", "Honda", "Ford"]).unwrap();
        assert_eq!(a.domain_size(), 3);
        for v in a.domain() {
            assert_eq!(a.parse_label(&a.label(v)), Some(v));
        }
    }

    #[test]
    fn categorical_rejects_empty_and_duplicates() {
        assert!(matches!(
            Attribute::categorical("x", Vec::<String>::new()),
            Err(ModelError::EmptyDomain { .. })
        ));
        assert!(matches!(
            Attribute::categorical("x", ["a", "b", "a"]),
            Err(ModelError::DuplicateLabel { .. })
        ));
    }

    #[test]
    fn numeric_buckets() {
        let a = Attribute::numeric(
            "price",
            vec![
                Bucket::new(0.0, 5_000.0, "under $5k"),
                Bucket::new(5_000.0, 15_000.0, "$5k–$15k"),
                Bucket::new(15_000.0, f64::INFINITY, "over $15k"),
            ],
        )
        .unwrap();
        assert_eq!(a.domain_size(), 3);
        assert_eq!(a.bucket_of(4_999.99), Some(0));
        assert_eq!(a.bucket_of(5_000.0), Some(1));
        assert_eq!(a.bucket_of(1e9), Some(2));
        assert_eq!(a.parse_label("$5k–$15k"), Some(1));
    }

    #[test]
    fn numeric_rejects_unordered() {
        let bad = vec![Bucket::new(0.0, 10.0, "a"), Bucket::new(5.0, 20.0, "b")];
        assert!(matches!(
            Attribute::numeric("x", bad),
            Err(ModelError::UnorderedBuckets { .. })
        ));
        let degenerate = vec![Bucket::new(10.0, 10.0, "a")];
        assert!(Attribute::numeric("x", degenerate).is_err());
    }

    #[test]
    fn numeric_even_covers_range() {
        let a = Attribute::numeric_even("year", 1995.0, 2011.0, 16).unwrap();
        assert_eq!(a.domain_size(), 16);
        assert_eq!(a.bucket_of(1995.0), Some(0));
        assert_eq!(a.bucket_of(2010.5), Some(15));
        assert_eq!(a.bucket_of(2011.0), None, "upper bound is exclusive");
    }

    #[test]
    fn bucket_of_non_numeric_is_none() {
        assert_eq!(Attribute::boolean("b").bucket_of(0.5), None);
    }
}
