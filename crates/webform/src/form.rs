//! The web form a site derives from its schema — the machine-readable
//! counterpart of the demo's Figure 3 attribute-settings page — and the
//! [`PageCodec`] both sides of the wire share: request paths, results
//! pages and their scraping, all from tables built once per schema.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use hdsampler_model::{AttrKind, ConjunctiveQuery, DomIx, ModelError, Schema};

use crate::render::{escape_html, MEASURE_CELL_MIN, ROW_FIXED_MIN};
use crate::urlenc;

/// A conjunctive web form: one select field per attribute, each with an
/// "any" default plus the attribute's domain values.
#[derive(Debug, Clone)]
pub struct WebForm {
    schema: Arc<Schema>,
    action: String,
    codec: PageCodec,
}

/// The codec of one schema's request paths and results pages, built once
/// per [`WebForm`]: every attribute's label → [`DomIx`] map (Boolean
/// aliases included), every label's escaped results-table cell and the
/// escaped header row, so decoding a request, rendering a page
/// ([`PageCodec::render_page`]) and scraping one
/// ([`PageCodec::scrape_page`], or [`PageCodec::scrape_for_sampler`],
/// which decodes no cell of an overflow page) never format, escape or
/// scan a vocabulary per cell.
#[derive(Debug, Clone)]
pub struct PageCodec {
    pub(crate) attrs: Vec<AttrCodec>,
    /// `<tr><th>id</th><th>NAME</th>…</tr>\n`, names escaped.
    pub(crate) header_row: String,
    /// The header's cell texts as rendered: `id`, then every escaped
    /// attribute and measure name.
    pub(crate) header_cells: Vec<Box<str>>,
    /// The fewest bytes one rendered row can take.
    pub(crate) row_min: usize,
}

/// One attribute's share of a [`PageCodec`].
#[derive(Debug, Clone)]
pub(crate) struct AttrCodec {
    /// The attribute's name, as error messages quote it.
    pub(crate) name: Box<str>,
    /// Per domain value: its whole results-table cell, `<td>LABEL</td>`
    /// with the label escaped.
    pub(crate) cells: Vec<Box<str>>,
    /// Every label [`Attribute::parse_label`](hdsampler_model::Attribute::parse_label)
    /// accepts, mapped to its index (first listing wins).
    pub(crate) by_label: HashMap<Box<str>, DomIx>,
}

impl PageCodec {
    /// Build the codec of `schema`.
    pub fn new(schema: &Schema) -> Self {
        let attrs: Vec<AttrCodec> = schema
            .attributes()
            .iter()
            .map(|attr| {
                let mut by_label = HashMap::new();
                for (label, v) in attr.accepted_labels() {
                    by_label.entry(label.into()).or_insert(v);
                }
                AttrCodec {
                    name: attr.name().into(),
                    cells: attr
                        .domain()
                        .map(|v| format!("<td>{}</td>", escape_html(&attr.label(v))).into())
                        .collect(),
                    by_label,
                }
            })
            .collect();
        let header_cells: Vec<Box<str>> = std::iter::once("id".into())
            .chain(
                schema
                    .attributes()
                    .iter()
                    .map(|a| escape_html(a.name()).into()),
            )
            .chain(
                schema
                    .measures()
                    .iter()
                    .map(|m| escape_html(m.name()).into()),
            )
            .collect();
        let mut header_row = String::from("<tr>");
        for cell in &header_cells {
            header_row.push_str("<th>");
            header_row.push_str(cell);
            header_row.push_str("</th>");
        }
        header_row.push_str("</tr>\n");
        let row_min = ROW_FIXED_MIN
            + attrs
                .iter()
                .map(|a: &AttrCodec| a.cells.iter().map(|c| c.len()).min().unwrap_or(0))
                .sum::<usize>()
            + MEASURE_CELL_MIN * schema.measure_arity();
        PageCodec {
            attrs,
            header_row,
            header_cells,
            row_min,
        }
    }
}

impl WebForm {
    /// Form for `schema`, submitting to `action` (e.g. `/search`).
    pub fn new(schema: Arc<Schema>, action: impl Into<String>) -> Self {
        WebForm {
            codec: PageCodec::new(&schema),
            schema,
            action: action.into(),
        }
    }

    /// The form's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The submit path.
    pub fn action(&self) -> &str {
        &self.action
    }

    /// The codec of this form's request paths and results pages.
    pub fn codec(&self) -> &PageCodec {
        &self.codec
    }

    /// Encode a query as the GET request path this form would submit:
    /// `ACTION?name=label&…`, both sides percent-encoded, predicates in
    /// attribute order.
    pub fn request_path(&self, query: &ConjunctiveQuery) -> String {
        let mut out = String::with_capacity(self.action.len() + 32 * query.len());
        out.push_str(&self.action);
        let mut sep = '?';
        for p in query.predicates() {
            let attr = self.schema.attr_unchecked(p.attr);
            out.push(sep);
            urlenc::encode_into(&mut out, attr.name());
            out.push('=');
            urlenc::encode_into(&mut out, &attr.label(p.value));
            sep = '&';
        }
        out
    }

    /// Decode a GET request path back into a query (server side).
    ///
    /// An empty-valued pair (`make=`) is the form's own "any" default — a
    /// browser submitting the rendered form sends every field, so empty
    /// values are skipped as unconstrained rather than rejected. Duplicate
    /// fields binding the same value collapse to one predicate; duplicates
    /// binding different values are contradictory and rejected.
    ///
    /// # Errors
    /// [`ModelError`] when a field or value does not belong to the schema
    /// or a field is bound to two different values
    /// ([`ModelError::ConflictingPredicate`]); malformed encodings surface
    /// as [`ModelError::UnknownAttribute`] with the raw text.
    pub fn parse_request_path(&self, path: &str) -> Result<ConjunctiveQuery, ModelError> {
        let qs = match path.split_once('?') {
            None => return Ok(ConjunctiveQuery::empty()),
            Some((_, qs)) => qs,
        };
        let malformed = || ModelError::UnknownAttribute {
            name: format!("<malformed: {qs}>"),
        };
        // Every pair decodes before any resolves, so a malformed pair
        // anywhere outranks an unknown field before it.
        let mut pairs: Vec<(Cow<'_, str>, Cow<'_, str>)> = Vec::new();
        if !qs.is_empty() {
            for part in qs.split('&') {
                let (name, label) = part.split_once('=').ok_or_else(malformed)?;
                let name = urlenc::decode_cow(name).ok_or_else(malformed)?;
                let label = urlenc::decode_cow(label).ok_or_else(malformed)?;
                pairs.push((name, label));
            }
        }
        let mut query = ConjunctiveQuery::empty();
        for (name, label) in &pairs {
            // The field must exist even when left at "any" — a field the
            // form never rendered is still a bad request.
            let attr = self.schema.attr_by_name(name)?;
            if label.is_empty() {
                continue;
            }
            let value = self.codec.attrs[attr.index()]
                .by_label
                .get(&**label)
                .copied()
                .ok_or_else(|| ModelError::ValueOutOfRange {
                    attr: name.to_string(),
                    value: u16::MAX,
                    domain_size: self.schema.domain_size(attr),
                })?;
            query = query.refine(attr, value)?;
        }
        Ok(query)
    }

    /// Render the form as HTML (`<select>` per attribute) — the Figure 3
    /// page.
    ///
    /// The markup is self-describing: every `<select>` carries a
    /// `data-kind` (`boolean` / `categorical` / `numeric`), numeric options
    /// carry their bucket bounds as `data-lo`/`data-hi` (Debug-formatted
    /// floats, which round-trip exactly), and the site's measures are
    /// listed in a `<ul class="measures">`. A scraper can therefore
    /// reconstruct the *typed* schema from the page alone — see
    /// [`scrape_form_page`](crate::scrape::scrape_form_page).
    pub fn render_html(&self) -> String {
        self.render_html_inner(None)
    }

    /// [`render_html`](WebForm::render_html) plus site metadata on the
    /// `<form>` tag: `data-hds-k` (the top-k display limit) and
    /// `data-hds-count` (`yes`/`no` count-banner support). Served landing
    /// pages use this variant so schema discovery needs nothing beyond one
    /// fetch of `/`.
    pub fn render_html_with_meta(&self, k: usize, supports_count: bool) -> String {
        self.render_html_inner(Some((k, supports_count, None)))
    }

    /// [`render_html_with_meta`](WebForm::render_html_with_meta) plus the
    /// site's versioned identity fingerprint as `data-hds-fingerprint` —
    /// the key persistent history caches file their facts under. Older
    /// pages without the attribute stay scrapeable; clients fall back to
    /// deriving the fingerprint themselves.
    pub fn render_html_with_fingerprint(
        &self,
        k: usize,
        supports_count: bool,
        fingerprint: &str,
    ) -> String {
        self.render_html_inner(Some((k, supports_count, Some(fingerprint))))
    }

    fn render_html_inner(&self, meta: Option<(usize, bool, Option<&str>)>) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "<form action=\"{}\" method=\"get\"",
            escape_html(&self.action)
        );
        if let Some((k, supports_count, fingerprint)) = meta {
            let _ = write!(
                out,
                " data-hds-k=\"{k}\" data-hds-count=\"{}\"",
                if supports_count { "yes" } else { "no" }
            );
            if let Some(fp) = fingerprint {
                let _ = write!(out, " data-hds-fingerprint=\"{}\"", escape_html(fp));
            }
        }
        let _ = writeln!(out, ">");
        for (_, attr) in self.schema.iter() {
            let name = escape_html(attr.name());
            let kind = match attr.kind() {
                AttrKind::Boolean => "boolean",
                AttrKind::Categorical { .. } => "categorical",
                AttrKind::Numeric { .. } => "numeric",
            };
            let _ = writeln!(out, "  <label for=\"{name}\">{name}</label>");
            let _ = writeln!(
                out,
                "  <select name=\"{name}\" id=\"{name}\" data-kind=\"{kind}\">"
            );
            let _ = writeln!(out, "    <option value=\"\" selected>any</option>");
            if let AttrKind::Numeric { buckets } = attr.kind() {
                for b in buckets {
                    let label = escape_html(&b.label);
                    let _ = writeln!(
                        out,
                        "    <option value=\"{label}\" data-lo=\"{:?}\" data-hi=\"{:?}\">{label}</option>",
                        b.lo, b.hi
                    );
                }
            } else {
                for v in attr.domain() {
                    let label = escape_html(&attr.label(v));
                    let _ = writeln!(out, "    <option value=\"{label}\">{label}</option>");
                }
            }
            let _ = writeln!(out, "  </select>");
        }
        let _ = writeln!(out, "  <input type=\"submit\" value=\"Search\"/>");
        if !self.schema.measures().is_empty() {
            let _ = writeln!(out, "  <ul class=\"measures\">");
            for m in self.schema.measures() {
                let _ = writeln!(out, "    <li>{}</li>", escape_html(m.name()));
            }
            let _ = writeln!(out, "  </ul>");
        }
        let _ = writeln!(out, "</form>");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_model::{Attribute, Bucket, SchemaBuilder};

    fn form() -> WebForm {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Toyota", "Town & Country style"]).unwrap())
            .attribute(
                Attribute::numeric(
                    "price",
                    vec![
                        Bucket::new(0.0, 5e3, "under $5k"),
                        Bucket::new(5e3, f64::INFINITY, "$5k–up"),
                    ],
                )
                .unwrap(),
            )
            .finish()
            .unwrap()
            .into_shared();
        WebForm::new(schema, "/search")
    }

    #[test]
    fn request_path_roundtrip() {
        let f = form();
        let q = ConjunctiveQuery::from_named(
            f.schema(),
            [("make", "Town & Country style"), ("price", "$5k–up")],
        )
        .unwrap();
        let path = f.request_path(&q);
        assert!(path.starts_with("/search?"));
        assert_eq!(f.parse_request_path(&path).unwrap(), q);
    }

    #[test]
    fn empty_query_is_bare_action() {
        let f = form();
        assert_eq!(f.request_path(&ConjunctiveQuery::empty()), "/search");
        assert_eq!(
            f.parse_request_path("/search").unwrap(),
            ConjunctiveQuery::empty()
        );
    }

    #[test]
    fn default_form_submission_is_the_empty_query() {
        // A browser submitting the rendered form with every select left on
        // "any" sends `?make=&price=` — that is the unconstrained query,
        // not a 400.
        let f = form();
        assert_eq!(
            f.parse_request_path("/search?make=&price=").unwrap(),
            ConjunctiveQuery::empty()
        );
        // Partially constrained: only the non-empty field binds.
        let q = f.parse_request_path("/search?make=Toyota&price=").unwrap();
        assert_eq!(
            q,
            ConjunctiveQuery::from_named(f.schema(), [("make", "Toyota")]).unwrap()
        );
        // An unknown field is rejected even when left at "any".
        assert!(f.parse_request_path("/search?colour=").is_err());
    }

    #[test]
    fn duplicate_fields_dedupe_or_conflict() {
        let f = form();
        // Identical duplicate collapses to one predicate.
        let q = f
            .parse_request_path("/search?make=Toyota&make=Toyota")
            .unwrap();
        assert_eq!(
            q,
            ConjunctiveQuery::from_named(f.schema(), [("make", "Toyota")]).unwrap()
        );
        // Conflicting duplicate is a clear 400-class error.
        let err = f
            .parse_request_path("/search?make=Toyota&make=Town%20%26%20Country%20style")
            .unwrap_err();
        assert!(matches!(
            err,
            hdsampler_model::ModelError::ConflictingPredicate { .. }
        ));
        // An "any" next to a real binding is not a conflict.
        let q = f.parse_request_path("/search?make=&make=Toyota").unwrap();
        assert_eq!(
            q,
            ConjunctiveQuery::from_named(f.schema(), [("make", "Toyota")]).unwrap()
        );
    }

    #[test]
    fn unknown_fields_rejected() {
        let f = form();
        assert!(f.parse_request_path("/search?colour=red").is_err());
        assert!(f.parse_request_path("/search?make=Tesla").is_err());
        assert!(f.parse_request_path("/search?make=%ZZ").is_err());
    }

    #[test]
    fn form_html_lists_all_options() {
        let f = form();
        let html = f.render_html();
        assert!(html.contains("<select name=\"make\""));
        assert!(html.contains("Town &amp; Country style"));
        assert!(html.contains(">any</option>"));
        assert!(html.contains("$5k–up"));
    }
}
