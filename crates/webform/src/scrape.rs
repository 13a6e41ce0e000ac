//! Client-side scraping of result pages and form pages.
//!
//! A small, purpose-built extractor (no external parser). Results pages
//! are read by [`PageCodec::scrape_page`] in one forward pass: it finds
//! `<table class="results">`, reads the count banner and the overflow
//! notice from the head of the page before the table only, then walks the
//! table's `<` bytes once with plain byte scans, collecting each row's
//! cells as borrowed `&str`s into one buffer reused for the whole page.
//! Labels map back to domain indices through the codec's label maps; only
//! cells containing `&` are unescaped, into one reused string. The header
//! row must name the schema's columns in order, so a site that reorders
//! its columns is a parse error, not a silent mis-scrape. Every other
//! page — truncated, with cells dropped or doubled, bad keys, labels or
//! measures — gives exactly the result or [`InterfaceError::Parse`]
//! message of the straightforward nested-search scraper kept as the test
//! oracle (`oracle.rs`).
//!
//! [`PageCodec::scrape_for_sampler`] is the same pass in the mode a
//! sampler needs. A sampler uses an overflowing query only for its class
//! (its top-k rows would bias a sample), so on a page with the overflow
//! notice it still checks the header and every row's cell count, but
//! decodes no cell and returns no rows. Bad cell text on such a page goes
//! unseen; every other page scrapes exactly as in `scrape_page`.

use hdsampler_model::{
    Attribute, Bucket, DomIx, InterfaceError, Measure, QueryResponse, Row, Schema, SchemaBuilder,
};

use crate::form::PageCodec;
use crate::render::{unescape_html, unescape_into};

const TABLE_OPEN: &str = "<table class=\"results\">";
const TABLE_CLOSE: &str = "</table>";
const ROW_OPEN: &str = "<tr";
const ROW_CLOSE: &str = "</tr>";
const COUNT_OPEN: &str = "<div class=\"count\">";
const OVERFLOW_OPEN: &str = "<div class=\"overflow\">";

/// Whether `html` holds `pat` at byte `at`.
fn is_at(html: &str, at: usize, pat: &str) -> bool {
    html.as_bytes()[at..].starts_with(pat.as_bytes())
}

/// The first `byte` at or after `from`. A plain byte loop: the spans
/// between a page's tags are a few bytes long, shorter than the set-up
/// of a `memchr`.
fn next_byte(html: &str, from: usize, byte: u8) -> Option<usize> {
    html.as_bytes()
        .get(from..)?
        .iter()
        .position(|&b| b == byte)
        .map(|rel| from + rel)
}

/// The first occurrence of `pat` (which starts with `<`) at or after
/// `from`.
fn find_tag(html: &str, from: usize, pat: &str) -> Option<usize> {
    let mut at = from;
    while let Some(i) = next_byte(html, at, b'<') {
        if is_at(html, i, pat) {
            return Some(i);
        }
        at = i + 1;
    }
    None
}

/// The inner text of the first `OPEN…</div>` within `head`.
fn div_text<'a>(head: &'a str, open: &str) -> Option<&'a str> {
    let start = find_tag(head, 0, open)? + open.len();
    let end = find_tag(head, start, "</div>")?;
    Some(&head[start..end])
}

/// Parse a count banner "About 12,000 results" into the number: its
/// digits, read as one `u64` (`None` with no digit, or past `u64::MAX`).
fn parse_count_banner(text: &str) -> Option<u64> {
    let mut digits = text.bytes().filter(u8::is_ascii_digit).peekable();
    digits.peek()?;
    digits.try_fold(0u64, |n, d| {
        n.checked_mul(10)?.checked_add(u64::from(d - b'0'))
    })
}

/// What [`scan_row`] found.
enum RowScan {
    /// A row `<tr…>…</tr>`, its cells in the buffer; the scan resumes at
    /// `next`.
    Row { next: usize },
    /// The table's first `</table>`, before any further complete row.
    TableEnd,
    /// The page ends with no `</table>` at all.
    Unterminated,
}

/// Scan from `pos` (inside the table, every `<` before it already seen)
/// for the next row, pushing the inner text of each of its cells onto
/// `cells`: `<th>` cells when `HEADER`, else `<td>` cells (a constant, so
/// every tag comparison compiles to a few byte compares).
///
/// The rules are those of the nested searches this replaced, met in one
/// pass: a row is the first `<tr` and its next `>`, up to the first
/// `</tr>`; a cell is the first `<td` (or `<th`) in the row, its next `>`,
/// up to the first `</td>`; nothing counts past the first `</table>`. A cell whose
/// `>` or close tag is not in the row ends the row's cells, and a row or
/// cell cut by `</table>` ends the table. Every `<` on the way is
/// checked for `</tr>` and `</table>`, which is how a search that would
/// run past either is detected without a second pass.
fn scan_row<'a, const HEADER: bool>(
    html: &'a str,
    pos: usize,
    cells: &mut Vec<&'a str>,
) -> RowScan {
    let (open, close) = if HEADER {
        ("<th", "</th>")
    } else {
        ("<td", "</td>")
    };
    cells.clear();
    let mut pos = pos;
    let tr = loop {
        let Some(i) = next_byte(html, pos, b'<') else {
            return RowScan::Unterminated;
        };
        if is_at(html, i, TABLE_CLOSE) {
            return RowScan::TableEnd;
        }
        if is_at(html, i, ROW_OPEN) {
            break i;
        }
        pos = i + 1;
    };
    let Some(gt) = next_byte(html, tr + ROW_OPEN.len(), b'>') else {
        return RowScan::Unterminated;
    };
    if html[tr + ROW_OPEN.len()..gt]
        .match_indices('<')
        .any(|(j, _)| is_at(html, tr + ROW_OPEN.len() + j, TABLE_CLOSE))
    {
        return RowScan::TableEnd;
    }
    // A `</tr>` or `</table>` met where the scan expected more of the row.
    let stop = |j: usize| {
        if is_at(html, j, ROW_CLOSE) {
            Some(RowScan::Row {
                next: j + ROW_CLOSE.len(),
            })
        } else if is_at(html, j, TABLE_CLOSE) {
            Some(RowScan::TableEnd)
        } else {
            None
        }
    };
    let mut pos = gt + 1;
    loop {
        let Some(i) = next_byte(html, pos, b'<') else {
            return RowScan::Unterminated;
        };
        if !is_at(html, i, open) {
            if let Some(end) = stop(i) {
                return end;
            }
            pos = i + 1;
            continue;
        }
        let attrs = i + open.len();
        let Some(gt) = next_byte(html, attrs, b'>') else {
            return RowScan::Unterminated;
        };
        if let Some(end) = html[attrs..gt]
            .match_indices('<')
            .find_map(|(j, _)| stop(attrs + j))
        {
            return end;
        }
        let mut at = gt + 1;
        loop {
            let Some(j) = next_byte(html, at, b'<') else {
                return RowScan::Unterminated;
            };
            if is_at(html, j, close) {
                cells.push(&html[gt + 1..j]);
                pos = j + close.len();
                break;
            }
            if let Some(end) = stop(j) {
                return end;
            }
            at = j + 1;
        }
    }
}

fn parse_err(msg: impl Into<String>) -> InterfaceError {
    InterfaceError::Parse(msg.into())
}

impl PageCodec {
    /// Scrape a results page back into a [`QueryResponse`].
    ///
    /// # Errors
    /// [`InterfaceError::Parse`] when the page lacks the results table
    /// (or its `</table>`), the header row does not name the schema's
    /// columns in order, a row has the wrong number of cells, or a
    /// key/label/number fails to parse.
    pub fn scrape_page(&self, html: &str) -> Result<QueryResponse, InterfaceError> {
        self.scrape(html, true)
    }

    /// Scrape a results page for a sampler: as [`scrape_page`], except
    /// that an overflow page's rows are checked for their cell count but
    /// not decoded, and come back empty (`rows: vec![]`, `overflow:
    /// true`, the banner's count).
    ///
    /// # Errors
    /// As [`scrape_page`], save that a bad key, label or number in an
    /// overflow page's rows is not seen.
    ///
    /// [`scrape_page`]: PageCodec::scrape_page
    pub fn scrape_for_sampler(&self, html: &str) -> Result<QueryResponse, InterfaceError> {
        self.scrape(html, false)
    }

    /// The one pass behind both scrapes; `overflow_rows` says whether an
    /// overflow page's rows are decoded.
    fn scrape(&self, html: &str, overflow_rows: bool) -> Result<QueryResponse, InterfaceError> {
        let table =
            find_tag(html, 0, TABLE_OPEN).ok_or_else(|| parse_err("results table missing"))?;
        let head = &html[..table];
        let reported_count = div_text(head, COUNT_OPEN).and_then(parse_count_banner);
        let overflow = div_text(head, OVERFLOW_OPEN).is_some();
        let decode_rows = overflow_rows || !overflow;
        let unterminated = || parse_err("results table unterminated");

        let mut cells: Vec<&str> = Vec::with_capacity(self.header_cells.len());
        let mut unescaped = String::new();
        let mut rows = Vec::new();
        let mut pos = table + TABLE_OPEN.len();
        for tr_ix in 0.. {
            let scan = if tr_ix == 0 {
                scan_row::<true>(html, pos, &mut cells)
            } else {
                scan_row::<false>(html, pos, &mut cells)
            };
            let next = match scan {
                RowScan::Row { next } => next,
                RowScan::TableEnd => break,
                RowScan::Unterminated => return Err(unterminated()),
            };
            let scraped = if tr_ix == 0 {
                self.check_header(&cells)
            } else if decode_rows {
                self.scrape_row(tr_ix, &cells, &mut unescaped)
                    .map(|row| rows.push(row))
            } else {
                self.check_cell_count(tr_ix, &cells)
            };
            if let Err(e) = scraped {
                // A table with no `</table>` outranks any row's error.
                return Err(match find_tag(html, next, TABLE_CLOSE) {
                    Some(_) => e,
                    None => unterminated(),
                });
            }
            pos = next;
        }
        Ok(QueryResponse {
            rows,
            overflow,
            reported_count,
        })
    }

    /// The header row must read `id`, then every attribute and measure
    /// name (escaped) in schema order; whitespace around a name is not
    /// compared, as it is not around any cell.
    fn check_header(&self, cells: &[&str]) -> Result<(), InterfaceError> {
        let expected = self.header_cells.len();
        if cells.len() != expected {
            return Err(parse_err(format!(
                "header has {} columns, schema expects {expected}",
                cells.len()
            )));
        }
        for (i, (cell, want)) in cells.iter().zip(&self.header_cells).enumerate() {
            if cell.trim() != want.trim() {
                return Err(parse_err(format!(
                    "header column {} reads `{}`, schema expects `{want}`",
                    i + 1,
                    cell.trim()
                )));
            }
        }
        Ok(())
    }

    /// The `tr_ix`-th row of the table must have a cell per column.
    fn check_cell_count(&self, tr_ix: usize, cells: &[&str]) -> Result<(), InterfaceError> {
        let expected = self.header_cells.len();
        if cells.len() != expected {
            return Err(parse_err(format!(
                "row {tr_ix} has {} cells, expected {expected}",
                cells.len()
            )));
        }
        Ok(())
    }

    /// One data row's cells, the `tr_ix`-th row of the table.
    fn scrape_row(
        &self,
        tr_ix: usize,
        cells: &[&str],
        unescaped: &mut String,
    ) -> Result<Row, InterfaceError> {
        self.check_cell_count(tr_ix, cells)?;
        let key: u64 = cells[0]
            .trim()
            .parse()
            .map_err(|_| parse_err(format!("bad listing key `{}`", cells[0])))?;
        let (labels, measure_cells) = cells[1..].split_at(self.attrs.len());
        let mut values: Vec<DomIx> = Vec::with_capacity(labels.len());
        for (attr, cell) in self.attrs.iter().zip(labels) {
            let mut text = cell.trim();
            if text.as_bytes().contains(&b'&') {
                unescaped.clear();
                unescape_into(text, unescaped);
                text = unescaped;
            }
            let v = attr.by_label.get(text).copied().ok_or_else(|| {
                parse_err(format!(
                    "unknown label `{text}` for attribute `{}`",
                    attr.name
                ))
            })?;
            values.push(v);
        }
        let mut measures = Vec::with_capacity(measure_cells.len());
        for cell in measure_cells {
            let text = cell.trim();
            let x: f64 = text
                .parse()
                .map_err(|_| parse_err(format!("bad measure `{text}`")))?;
            measures.push(x);
        }
        Ok(Row::new(key, values, measures))
    }
}

/// Everything schema discovery learns from one fetch of a site's form
/// page: the typed schema (attribute kinds, vocabularies, numeric bucket
/// bounds, measures), the submit action, and the site's interface
/// parameters (top-k limit, count-banner support).
#[derive(Debug, Clone, PartialEq)]
pub struct DiscoveredForm {
    /// The reconstructed schema.
    pub schema: Schema,
    /// The form's submit path (e.g. `/search`).
    pub action: String,
    /// The advertised top-k display limit (`data-hds-k`).
    pub k: usize,
    /// Whether the site prints a count banner (`data-hds-count`).
    pub supports_count: bool,
    /// The site's advertised identity fingerprint
    /// (`data-hds-fingerprint`), when the page carries one. Older pages
    /// without the attribute scrape fine; clients derive a fingerprint
    /// from the scraped schema instead.
    pub fingerprint: Option<String>,
}

/// Extract the value of `name="..."` from one tag's attribute text.
///
/// The needle must start the text or follow whitespace, so `lo` never
/// matches inside `data-lo`. Values are entity-unescaped; a literal `"`
/// can never appear inside one (it renders as `&quot;`), so the closing
/// quote is unambiguous.
fn tag_attr(tag: &str, name: &str) -> Option<String> {
    let needle = format!("{name}=\"");
    let mut pos = 0;
    while let Some(rel) = tag[pos..].find(&needle) {
        let start = pos + rel;
        let vstart = start + needle.len();
        let vend = tag[vstart..].find('"')? + vstart;
        if start == 0 || tag[..start].ends_with(|c: char| c.is_whitespace()) {
            return Some(unescape_html(&tag[vstart..vend]));
        }
        pos = vend + 1;
    }
    None
}

/// All elements `<tag ...>inner</tag>` within `fragment`, as
/// `(attribute_text, inner_text)` pairs (non-nested, as rendered).
fn elements<'a>(fragment: &'a str, tag: &str) -> Vec<(&'a str, &'a str)> {
    let open_prefix = format!("<{tag}");
    let close = format!("</{tag}>");
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some(rel) = fragment[pos..].find(&open_prefix) {
        let tag_start = pos + rel;
        let attrs_start = tag_start + open_prefix.len();
        let Some(gt) = fragment[attrs_start..].find('>') else {
            break;
        };
        let content_start = attrs_start + gt + 1;
        let Some(rel_end) = fragment[content_start..].find(&close) else {
            break;
        };
        out.push((
            &fragment[attrs_start..attrs_start + gt],
            &fragment[content_start..content_start + rel_end],
        ));
        pos = content_start + rel_end + close.len();
    }
    out
}

/// Rebuild one attribute from its `<select>` element.
fn scrape_select(attrs: &str, inner: &str) -> Result<Attribute, InterfaceError> {
    let name = tag_attr(attrs, "name").ok_or_else(|| parse_err("form select carries no name"))?;
    let kind = tag_attr(attrs, "data-kind")
        .ok_or_else(|| parse_err(format!("select `{name}` carries no data-kind")))?;
    let mut labels: Vec<String> = Vec::new();
    let mut buckets: Vec<Bucket> = Vec::new();
    for (o_attrs, _) in elements(inner, "option") {
        let value = tag_attr(o_attrs, "value")
            .ok_or_else(|| parse_err(format!("option of `{name}` carries no value")))?;
        if value.is_empty() {
            // The "any" placeholder — not a domain value.
            continue;
        }
        if kind == "numeric" {
            let bound = |which: &str| -> Result<f64, InterfaceError> {
                tag_attr(o_attrs, which)
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| {
                        parse_err(format!(
                            "numeric option `{value}` of `{name}` has no parseable {which}"
                        ))
                    })
            };
            buckets.push(Bucket::new(bound("data-lo")?, bound("data-hi")?, value));
        } else {
            labels.push(value);
        }
    }
    match kind.as_str() {
        "boolean" => {
            if labels != ["no", "yes"] {
                return Err(parse_err(format!(
                    "boolean select `{name}` lists {labels:?}, expected [\"no\", \"yes\"]"
                )));
            }
            Ok(Attribute::boolean(name))
        }
        "categorical" => Attribute::categorical(&name, labels)
            .map_err(|e| parse_err(format!("select `{name}`: {e}"))),
        "numeric" => Attribute::numeric(&name, buckets)
            .map_err(|e| parse_err(format!("select `{name}`: {e}"))),
        other => Err(parse_err(format!(
            "select `{name}` has unknown data-kind `{other}`"
        ))),
    }
}

/// Scrape a served form page back into a [`DiscoveredForm`] — the typed
/// schema, submit action, k, and count support, reconstructed from the
/// markup [`WebForm::render_html_with_meta`](crate::form::WebForm::render_html_with_meta)
/// emits. This is the whole of schema discovery: a connector fetches `/`
/// once and needs no configuration beyond the site's address.
///
/// # Errors
/// [`InterfaceError::Parse`] when the page has no form, the form lacks
/// the `data-hds-k`/`data-hds-count` metadata, or any select/option is
/// malformed.
pub fn scrape_form_page(html: &str) -> Result<DiscoveredForm, InterfaceError> {
    let form_start = html
        .find("<form")
        .ok_or_else(|| parse_err("page carries no <form>"))?;
    let form_tag_end = html[form_start..]
        .find('>')
        .map(|e| form_start + e)
        .ok_or_else(|| parse_err("form tag unterminated"))?;
    let form_attrs = &html[form_start + "<form".len()..form_tag_end];
    let form_end = html[form_tag_end..]
        .find("</form>")
        .map(|e| form_tag_end + e)
        .ok_or_else(|| parse_err("form unterminated"))?;
    let form_body = &html[form_tag_end + 1..form_end];

    let action =
        tag_attr(form_attrs, "action").ok_or_else(|| parse_err("form carries no action"))?;
    let k: usize = tag_attr(form_attrs, "data-hds-k")
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| parse_err("form advertises no top-k limit (data-hds-k)"))?;
    let supports_count = match tag_attr(form_attrs, "data-hds-count").as_deref() {
        Some("yes") => true,
        Some("no") => false,
        _ => {
            return Err(parse_err(
                "form advertises no count support (data-hds-count)",
            ))
        }
    };

    let mut builder = SchemaBuilder::new();
    let selects = elements(form_body, "select");
    if selects.is_empty() {
        return Err(parse_err("form has no select fields"));
    }
    for (attrs, inner) in selects {
        builder = builder.attribute(scrape_select(attrs, inner)?);
    }
    if let Some((_, ul)) = elements(form_body, "ul")
        .into_iter()
        .find(|(attrs, _)| tag_attr(attrs, "class").as_deref() == Some("measures"))
    {
        for (_, li) in elements(ul, "li") {
            builder = builder.measure(Measure::new(unescape_html(li.trim())));
        }
    }
    let schema = builder
        .finish()
        .map_err(|e| parse_err(format!("scraped form is not a valid schema: {e}")))?;
    Ok(DiscoveredForm {
        schema,
        action,
        k,
        supports_count,
        fingerprint: tag_attr(form_attrs, "data-hds-fingerprint"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_model::{Attribute, Measure, SchemaBuilder};

    fn schema() -> Schema {
        SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Toyota", "A&B <Cars>"]).unwrap())
            .attribute(Attribute::boolean("used"))
            .measure(Measure::new("price"))
            .finish()
            .unwrap()
    }

    fn response() -> QueryResponse {
        QueryResponse {
            rows: vec![
                Row::new(42, vec![1, 0], vec![19_999.5]),
                Row::new(7, vec![0, 1], vec![0.1 + 0.2]), // non-round float
            ],
            overflow: true,
            reported_count: Some(12_000),
        }
    }

    #[test]
    fn render_scrape_roundtrip_is_exact() {
        let s = schema();
        let resp = response();
        let html = PageCodec::new(&s).render_page(&resp, 500);
        let back = PageCodec::new(&s).scrape_page(&html).unwrap();
        assert_eq!(back, resp, "bit-exact round trip incl. floats and entities");
    }

    #[test]
    fn empty_page_roundtrip() {
        let s = schema();
        let resp = QueryResponse {
            rows: vec![],
            overflow: false,
            reported_count: None,
        };
        let html = PageCodec::new(&s).render_page(&resp, 500);
        let back = PageCodec::new(&s).scrape_page(&html).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn swapped_header_columns_are_a_parse_error() {
        // A site listing its two Boolean columns in the other order: both
        // share one vocabulary, so every cell still parses.
        let ours = SchemaBuilder::new()
            .attribute(Attribute::boolean("used"))
            .attribute(Attribute::boolean("certified"))
            .finish()
            .unwrap();
        let theirs = SchemaBuilder::new()
            .attribute(Attribute::boolean("certified"))
            .attribute(Attribute::boolean("used"))
            .finish()
            .unwrap();
        // One listing: used, not certified.
        let page = PageCodec::new(&theirs).render_page(
            &QueryResponse {
                rows: vec![Row::new(1, vec![0, 1], vec![])],
                overflow: false,
                reported_count: None,
            },
            10,
        );
        // Counting the header's cells only, the reference scraper reads the
        // listing as certified and not used.
        let counted = crate::oracle::scrape_results_page(&ours, &page).unwrap();
        assert_eq!(counted.rows[0].values[..], [0, 1]);
        let err = PageCodec::new(&ours).scrape_page(&page).unwrap_err();
        assert_eq!(
            err,
            InterfaceError::Parse(
                "header column 2 reads `certified`, schema expects `used`".into()
            )
        );
    }

    #[test]
    fn count_banner_parsing() {
        assert_eq!(parse_count_banner("About 12,000 results"), Some(12_000));
        assert_eq!(parse_count_banner("About 7 results"), Some(7));
        assert_eq!(parse_count_banner("no digits"), None);
    }

    #[test]
    fn missing_table_is_a_parse_error() {
        let s = schema();
        let err = PageCodec::new(&s)
            .scrape_page("<html><body>oops</body></html>")
            .unwrap_err();
        assert!(matches!(err, InterfaceError::Parse(_)));
    }

    #[test]
    fn schema_drift_detected_via_header() {
        let s = schema();
        let html = "<table class=\"results\">\
                    <tr><th>id</th><th>make</th></tr>\
                    </table>";
        let err = PageCodec::new(&s).scrape_page(html).unwrap_err();
        assert!(matches!(err, InterfaceError::Parse(msg) if msg.contains("header")));
    }

    #[test]
    fn corrupt_cells_detected() {
        let s = schema();
        let html = "<table class=\"results\">\
            <tr><th>id</th><th>make</th><th>used</th><th>price</th></tr>\
            <tr><td>notanumber</td><td>Toyota</td><td>no</td><td>1.0</td></tr>\
            </table>";
        assert!(matches!(
            PageCodec::new(&s).scrape_page(html),
            Err(InterfaceError::Parse(msg)) if msg.contains("listing key")
        ));

        let html = "<table class=\"results\">\
            <tr><th>id</th><th>make</th><th>used</th><th>price</th></tr>\
            <tr><td>1</td><td>Tesla</td><td>no</td><td>1.0</td></tr>\
            </table>";
        assert!(matches!(
            PageCodec::new(&s).scrape_page(html),
            Err(InterfaceError::Parse(msg)) if msg.contains("Tesla")
        ));
    }
}
