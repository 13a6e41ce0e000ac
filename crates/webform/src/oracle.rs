//! The reference page codec: the straightforward renderer, scraper and
//! request-path encoder that [`PageCodec`](crate::form::PageCodec)
//! replaced, kept as a test oracle. The codec must match it byte for byte
//! on every page and request path, and error for error on every page;
//! the only intended difference is that the codec also checks the header
//! row's names, where this scraper counts its cells only.
//!
//! Compiled only for tests: the crate's unit tests include it as a
//! module, and `tests/codec_equivalence.rs` includes the same file by
//! path, so it names the crate's modules through `super::`.

// Each includer uses a different subset.
#![allow(dead_code)]

use hdsampler_model::{
    ConjunctiveQuery, DomIx, InterfaceError, ModelError, QueryResponse, Row, Schema,
};

use super::urlenc;

/// Escape `& < > "` for HTML text/attribute contexts.
pub fn escape_html(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            c => out.push(c),
        }
    }
    out
}

/// Unescape the entities produced by [`escape_html`].
pub fn unescape_html(s: &str) -> String {
    s.replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&quot;", "\"")
        .replace("&amp;", "&")
}

/// Insert thousands separators: `1234567` → `"1,234,567"`.
pub fn format_thousands(n: u64) -> String {
    let digits = n.to_string();
    let mut out = String::with_capacity(digits.len() + digits.len() / 3);
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

/// Render a complete results page for `response`.
pub fn render_results_page(schema: &Schema, response: &QueryResponse, k: usize) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "<html><head><title>Search results</title></head><body>"
    );
    if let Some(count) = response.reported_count {
        let _ = writeln!(
            out,
            "<div class=\"count\">About {} results</div>",
            format_thousands(count)
        );
    }
    if response.overflow {
        let _ = writeln!(
            out,
            "<div class=\"overflow\">Showing the top {k} matching listings. \
             Refine your search to see more specific results.</div>"
        );
    }
    if response.rows.is_empty() {
        let _ = writeln!(out, "<div class=\"noresults\">No results found.</div>");
    }
    let _ = writeln!(out, "<table class=\"results\">");
    let _ = write!(out, "<tr><th>id</th>");
    for attr in schema.attributes() {
        let _ = write!(out, "<th>{}</th>", escape_html(attr.name()));
    }
    for m in schema.measures() {
        let _ = write!(out, "<th>{}</th>", escape_html(m.name()));
    }
    let _ = writeln!(out, "</tr>");
    for row in &response.rows {
        let _ = write!(out, "<tr><td>{}</td>", row.key);
        for (id, attr) in schema.iter() {
            let _ = write!(
                out,
                "<td>{}</td>",
                escape_html(&attr.label(row.values[id.index()]))
            );
        }
        for &x in row.measures.iter() {
            let _ = write!(out, "<td>{x:?}</td>");
        }
        let _ = writeln!(out, "</tr>");
    }
    let _ = writeln!(out, "</table>");
    let _ = writeln!(out, "</body></html>");
    out
}

/// Extract the inner text of the first `<div class="CLASS">…</div>`.
fn div_text<'a>(html: &'a str, class: &str) -> Option<&'a str> {
    let marker = format!("<div class=\"{class}\">");
    let start = html.find(&marker)? + marker.len();
    let end = html[start..].find("</div>")? + start;
    Some(&html[start..end])
}

/// All inner texts of `tag` within `fragment` (non-nested, as rendered).
fn cell_texts<'a>(fragment: &'a str, tag: &str) -> Vec<&'a str> {
    let open_prefix = format!("<{tag}");
    let close = format!("</{tag}>");
    let mut cells = Vec::new();
    let mut pos = 0;
    while let Some(rel) = fragment[pos..].find(&open_prefix) {
        let tag_start = pos + rel;
        let Some(gt) = fragment[tag_start..].find('>') else {
            break;
        };
        let content_start = tag_start + gt + 1;
        let Some(rel_end) = fragment[content_start..].find(&close) else {
            break;
        };
        cells.push(&fragment[content_start..content_start + rel_end]);
        pos = content_start + rel_end + close.len();
    }
    cells
}

/// Parse a count banner "About 12,000 results" into the number.
fn parse_count_banner(text: &str) -> Option<u64> {
    let digits: String = text.chars().filter(char::is_ascii_digit).collect();
    digits.parse().ok()
}

/// Scrape a results page back into a [`QueryResponse`].
pub fn scrape_results_page(schema: &Schema, html: &str) -> Result<QueryResponse, InterfaceError> {
    let reported_count = div_text(html, "count").and_then(parse_count_banner);
    let overflow = div_text(html, "overflow").is_some();

    let table_start = html
        .find("<table class=\"results\">")
        .ok_or_else(|| InterfaceError::Parse("results table missing".into()))?;
    let table_end = html[table_start..]
        .find("</table>")
        .map(|e| table_start + e)
        .ok_or_else(|| InterfaceError::Parse("results table unterminated".into()))?;
    let table = &html[table_start..table_end];

    let expected_cells = 1 + schema.arity() + schema.measure_arity();
    let mut rows = Vec::new();
    for (tr_ix, tr) in cell_texts(table, "tr").into_iter().enumerate() {
        if tr_ix == 0 {
            let headers = cell_texts(tr, "th");
            if headers.len() != expected_cells {
                return Err(InterfaceError::Parse(format!(
                    "header has {} columns, schema expects {expected_cells}",
                    headers.len()
                )));
            }
            continue;
        }
        let cells = cell_texts(tr, "td");
        if cells.len() != expected_cells {
            return Err(InterfaceError::Parse(format!(
                "row {tr_ix} has {} cells, expected {expected_cells}",
                cells.len()
            )));
        }
        let key: u64 = cells[0]
            .trim()
            .parse()
            .map_err(|_| InterfaceError::Parse(format!("bad listing key `{}`", cells[0])))?;
        let mut values: Vec<DomIx> = Vec::with_capacity(schema.arity());
        for (id, attr) in schema.iter() {
            let text = unescape_html(cells[1 + id.index()].trim());
            let v = attr.parse_label(&text).ok_or_else(|| {
                InterfaceError::Parse(format!(
                    "unknown label `{text}` for attribute `{}`",
                    attr.name()
                ))
            })?;
            values.push(v);
        }
        let mut measures = Vec::with_capacity(schema.measure_arity());
        for m in 0..schema.measure_arity() {
            let text = cells[1 + schema.arity() + m].trim();
            let x: f64 = text
                .parse()
                .map_err(|_| InterfaceError::Parse(format!("bad measure `{text}`")))?;
            measures.push(x);
        }
        rows.push(Row::new(key, values, measures));
    }
    Ok(QueryResponse {
        rows,
        overflow,
        reported_count,
    })
}

/// Encode a query as the GET request path a form at `action` submits.
pub fn request_path(schema: &Schema, action: &str, query: &ConjunctiveQuery) -> String {
    let pairs: Vec<(String, String)> = query
        .predicates()
        .iter()
        .map(|p| {
            let attr = schema.attr_unchecked(p.attr);
            (attr.name().to_owned(), attr.label(p.value).into_owned())
        })
        .collect();
    if pairs.is_empty() {
        action.to_owned()
    } else {
        format!("{}?{}", action, urlenc::build_query(&pairs))
    }
}

/// Decode a GET request path back into a query.
pub fn parse_request_path(schema: &Schema, path: &str) -> Result<ConjunctiveQuery, ModelError> {
    let qs = match path.split_once('?') {
        None => return Ok(ConjunctiveQuery::empty()),
        Some((_, qs)) => qs,
    };
    let pairs = urlenc::parse_query(qs).ok_or_else(|| ModelError::UnknownAttribute {
        name: format!("<malformed: {qs}>"),
    })?;
    let mut query = ConjunctiveQuery::empty();
    for (name, label) in &pairs {
        let attr = schema.attr_by_name(name)?;
        if label.is_empty() {
            continue;
        }
        let value = schema
            .attr_unchecked(attr)
            .parse_label(label)
            .ok_or_else(|| ModelError::ValueOutOfRange {
                attr: name.clone(),
                value: u16::MAX,
                domain_size: schema.domain_size(attr),
            })?;
        query = query.refine(attr, value)?;
    }
    Ok(query)
}
