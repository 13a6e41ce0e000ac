//! Mounting a site behind the HTTP front door.
//!
//! [`SiteBehavior`] is the server's view of a site: a GET target in, a
//! [`Response`] out. The blanket implementation for [`LocalSite`]
//! delegates the route/parse/execute pipeline to [`LocalSite::fetch`]
//! itself — the in-process semantics (200/400/404 outcomes and their
//! exact message texts, as defined by `WebForm::parse_request_path`) hold
//! over HTTP *by construction*, not by a re-implementation kept in sync
//! by hand.
//!
//! Status mapping:
//!
//! | site outcome | HTTP |
//! |---|---|
//! | results page | `200` (HTML) |
//! | landing page (`/`, when the action is elsewhere) | `200` (HTML) |
//! | path off the form action | `404`, body = in-process message |
//! | unparseable query string | `400`, body = in-process message |
//! | backend budget exhausted | `429` + `x-hds-issued` header |
//! | any other backend error | `500` |
//!
//! Wrapping a site in [`Adversary`](crate::adversary::Adversary) adds
//! three injected outcomes on top of this table: a rate-limit `429`
//! (`x-hds-error: throttled`, `Retry-After`, *no* `x-hds-issued`), a
//! transient `503` (`x-hds-error: transient`), and a severed connection
//! (no response at all) — all transient to a retrying client, unlike the
//! terminal budget `429`.

use hdsampler_model::{FormInterface, InterfaceError};
use hdsampler_webform::render::escape_html;
use hdsampler_webform::{LocalSite, Transport};

use crate::http::Response;

/// Marker header naming the machine-readable error class on non-200
/// responses; [`HttpTransport`](hdsampler_webform::HttpTransport) uses it
/// (plus [`ISSUED_HEADER`]) to rebuild the in-process `InterfaceError`.
pub const ERROR_HEADER: &str = "x-hds-error";
/// Header carrying the charged-query count on budget-exhausted responses.
pub const ISSUED_HEADER: &str = "x-hds-issued";

/// A site the HTTP server can mount: GET target in, response out.
pub trait SiteBehavior: Send + Sync {
    /// Respond to a GET for `target` (path plus optional query string).
    fn get(&self, target: &str) -> Response;
}

impl<S: SiteBehavior + ?Sized> SiteBehavior for &S {
    fn get(&self, target: &str) -> Response {
        (**self).get(target)
    }
}

impl<S: SiteBehavior + ?Sized> SiteBehavior for std::sync::Arc<S> {
    fn get(&self, target: &str) -> Response {
        (**self).get(target)
    }
}

/// The landing page: the self-describing form (schema, top-k limit and
/// count support all machine-readable) wrapped in a minimal document, so
/// one fetch of `/` is enough for a client to configure itself.
fn landing_page<F: FormInterface>(site: &LocalSite<F>) -> String {
    let fp = hdsampler_core::l2::SiteFingerprint::derive(
        site.backend().schema(),
        site.backend().result_limit(),
        site.backend().supports_count(),
        site.backend().dataset_digest(),
    );
    format!(
        "<html><head><title>HDSampler search</title></head><body>\n\
         <h1>Search listings</h1>\n{}\
         <p>{} listings behind a top-{} interface.</p>\n\
         </body></html>\n",
        site.form().render_html_with_fingerprint(
            site.backend().result_limit(),
            site.backend().supports_count(),
            fp.as_str(),
        ),
        escape_html(&site.backend().schema().domain_product().to_string()),
        site.backend().result_limit(),
    )
}

impl<F: FormInterface> SiteBehavior for LocalSite<F> {
    fn get(&self, target: &str) -> Response {
        let route = target.split_once('?').map_or(target, |(p, _)| p);
        if route == "/" && self.form().action() != "/" {
            return Response::html(200, "OK", landing_page(self));
        }
        match self.fetch(target) {
            Ok(page) => Response::html(200, "OK", page),
            Err(InterfaceError::Transport(msg)) if msg.starts_with("404") => {
                let mut resp = Response::text(404, "Not Found", msg);
                resp.extra_headers
                    .push((ERROR_HEADER.into(), "not-found".into()));
                resp
            }
            Err(InterfaceError::SchemaMismatch(msg)) => {
                let mut resp = Response::text(400, "Bad Request", msg);
                resp.extra_headers
                    .push((ERROR_HEADER.into(), "schema-mismatch".into()));
                resp
            }
            Err(InterfaceError::Transport(msg)) if msg.starts_with("400") => {
                let mut resp = Response::text(400, "Bad Request", msg);
                resp.extra_headers
                    .push((ERROR_HEADER.into(), "bad-request".into()));
                resp
            }
            Err(InterfaceError::BudgetExhausted { issued }) => {
                let mut resp = Response::text(
                    429,
                    "Too Many Requests",
                    InterfaceError::BudgetExhausted { issued }.to_string(),
                );
                resp.extra_headers
                    .push((ERROR_HEADER.into(), "budget-exhausted".into()));
                resp.extra_headers
                    .push((ISSUED_HEADER.into(), issued.to_string()));
                resp
            }
            Err(e) => {
                let mut resp = Response::text(
                    500,
                    "Internal Server Error",
                    format!("500 internal error: {e}"),
                );
                resp.extra_headers
                    .push((ERROR_HEADER.into(), "internal".into()));
                resp
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hdsampler_hidden_db::HiddenDb;
    use hdsampler_model::{Attribute, SchemaBuilder, Tuple};
    use std::sync::Arc;

    fn site(budget: Option<u64>) -> LocalSite<HiddenDb> {
        let schema = SchemaBuilder::new()
            .attribute(Attribute::categorical("make", ["Toyota", "Honda"]).unwrap())
            .finish()
            .unwrap()
            .into_shared();
        let mut b = HiddenDb::builder(Arc::clone(&schema)).result_limit(1);
        if let Some(q) = budget {
            b = b.query_budget(q);
        }
        for v in [0u16, 0, 1] {
            b.push(&Tuple::new(&schema, vec![v], vec![]).unwrap())
                .unwrap();
        }
        LocalSite::new(b.finish(), schema)
    }

    #[test]
    fn statuses_mirror_local_site_outcomes() {
        let site = site(None);
        assert_eq!(site.get("/").status, 200);
        assert_eq!(site.get("/search?make=Honda").status, 200);
        assert_eq!(site.get("/search").status, 200);
        assert_eq!(site.get("/nosuchpage").status, 404);
        assert_eq!(site.get("/search?bogus=1").status, 400);
    }

    #[test]
    fn error_bodies_carry_the_in_process_message() {
        let site = site(None);
        let body = String::from_utf8(site.get("/nosuchpage?make=Honda").body).unwrap();
        let direct = site.fetch("/nosuchpage?make=Honda").unwrap_err();
        assert_eq!(
            direct,
            InterfaceError::Transport(body),
            "HTTP body must be byte-identical to the in-process error"
        );
    }

    #[test]
    fn landing_page_renders_the_form() {
        let site = site(None);
        let body = String::from_utf8(site.get("/").body).unwrap();
        assert!(body.contains("<form action=\"/search\""));
        assert!(body.contains(">Honda</option>"));
    }

    #[test]
    fn landing_page_is_discoverable() {
        // The served `/` must scrape back to the exact schema plus the
        // site's k and count support — the contract `sample http://addr`
        // relies on when run with zero schema flags.
        let site = site(None);
        let body = String::from_utf8(site.get("/").body).unwrap();
        let form = hdsampler_webform::scrape_form_page(&body).unwrap();
        assert_eq!(&form.schema, site.form().schema().as_ref());
        assert_eq!(form.action, "/search");
        assert_eq!(form.k, 1);
        assert!(!form.supports_count);
    }

    #[test]
    fn schema_mismatch_maps_to_400_with_marker() {
        let site = site(None);
        let resp = site.get("/search?bogus=1");
        assert_eq!(resp.status, 400);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(n, v)| n == ERROR_HEADER && v == "schema-mismatch"));
        let body = String::from_utf8(resp.body).unwrap();
        match site.fetch("/search?bogus=1").unwrap_err() {
            InterfaceError::SchemaMismatch(msg) => assert_eq!(msg, body),
            other => panic!("expected SchemaMismatch, got {other:?}"),
        }
    }

    #[test]
    fn budget_exhaustion_maps_to_429_with_headers() {
        let site = site(Some(1));
        assert_eq!(site.get("/search?make=Honda").status, 200);
        let resp = site.get("/search?make=Toyota");
        assert_eq!(resp.status, 429);
        assert!(resp
            .extra_headers
            .iter()
            .any(|(n, v)| n == ERROR_HEADER && v == "budget-exhausted"));
        assert!(resp
            .extra_headers
            .iter()
            .any(|(n, v)| n == ISSUED_HEADER && v == "1"));
    }
}
