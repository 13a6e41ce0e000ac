//! [`SiteLocator`]: one string naming any site the sampler can walk.
//!
//! Three schemes cover the three wires this workspace has:
//!
//! | scheme | example | resolves to |
//! |---|---|---|
//! | `local:` | `local:vehicles-compact?n=8000&k=250&seed=7` | an in-process [`LocalSite`](crate::LocalSite) built from the named dataset |
//! | `http://` | `http://127.0.0.1:8080` | a live front door over [`HttpTransport`](crate::HttpTransport) |
//! | `replay:` | `replay:runs/tape.jsonl` | a recorded tape served offline by [`ReplaySite`](crate::ReplaySite) |
//!
//! The grammar is deliberately tiny: `scheme : rest`, where `local:` takes
//! a registry dataset name plus an optional query string of build
//! parameters, `http://` takes a host:port, and `replay:` takes a file
//! path verbatim. A `local:` value may itself hold `=` and `,` — e.g.
//! `local:boolean?chaos=seed=7,throttle=0.2&latency=40` — since only `&`
//! separates parameters and only the first `=` splits one. Parsing and
//! [`Display`](std::fmt::Display) are exact inverses (property-tested),
//! so locators survive being printed into reports, shell history and CI
//! logs and pasted back.
//!
//! A locator only *names* a site; connecting it — building the database,
//! scraping the schema off `/`, loading the tape — is the
//! [`ConnectorRegistry`](crate::connect::ConnectorRegistry)'s job.

use std::fmt;

use crate::urlenc;

/// A parsed site locator. See the [module docs](self) for the grammar.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteLocator {
    /// `local:<dataset>[?key=value&…]` — an in-process site over a named
    /// dataset from the workload registry. Parameters are kept as ordered
    /// pairs; [`LocalParams`](crate::connect::LocalParams) interprets them
    /// (`n`, `k`, `seed`, `counts`, `budget`, `latency`, `jitter`, `l2`,
    /// `chaos`).
    Local {
        /// Registry dataset name (restricted charset: `[A-Za-z0-9._-]`).
        dataset: String,
        /// Build parameters, in written order.
        params: Vec<(String, String)>,
    },
    /// `http://<host:port>` — a live HTTP front door.
    Http {
        /// The address, without the scheme or any trailing slash.
        addr: String,
    },
    /// `replay:<path>` — a recorded tape on disk.
    Replay {
        /// Filesystem path to the JSONL tape, verbatim.
        path: String,
    },
}

/// Whether `s` is a valid `local:` dataset name: non-empty over
/// `[A-Za-z0-9._-]`. The restriction is what makes `Display` unambiguous —
/// a dataset can never contain `?` or `:`.
fn valid_dataset_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
}

impl SiteLocator {
    /// Parse a locator string.
    ///
    /// # Errors
    /// A message naming what is wrong and, for a bare word with no scheme,
    /// a `did you mean local:…` hint. Never panics, whatever the input
    /// (property-tested against arbitrary junk).
    pub fn parse(s: &str) -> Result<SiteLocator, String> {
        if let Some(addr) = s.strip_prefix("http://") {
            let addr = addr.strip_suffix('/').unwrap_or(addr);
            if addr.is_empty() {
                return Err("http:// locator needs a host:port, e.g. http://127.0.0.1:8080".into());
            }
            if addr.contains('/') {
                return Err(format!(
                    "http:// locator takes a bare host:port (got a path in `{s}`)"
                ));
            }
            return Ok(SiteLocator::Http { addr: addr.into() });
        }
        if let Some(rest) = s.strip_prefix("local:") {
            let (dataset, qs) = match rest.split_once('?') {
                Some((d, qs)) => (d, Some(qs)),
                None => (rest, None),
            };
            if !valid_dataset_name(dataset) {
                return Err(format!(
                    "local: locator needs a dataset name over [A-Za-z0-9._-] \
                     (got `{dataset}`); try e.g. local:vehicles-compact?n=8000&k=250"
                ));
            }
            let params = match qs {
                None => Vec::new(),
                Some("") => {
                    return Err(format!(
                        "empty parameter list in `{s}` (drop the trailing `?`)"
                    ))
                }
                Some(qs) => urlenc::parse_query(qs)
                    .ok_or_else(|| format!("malformed parameters in `{s}`"))?,
            };
            if params.iter().any(|(k, _)| k.is_empty()) {
                return Err(format!("empty parameter name in `{s}`"));
            }
            return Ok(SiteLocator::Local {
                dataset: dataset.into(),
                params,
            });
        }
        if let Some(path) = s.strip_prefix("replay:") {
            if path.is_empty() {
                return Err(
                    "replay: locator needs a tape path, e.g. replay:runs/tape.jsonl".into(),
                );
            }
            return Ok(SiteLocator::Replay { path: path.into() });
        }
        match s.split_once(':') {
            Some((scheme, _)) => Err(format!(
                "unknown locator scheme `{scheme}:` (valid: local:, http://, replay:)"
            )),
            None if s.is_empty() => Err("empty locator".into()),
            None => Err(format!(
                "locator `{s}` has no scheme (valid: local:, http://, replay:) \
                 — did you mean `local:{s}`?"
            )),
        }
    }

    /// The scheme word, for dispatch and display.
    pub fn scheme(&self) -> &'static str {
        match self {
            SiteLocator::Local { .. } => "local",
            SiteLocator::Http { .. } => "http",
            SiteLocator::Replay { .. } => "replay",
        }
    }
}

impl fmt::Display for SiteLocator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SiteLocator::Local { dataset, params } => {
                write!(f, "local:{dataset}")?;
                for (i, (key, value)) in params.iter().enumerate() {
                    // `=` and `,` in a value are unambiguous, so a
                    // `chaos=seed=7,fail=0.1` spec prints as written.
                    let value = urlenc::encode(value)
                        .replace("%3D", "=")
                        .replace("%2C", ",");
                    let sep = if i == 0 { '?' } else { '&' };
                    write!(f, "{sep}{}={value}", urlenc::encode(key))?;
                }
                Ok(())
            }
            SiteLocator::Http { addr } => write!(f, "http://{addr}"),
            SiteLocator::Replay { path } => write!(f, "replay:{path}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_three_schemes() {
        assert_eq!(
            SiteLocator::parse("local:vehicles-compact?n=8000&k=250&seed=7").unwrap(),
            SiteLocator::Local {
                dataset: "vehicles-compact".into(),
                params: vec![
                    ("n".into(), "8000".into()),
                    ("k".into(), "250".into()),
                    ("seed".into(), "7".into()),
                ],
            }
        );
        assert_eq!(
            SiteLocator::parse("local:boolean").unwrap(),
            SiteLocator::Local {
                dataset: "boolean".into(),
                params: vec![],
            }
        );
        assert_eq!(
            SiteLocator::parse("http://127.0.0.1:8080").unwrap(),
            SiteLocator::Http {
                addr: "127.0.0.1:8080".into()
            }
        );
        // A trailing slash is tolerated and normalized away.
        assert_eq!(
            SiteLocator::parse("http://127.0.0.1:8080/").unwrap(),
            SiteLocator::Http {
                addr: "127.0.0.1:8080".into()
            }
        );
        assert_eq!(
            SiteLocator::parse("replay:runs/tape.jsonl").unwrap(),
            SiteLocator::Replay {
                path: "runs/tape.jsonl".into()
            }
        );
    }

    #[test]
    fn rejects_junk_with_useful_messages() {
        let err = SiteLocator::parse("ftp://example.com").unwrap_err();
        assert!(err.contains("unknown locator scheme `ftp:`"), "{err}");
        assert!(err.contains("local:"), "{err}");

        let err = SiteLocator::parse("vehicles-compact").unwrap_err();
        assert!(
            err.contains("did you mean `local:vehicles-compact`?"),
            "{err}"
        );

        assert!(SiteLocator::parse("").is_err());
        assert!(SiteLocator::parse("http://").is_err());
        assert!(SiteLocator::parse("http://host:1/path").is_err());
        assert!(SiteLocator::parse("replay:").is_err());
        assert!(SiteLocator::parse("local:").is_err());
        assert!(SiteLocator::parse("local:has space").is_err());
        assert!(SiteLocator::parse("local:x?").is_err());
        assert!(SiteLocator::parse("local:x?=1").is_err());
    }

    #[test]
    fn display_round_trips() {
        for s in [
            "local:vehicles-compact?n=8000&k=250&seed=7",
            "local:boolean",
            "local:boolean?latency=40&chaos=seed=7,fail=0.1,slow=400x50",
            "local:boolean?l2=runs%2Fhist%26more",
            "http://127.0.0.1:8080",
            "replay:runs/tape.jsonl",
            "replay:C%3A/odd path.jsonl",
        ] {
            let loc = SiteLocator::parse(s).unwrap();
            let printed = loc.to_string();
            assert_eq!(SiteLocator::parse(&printed).unwrap(), loc, "{s}");
        }
        // Canonical forms print verbatim, a chaos spec included.
        for s in [
            "local:boolean?n=100",
            "local:boolean?chaos=seed=7,throttle=0.2&latency=40",
        ] {
            assert_eq!(SiteLocator::parse(s).unwrap().to_string(), s);
        }
    }
}
