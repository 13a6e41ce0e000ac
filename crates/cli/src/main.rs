//! The HDSampler command-line front end — the demo's web UI (Figures 3
//! and 4) translated to a terminal: pick a data source, pin attribute
//! bindings, set the efficiency ↔ skew slider and a sample target, watch
//! histograms refresh incrementally, and pose aggregate queries.
//!
//! Every command names its site with one locator (`local:…`, `http://…`,
//! `replay:…`):
//!
//! ```text
//! hdsampler describe  local:vehicles-compact
//! hdsampler sample    "local:vehicles-full?n=20000" --samples 300 --slider 0.4 \
//!                     --bind condition=used --histogram make --histogram year
//! hdsampler aggregate "local:vehicles-compact?n=5000" --samples 400 \
//!                     --proportion make=Toyota --avg price_usd
//! hdsampler validate  "local:vehicles-compact?n=5000" --samples 400 --attr make
//! hdsampler multi-site --site "local:vehicles-compact?seed=1&latency=50" \
//!                     --site "local:vehicles-compact?seed=2&latency=250&chaos=seed=2,throttle=0.2" \
//!                     --walkers 4 --samples 100 --steal
//! hdsampler serve     "local:vehicles-compact?n=8000&k=250" --port 8000
//! hdsampler sample    http://127.0.0.1:8000 --samples 200
//! ```

mod args;
mod commands;
mod display;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match args::parse(&argv) {
        Ok(cmd) => match commands::run(cmd) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        },
        Err(msg) => {
            eprintln!("error: {msg}\n");
            eprintln!("{}", args::USAGE);
            ExitCode::from(2)
        }
    }
}
