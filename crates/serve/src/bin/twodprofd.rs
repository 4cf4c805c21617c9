//! `twodprofd` — the streaming 2D-profile ingestion daemon.
//!
//! Run `twodprofd --help` for the full flag list: listen address, session
//! limits and timeouts, sharding and spill, streaming, the `--compute`
//! fabric service, and the observability plane.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match twodprof_serve::cli::serve_main(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("{msg}");
            ExitCode::FAILURE
        }
    }
}
