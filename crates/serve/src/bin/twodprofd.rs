//! `twodprofd` — the streaming 2D-profile ingestion daemon.
//!
//! Run `twodprofd --help` for the full flag list: listen address, session
//! limits and timeouts, sharding and spill, streaming, the `--compute`
//! fabric service, and the observability plane.

use std::process::ExitCode;

fn main() -> ExitCode {
    // no subcommands: every argument goes to the daemon's entry point
    twodprof_serve::cli::dispatch("twodprofd", &[], Some(twodprof_serve::cli::serve_main))
}
