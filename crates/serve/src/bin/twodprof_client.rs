//! `twodprof-client` — replays a workload's branch stream against a live
//! `twodprofd`, queries its metrics and flight recorder, follows or drives
//! a program's streaming verdicts, soaks it with sessions, or watches a
//! fleet with `top`.
//!
//! Run `twodprof-client --help` for the subcommands and
//! `twodprof-client SUBCOMMAND --help` for each one's flags.

use std::process::ExitCode;
use twodprof_serve::cli;

fn main() -> ExitCode {
    cli::dispatch("twodprof-client", cli::CLIENT_SUBCOMMANDS, None)
}
