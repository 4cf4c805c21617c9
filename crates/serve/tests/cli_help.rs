//! The `twodprofd` and `twodprof-client` binaries: `--help` exits 0 with
//! the help text on stderr, and a usage error exits 1.

use std::process::{Command, Output};
use twodprof_serve::cli::CLIENT_SUBCOMMANDS;

const DAEMON: &str = env!("CARGO_BIN_EXE_twodprofd");
const CLIENT: &str = env!("CARGO_BIN_EXE_twodprof-client");

fn run(bin: &str, args: &[&str]) -> (Output, String) {
    let out = Command::new(bin).args(args).output().expect("run binary");
    let stderr = String::from_utf8(out.stderr.clone()).expect("utf-8 stderr");
    (out, stderr)
}

fn help(bin: &str, args: &[&str]) -> String {
    let (out, stderr) = run(bin, args);
    assert!(out.status.success(), "{args:?}: {:?}\n{stderr}", out.status);
    assert!(out.stdout.is_empty(), "{args:?}: help belongs on stderr");
    stderr
}

#[test]
fn help_exits_zero_for_the_daemon_and_every_client_subcommand() {
    let daemon = help(DAEMON, &["--help"]);
    assert!(
        daemon.starts_with("usage: twodprofd [OPTIONS]\n"),
        "{daemon}"
    );
    assert!(daemon.contains("--stats-interval SECS"), "{daemon}");
    let client = help(CLIENT, &["--help"]);
    for (name, _) in CLIENT_SUBCOMMANDS {
        assert!(client.contains(name), "{client}");
        let usage = format!("usage: twodprof-client {name} [OPTIONS]");
        let text = help(CLIENT, &[name, "-h"]);
        assert!(text.starts_with(&usage), "{text}");
        assert!(text.ends_with("print this help\n"), "{text}");
    }
}

#[test]
fn usage_errors_exit_one() {
    for (bin, args, needle) in [
        (DAEMON, &["--bogus"][..], "unknown argument \"--bogus\""),
        (
            DAEMON,
            &["--stream-window", "0"],
            "--stream-window must be at least 1",
        ),
        (CLIENT, &[], "usage: twodprof-client SUBCOMMAND"),
        (CLIENT, &["gzip", "train"], "unknown subcommand \"gzip\""),
        (
            CLIENT,
            &["watch"],
            "expected: twodprof-client watch PROGRAM",
        ),
        (
            CLIENT,
            &["top", "--interval", "0"],
            "--interval needs a positive",
        ),
    ] {
        let (out, stderr) = run(bin, args);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(needle), "{args:?}: {stderr}");
    }
}
