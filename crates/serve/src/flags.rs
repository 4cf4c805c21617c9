//! Table-driven command-line parsing for every entry point of the
//! `twodprofd`, `twodprof-client` and `repro` binaries: a command declares
//! its flags once as a [`Command`], and the same table parses the
//! arguments and renders `--help`, so the two cannot drift apart.

use std::fmt::Write as _;
use std::str::FromStr;
use std::time::Duration;
use twodprof_core::SliceConfig;

/// One accepted flag: its spelling, the metavariable naming its value
/// (`None` for a switch), and a one-line description for `--help`.
#[derive(Clone, Copy, Debug)]
pub struct Flag {
    name: &'static str,
    metavar: Option<&'static str>,
    help: &'static str,
}

/// A flag that takes the next argument as its value.
pub const fn flag(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar: Some(metavar),
        help,
    }
}

/// A flag that takes no value.
pub const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        metavar: None,
        help,
    }
}

/// A command's parse table. `--help` and `-h` are implied.
#[derive(Clone, Copy, Debug)]
pub struct Command<'a> {
    /// The invocation shown in the usage line, e.g. `twodprof-client watch`.
    pub name: &'a str,
    /// Positional names, in order, each required; a last name ending in
    /// `...` takes zero or more arguments instead.
    pub positionals: &'a [&'a str],
    /// Text printed under the usage line.
    pub about: &'a str,
    /// Every accepted flag.
    pub flags: &'a [Flag],
}

impl Command<'_> {
    /// The `--help` text, rendered from the table.
    pub fn help(&self) -> String {
        let mut out = format!("usage: {} [OPTIONS]", self.name);
        for p in self.positionals {
            let _ = match p.strip_suffix("...") {
                Some(repeated) => write!(out, " [{repeated} ...]"),
                None => write!(out, " {p}"),
            };
        }
        let spec = |f: &Flag| format!("{} {}", f.name, f.metavar.unwrap_or_default());
        let width = self.flags.iter().map(|f| spec(f).len()).max().unwrap_or(0);
        let _ = write!(out, "\n{}\noptions:", self.about);
        for f in self.flags {
            let _ = write!(out, "\n  {:<width$}  {}", spec(f), f.help);
        }
        let _ = write!(out, "\n  {:<width$}  print this help", "-h, --help");
        out
    }
}

/// Parses `args` against `cmd`. When `--help` or `-h` stands in a flag
/// position, prints the help text to stderr and exits the process with
/// status 0 instead.
///
/// # Errors
///
/// An unknown flag, a flag missing its value, or the wrong number of
/// positionals, worded for the user.
pub fn parse<'a>(cmd: &Command, args: &'a [String]) -> Result<Matches<'a>, String> {
    let mut matches = Matches::default();
    let mut rest = args.iter();
    while let Some(arg) = rest.next() {
        if arg == "--help" || arg == "-h" {
            eprintln!("{}", cmd.help());
            std::process::exit(0);
        }
        match cmd.flags.iter().find(|f| f.name == arg) {
            Some(f) if f.metavar.is_some() => {
                let value = rest
                    .next()
                    .ok_or_else(|| format!("{} needs a value", f.name))?;
                matches.flags.push((f.name, Some(value.as_str())));
            }
            Some(f) => matches.flags.push((f.name, None)),
            None if arg.starts_with('-') || cmd.positionals.is_empty() => {
                return Err(format!("unknown argument {arg:?} (try --help)"));
            }
            None => matches.positionals.push(arg),
        }
    }
    let repeated = cmd.positionals.last().is_some_and(|p| p.ends_with("..."));
    if !repeated && matches.positionals.len() != cmd.positionals.len() {
        let expected = cmd.positionals.join(" ");
        return Err(format!("expected: {} {expected} (try --help)", cmd.name));
    }
    Ok(matches)
}

/// The flags and positionals [`parse`] accepted, in command-line order.
/// Every accessor error names the flag and is worded for the user.
#[derive(Debug, Default)]
pub struct Matches<'a> {
    flags: Vec<(&'static str, Option<&'a str>)>,
    positionals: Vec<&'a str>,
}

impl<'a> Matches<'a> {
    /// The positionals, in order; [`parse`] checked their count.
    pub fn positionals(&self) -> &[&'a str] {
        &self.positionals
    }

    /// Whether the switch `name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.flags.iter().any(|&(n, _)| n == name)
    }

    /// Every value of the repeatable flag `name`, in order.
    pub fn values<'s>(&'s self, name: &'s str) -> impl Iterator<Item = &'a str> + 's {
        let given = self.flags.iter().filter(move |&&(n, _)| n == name);
        given.filter_map(|&(_, v)| v)
    }

    /// The value of `name`; the last one wins when it is repeated.
    pub fn value(&self, name: &str) -> Option<&'a str> {
        self.values(name).last()
    }

    /// The value of `name` as a number.
    pub fn numeric<T: FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        let number = |v: &str| {
            v.parse()
                .map_err(|_| format!("{name} needs a number, got {v:?}"))
        };
        self.value(name).map(number).transpose()
    }

    /// The value of `name` as a number that must be at least 1.
    pub fn at_least_one<T: FromStr + Default + PartialEq>(
        &self,
        name: &str,
    ) -> Result<Option<T>, String> {
        match self.numeric(name)? {
            Some(v) if v == T::default() => Err(format!("{name} must be at least 1")),
            v => Ok(v),
        }
    }

    /// The value of `name` as a number of milliseconds.
    pub fn millis(&self, name: &str) -> Result<Option<Duration>, String> {
        Ok(self.numeric(name)?.map(Duration::from_millis))
    }

    /// The value of `name` as a positive, finite number of seconds.
    pub fn seconds(&self, name: &str) -> Result<Option<Duration>, String> {
        match self.numeric::<f64>(name)? {
            Some(s) if !(s > 0.0 && s.is_finite()) => {
                Err(format!("{name} needs a positive number of seconds"))
            }
            s => Ok(s.map(Duration::from_secs_f64)),
        }
    }

    /// The slice geometry from a slice-length and an exec-threshold flag,
    /// which go together; the threshold must be below a positive length.
    pub fn slice(&self, len: &str, threshold: &str) -> Result<Option<SliceConfig>, String> {
        match (self.numeric(len)?, self.numeric(threshold)?) {
            (None, None) => Ok(None),
            (Some(l), Some(t)) if l > 0 && t < l => Ok(Some(SliceConfig::new(l, t))),
            (Some(_), Some(_)) => Err(format!("need {threshold} < {len} > 0")),
            _ => Err(format!("{len} and {threshold} go together")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CMD: Command = Command {
        name: "demo",
        positionals: &["A", "B"],
        about: "a demo command",
        flags: &[
            flag("--n", "N", "a number"),
            flag("--node", "HOST:PORT", "repeatable"),
            switch("--on", "a switch"),
        ],
    };

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_flags_switches_and_positionals_in_order() {
        let a = args(&[
            "x", "--n", "3", "--node", "a:1", "y", "--on", "--node", "b:2",
        ]);
        let m = parse(&CMD, &a).expect("valid");
        assert_eq!(m.positionals(), ["x", "y"]);
        assert_eq!(m.numeric::<u32>("--n"), Ok(Some(3)));
        assert!(m.switch("--on"));
        assert_eq!(m.values("--node").collect::<Vec<_>>(), ["a:1", "b:2"]);
        assert_eq!(m.value("--node"), Some("b:2"));
        // a value flag takes the next argument whatever it looks like
        let a = args(&["x", "y", "--node", "--on"]);
        let m = parse(&CMD, &a).expect("valid");
        assert_eq!(m.value("--node"), Some("--on"));
        assert!(!m.switch("--on"));
    }

    #[test]
    fn rejects_unknown_flags_missing_values_and_wrong_arity() {
        let err = |list: &[&str]| parse(&CMD, &args(list)).expect_err("must fail");
        assert_eq!(
            err(&["x", "y", "--bogus"]),
            "unknown argument \"--bogus\" (try --help)"
        );
        assert_eq!(err(&["x", "y", "--n"]), "--n needs a value");
        assert_eq!(err(&["x"]), "expected: demo A B (try --help)");
        assert_eq!(err(&["x", "y", "z"]), "expected: demo A B (try --help)");
        let none = Command {
            positionals: &[],
            ..CMD
        };
        assert_eq!(
            parse(&none, &args(&["stray"])).expect_err("no positionals"),
            "unknown argument \"stray\" (try --help)"
        );
    }

    #[test]
    fn help_is_rendered_from_the_table() {
        let help = CMD.help();
        assert!(help.starts_with("usage: demo [OPTIONS] A B\na demo command\noptions:\n"));
        assert!(
            help.contains("\n  --node HOST:PORT  repeatable\n"),
            "{help}"
        );
        assert!(help.contains("\n  --on              a switch\n"), "{help}");
        assert!(
            help.ends_with("\n  -h, --help        print this help"),
            "{help}"
        );
        let variadic = Command {
            positionals: &["EXPERIMENT..."],
            ..CMD
        };
        assert!(variadic
            .help()
            .starts_with("usage: demo [OPTIONS] [EXPERIMENT ...]"));
        assert!(parse(&variadic, &[]).is_ok(), "zero is fine");
    }

    #[test]
    fn typed_accessors_check_values() {
        let cmd = Command {
            positionals: &[],
            flags: &[flag("--a", "N", ""), flag("--b", "N", "")],
            ..CMD
        };
        let check = |list: &[&str]| {
            let a = args(list);
            let m = parse(&cmd, &a).expect("valid");
            (
                m.numeric::<u64>("--a"),
                m.at_least_one::<u64>("--a"),
                m.seconds("--a"),
                m.slice("--a", "--b"),
            )
        };
        let (num, one, secs, slice) = check(&["--a", "0"]);
        assert_eq!(num, Ok(Some(0)));
        assert_eq!(one, Err("--a must be at least 1".to_owned()));
        assert_eq!(
            secs,
            Err("--a needs a positive number of seconds".to_owned())
        );
        assert_eq!(slice, Err("--a and --b go together".to_owned()));
        let (num, _, secs, _) = check(&["--a", "x"]);
        assert_eq!(num, Err("--a needs a number, got \"x\"".to_owned()));
        assert!(secs.is_err());
        assert!(check(&["--a", "inf"]).2.is_err());
        let (_, _, secs, slice) = check(&["--a", "100", "--b", "4"]);
        assert_eq!(secs, Ok(Some(Duration::from_secs(100))));
        assert_eq!(slice, Ok(Some(SliceConfig::new(100, 4))));
        let (_, _, _, slice) = check(&["--a", "4", "--b", "4"]);
        assert_eq!(slice, Err("need --b < --a > 0".to_owned()));
        assert_eq!(check(&[]), (Ok(None), Ok(None), Ok(None), Ok(None)));
    }
}
