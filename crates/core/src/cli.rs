//! The one command-line front end every binary in the workspace uses.
//!
//! A binary declares a table of [`Flag`]s over its own options struct;
//! [`parse`] and [`usage`] are both driven by that table, so adding a
//! flag is one entry.  A value flag names how its argument is checked
//! (a `fn(flag name, value) -> Result<T, String>` such as [`positive`]
//! or [`path`]) apart from where the checked value lands, so the error
//! text always names the flag that was typed.  Parsing is pure — it returns a [`CliError`]
//! instead of exiting — and [`exit_on`] is the single place the
//! conventions live:
//!
//! * `--help` / `-h` anywhere on the command line prints the usage to
//!   **stdout** and exits **0**;
//! * a usage error (unknown flag, missing or out-of-range value, bad
//!   operand) prints `error: …` plus the usage to stderr and exits
//!   **2**; so does a store or address that cannot be opened at
//!   start-up, without the usage ([`reject`]);
//! * a failure after start-up (I/O, measurement, a violated gate)
//!   prints `error: …` and exits **1** ([`fail`]).
//!
//! A repeated flag overwrites the earlier value (last wins).

use std::fmt::{Display, Write as _};
use std::path::PathBuf;
use std::str::FromStr;

/// Why [`parse`] did not produce options.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--help` / `-h` was given.
    Help,
    /// The command line is malformed; the message names how.
    Usage(String),
}

/// What a flag does when it appears.
enum Action<O> {
    /// Takes no value.
    Switch(fn(&mut O)),
    /// Consumes the next argument; the placeholder names it in usage.
    Value(&'static str, ValueFn<O>),
}

type ValueFn<O> = Box<dyn Fn(&mut O, &str) -> Result<(), String>>;

/// One command-line flag over the options struct `O`: its name, help
/// line, and how it lands in `O`.
pub struct Flag<O> {
    name: &'static str,
    short: Option<&'static str>,
    help: &'static str,
    action: Action<O>,
}

impl<O> Flag<O> {
    /// A flag that takes no value.
    pub fn switch(name: &'static str, help: &'static str, set: fn(&mut O)) -> Self {
        Self {
            name,
            short: None,
            help,
            action: Action::Switch(set),
        }
    }

    /// A flag that consumes the next argument, shown as `metavar`:
    /// `check(name, argument)` validates it, `set` stores the result.
    pub fn value<T: 'static>(
        name: &'static str,
        metavar: &'static str,
        help: &'static str,
        check: fn(&str, &str) -> Result<T, String>,
        set: fn(&mut O, T),
    ) -> Self
    where
        O: 'static,
    {
        let apply = move |opts: &mut O, v: &str| check(name, v).map(|value| set(opts, value));
        Self {
            name,
            short: None,
            help,
            action: Action::Value(metavar, Box::new(apply)),
        }
    }

    /// Also accept a one-dash spelling (`-o` for `--out`).
    pub fn short(mut self, short: &'static str) -> Self {
        self.short = Some(short);
        self
    }

    /// Replace the help line (a shared flag reworded for one binary).
    pub fn help(mut self, help: &'static str) -> Self {
        self.help = help;
        self
    }
}

/// Parse `args` (without the program name) against `flags`; arguments
/// that are not flags go to `positional` in order.
pub fn parse<O: Default>(
    args: &[String],
    flags: &[Flag<O>],
    mut positional: impl FnMut(&mut O, &str) -> Result<(), String>,
) -> Result<O, CliError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(CliError::Help);
    }
    let mut opts = O::default();
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        match flags.iter().find(|f| f.name == arg || f.short == Some(arg)) {
            Some(flag) => match &flag.action {
                Action::Switch(set) => set(&mut opts),
                Action::Value(_, apply) => {
                    let value = rest
                        .next()
                        .ok_or_else(|| CliError::Usage(format!("{arg} needs a value")))?;
                    apply(&mut opts, value).map_err(CliError::Usage)?;
                }
            },
            None if arg.starts_with('-') => {
                return Err(CliError::Usage(format!("unknown flag '{arg}'")));
            }
            None => positional(&mut opts, arg).map_err(CliError::Usage)?,
        }
    }
    Ok(opts)
}

/// The `positional` handler of a binary that takes flags only.
pub fn no_positional<O>(_: &mut O, arg: &str) -> Result<(), String> {
    Err(format!("unknown argument '{arg}'"))
}

/// Split `COMMAND ARGS...`; help anywhere wins over the command.
pub fn subcommand(args: &[String]) -> Result<(&str, &[String]), CliError> {
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return Err(CliError::Help);
    }
    match args.split_first() {
        Some((command, rest)) => Ok((command, rest)),
        None => Err(CliError::Usage("a command is required".to_string())),
    }
}

/// `header` followed by one `  --flag VALUE   help` row per flag, the
/// flag column padded to `width`.
pub fn usage<O>(header: &str, flags: &[Flag<O>], width: usize) -> String {
    let mut out = String::from(header);
    for f in flags {
        let mut head = String::new();
        if let Some(short) = f.short {
            let _ = write!(head, "{short}, ");
        }
        head.push_str(f.name);
        if let Action::Value(metavar, _) = &f.action {
            let _ = write!(head, " {metavar}");
        }
        let _ = writeln!(out, "  {head:<width$} {}", f.help);
    }
    out
}

/// Unwrap a parse result or end the process the conventional way:
/// help → usage on stdout, exit 0; usage error → `error: …` and the
/// usage on stderr, exit 2.  The usage is rendered only when shown.
pub fn exit_on<T>(result: Result<T, CliError>, usage: impl FnOnce() -> String) -> T {
    match result {
        Ok(value) => value,
        Err(CliError::Help) => {
            print!("{}", usage());
            std::process::exit(0);
        }
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}");
            eprint!("{}", usage());
            std::process::exit(2);
        }
    }
}

/// Reject an invocation whose syntax is fine but which cannot start
/// (a store or address that will not open): `error: …`, exit 2.
pub fn reject(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

/// Report a failure after start-up and exit 1.
pub fn fail(msg: impl Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

/// A path-valued flag: any argument is a path.
pub fn path(_name: &str, v: &str) -> Result<PathBuf, String> {
    Ok(PathBuf::from(v))
}

/// A free-text flag value.
pub fn text(_name: &str, v: &str) -> Result<String, String> {
    Ok(v.to_string())
}

/// A flag value whose type explains its own syntax errors.
pub fn spec<T: FromStr<Err = String>>(_name: &str, v: &str) -> Result<T, String> {
    v.parse()
}

/// Parse a flag value of any `FromStr` type.
pub fn number<T: FromStr>(name: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad {name} value '{v}'"))
}

/// Parse an integer flag value that must be at least 1.
pub fn positive(name: &str, v: &str) -> Result<usize, String> {
    match number(name, v)? {
        0 => Err(format!("{name} must be at least 1")),
        n => Ok(n),
    }
}

/// Parse a float flag value, rejecting NaN and infinities.
pub fn finite(name: &str, v: &str) -> Result<f64, String> {
    let x: f64 = number(name, v)?;
    if !x.is_finite() {
        return Err(format!("{name} must be finite, got '{v}'"));
    }
    Ok(x)
}
