//! Strict command-line parsing and the one front door of every binary:
//! the figure binaries and `perf_report` (through [`crate::HarnessArgs`])
//! and the tools (`trace_tool`, `check_tool`, `store_tool`, `nsf-explore`).
//!
//! Silently mis-parsing a flag is how `--engine` (no value) once
//! recorded a trace under an empty engine spec, `--a --b nsf:40` once
//! swallowed `--b` as the value of `--a`, and `table1 --scael 0` once ran
//! at scale 1. This parser rejects all three: every declared flag must
//! receive a value, a value is never allowed to look like a flag, and
//! unknown flags are errors, so typos fail loudly with usage (exit 64)
//! instead of being ignored.
//!
//! A tool declares one [`Command`] table; [`tool_main`] does the lookup,
//! the strict parse and the operand check, and one exit rule: 0
//! success, 1 findings, 2 a runtime error, 64 a rejected command line
//! (with usage).

use std::fmt;
use std::process::ExitCode;

/// What a tool subcommand accepts: flags that take a value, and boolean
/// switches.
#[derive(Clone, Copy, Debug, Default)]
pub struct CliSpec {
    /// Flags written `--name VALUE`. Giving one twice is
    /// [`CliError::Repeated`] unless it is also listed in
    /// [`CliSpec::repeatable`] — `--scale 0 --scale 1` has no sane
    /// precedence rule, exactly like a contradictory switch pair.
    pub value_flags: &'static [&'static str],
    /// Flags written `--name` with no value. Repeating a switch is
    /// idempotent and stays allowed.
    pub switches: &'static [&'static str],
    /// The subset of [`CliSpec::value_flags`] where repetition is
    /// meaningful (`--engine A --engine B` replays through both);
    /// `flag_all` sees every occurrence in order.
    pub repeatable: &'static [&'static str],
}

impl CliSpec {
    /// Value flags only: no switches, none repeatable.
    pub const fn values(value_flags: &'static [&'static str]) -> Self {
        CliSpec {
            value_flags,
            switches: &[],
            repeatable: &[],
        }
    }
}

/// A rejected command line, with the offending token.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CliError {
    /// `--flag` was last, or was followed by another `--flag`.
    MissingValue(String),
    /// A `--flag` the subcommand does not declare.
    UnknownFlag(String),
    /// A positional operand where the command takes none.
    Unexpected(String),
    /// A flag value that failed to parse (`--scale x`).
    BadValue {
        /// The flag whose value was rejected.
        flag: String,
        /// The rejected text.
        value: String,
    },
    /// Two mutually exclusive switches were both given
    /// (`--store --no-store`).
    Conflict {
        /// The first switch.
        a: String,
        /// The contradicting switch.
        b: String,
    },
    /// A single-occurrence value flag was given more than once
    /// (`--scale 0 --scale 1`).
    Repeated(String),
    /// A required flag or FILE operand was not given.
    Missing(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag --{flag}"),
            CliError::Unexpected(arg) => write!(f, "unexpected argument {arg:?}"),
            CliError::BadValue { flag, value } => write!(f, "bad --{flag} value {value:?}"),
            CliError::Conflict { a, b } => write!(f, "--{a} and --{b} contradict each other"),
            CliError::Repeated(flag) => write!(f, "--{flag} given more than once"),
            CliError::Missing(what) => write!(f, "missing {what}"),
        }
    }
}

impl std::error::Error for CliError {}

/// Parsed arguments: positional operands plus every `--flag value`
/// occurrence in order (declared-repeatable flags may repeat;
/// `flag_all` sees them all).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CliArgs {
    positional: Vec<String>,
    flags: Vec<(String, String)>,
    switches: Vec<String>,
}

impl CliArgs {
    /// Parses `raw` against `spec`. Tokens starting with `--` must be
    /// declared flags; a value flag consumes the next token, which must
    /// exist and must not itself start with `--`.
    pub fn parse(raw: &[String], spec: &CliSpec) -> Result<Self, CliError> {
        let mut out = CliArgs::default();
        let mut it = raw.iter().peekable();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                out.positional.push(a.clone());
                continue;
            };
            if spec.switches.contains(&name) {
                out.switches.push(name.to_string());
            } else if spec.value_flags.contains(&name) {
                match it.peek() {
                    Some(v) if !v.starts_with("--") => {
                        let v = it.next().expect("just peeked");
                        if !spec.repeatable.contains(&name)
                            && out.flags.iter().any(|(n, _)| n == name)
                        {
                            return Err(CliError::Repeated(name.to_string()));
                        }
                        out.flags.push((name.to_string(), v.clone()));
                    }
                    _ => return Err(CliError::MissingValue(name.to_string())),
                }
            } else {
                return Err(CliError::UnknownFlag(name.to_string()));
            }
        }
        Ok(out)
    }

    /// Positional operands, in order.
    pub fn positional(&self) -> &[String] {
        &self.positional
    }

    /// The value of the first `--name` occurrence.
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every value given for `--name`, in order.
    pub fn flag_all(&self, name: &str) -> Vec<&str> {
        self.flags
            .iter()
            .filter(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
            .collect()
    }

    /// Whether the boolean switch `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.switches.iter().any(|s| s == name)
    }

    /// The first `--name` value parsed as `T`, or `default` when absent.
    /// Unparseable values are [`CliError::BadValue`], not defaults — a
    /// mistyped `--scale` must not silently run the wrong experiment.
    pub fn parsed_or<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, CliError> {
        Ok(self.parsed(name)?.unwrap_or(default))
    }

    /// The first `--name` value parsed as `T`, or `None` when absent;
    /// unparseable values are [`CliError::BadValue`].
    pub fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, CliError> {
        self.flag(name)
            .map(|v| v.parse().map_err(|_| bad_value(name, v)))
            .transpose()
    }

    /// The value of `--name`, which the command cannot run without.
    pub fn required(&self, name: &str) -> Result<&str, CliError> {
        self.flag(name)
            .ok_or_else(|| CliError::Missing(format!("--{name}")))
    }

    /// `--scale N` (or `default`), at most [`nsf_workloads::MAX_SCALE`]:
    /// the builders multiply it into input sizes.
    pub fn scale(&self, default: u32) -> Result<u32, CliError> {
        let scale = self.parsed_or("scale", default)?;
        if scale > nsf_workloads::MAX_SCALE {
            return Err(bad_value("scale", &scale.to_string()));
        }
        Ok(scale)
    }

    /// `--threads N`, or `default`; 0 clamps to 1.
    pub fn threads(&self, default: usize) -> Result<usize, CliError> {
        Ok(self.parsed_or("threads", default)?.max(1))
    }

    /// Whether the stream store is on: yes unless `--no-store`.
    pub fn store(&self) -> Result<bool, CliError> {
        if self.switch("store") && self.switch("no-store") {
            return Err(CliError::Conflict {
                a: "store".into(),
                b: "no-store".into(),
            });
        }
        Ok(!self.switch("no-store"))
    }

    /// Checks the positional operands against what the command takes.
    pub fn check_operands(&self, operands: Operands) -> Result<(), CliError> {
        match (operands, self.positional.as_slice()) {
            (Operands::None, [stray, ..]) | (Operands::File, [_, stray, ..]) => {
                Err(CliError::Unexpected(stray.clone()))
            }
            (Operands::File | Operands::Files, []) => Err(CliError::Missing("FILE operand".into())),
            _ => Ok(()),
        }
    }
}

/// A [`CliError::BadValue`] for `--flag value`.
pub fn bad_value(flag: &str, value: &str) -> CliError {
    CliError::BadValue {
        flag: flag.to_string(),
        value: value.to_string(),
    }
}

/// The positional operands a command takes: none, one FILE, or one or
/// more FILEs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Operands {
    None,
    File,
    Files,
}

/// Why a command failed, which fixes the exit status.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ToolError {
    /// A rejected command line: exit 64, with usage.
    Usage(String),
    /// A failure while running (an unreadable file, an unbuildable
    /// engine spec): exit 2.
    Runtime(String),
    /// Findings already reported (`check_tool`'s divergences): exit 1.
    Findings,
}

impl From<CliError> for ToolError {
    fn from(e: CliError) -> Self {
        ToolError::Usage(e.to_string())
    }
}

impl From<String> for ToolError {
    fn from(msg: String) -> Self {
        ToolError::Runtime(msg)
    }
}

/// One subcommand of a tool binary: its name, flags, operands and
/// handler.
pub struct Command {
    pub name: &'static str,
    pub spec: CliSpec,
    pub operands: Operands,
    pub run: fn(&CliArgs) -> Result<(), ToolError>,
}

impl Command {
    fn dispatch(&self, raw: &[String]) -> Result<(), ToolError> {
        let args = CliArgs::parse(raw, &self.spec)?;
        args.check_operands(self.operands)?;
        (self.run)(&args)
    }
}

/// The `main` of `tool COMMAND [ARGS]`.
pub fn tool_main(tool: &str, usage: &str, commands: &[Command]) -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = match raw.split_first() {
        None => Err(ToolError::Usage("missing command".into())),
        Some((name, rest)) => match commands.iter().find(|c| c.name == name) {
            Some(cmd) => cmd.dispatch(rest),
            None => Err(ToolError::Usage(format!("unknown command {name:?}"))),
        },
    };
    exit_status(tool, usage, result)
}

/// The `main` of a tool with no subcommands.
pub fn command_main(tool: &str, usage: &str, command: &Command) -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    exit_status(tool, usage, command.dispatch(&raw))
}

fn exit_status(tool: &str, usage: &str, result: Result<(), ToolError>) -> ExitCode {
    let (code, msg) = match result {
        Ok(()) => return ExitCode::SUCCESS,
        Err(ToolError::Findings) => return ExitCode::from(1),
        Err(ToolError::Runtime(msg)) => (2, msg),
        Err(ToolError::Usage(msg)) => (64, format!("{msg}\n{usage}")),
    };
    eprintln!("{tool}: {msg}");
    ExitCode::from(code)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: CliSpec = CliSpec {
        value_flags: &["engine", "scale", "a", "b"],
        switches: &["quiet"],
        repeatable: &["engine"],
    };

    fn parse(tokens: &[&str]) -> Result<CliArgs, CliError> {
        let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        CliArgs::parse(&raw, &SPEC)
    }

    #[test]
    fn positional_flags_and_switches() {
        let a = parse(&["file.nsftrace", "--engine", "nsf:80", "--quiet"]).unwrap();
        assert_eq!(a.positional(), ["file.nsftrace"]);
        assert_eq!(a.flag("engine"), Some("nsf:80"));
        assert!(a.switch("quiet"));
        assert!(!a.switch("engine"));
        assert_eq!(a.flag("scale"), None);
    }

    #[test]
    fn repeatable_flags_accumulate_in_order() {
        let a = parse(&["--engine", "nsf:80", "--engine", "oracle"]).unwrap();
        assert_eq!(a.flag("engine"), Some("nsf:80"));
        assert_eq!(a.flag_all("engine"), ["nsf:80", "oracle"]);
    }

    #[test]
    fn duplicate_single_occurrence_flag_errors() {
        // `--scale 0 --scale 1` has no sane precedence rule: reject it,
        // exactly like a contradictory switch pair.
        assert_eq!(
            parse(&["--scale", "0", "--scale", "1"]),
            Err(CliError::Repeated("scale".into()))
        );
        // Even repeating the same value is rejected — uniformity beats
        // cleverness in an error path.
        assert_eq!(
            parse(&["--scale", "1", "--quiet", "--scale", "1"]),
            Err(CliError::Repeated("scale".into()))
        );
        // Repeated switches stay idempotent.
        assert!(parse(&["--quiet", "--quiet"]).unwrap().switch("quiet"));
    }

    #[test]
    fn trailing_flag_without_value_errors() {
        // The historical parser turned this into an empty-string value.
        assert_eq!(
            parse(&["--engine"]),
            Err(CliError::MissingValue("engine".into()))
        );
    }

    #[test]
    fn flag_followed_by_flag_errors() {
        // ...and this swallowed `--b` as the *value* of `--a`.
        assert_eq!(
            parse(&["--a", "--b", "nsf:40"]),
            Err(CliError::MissingValue("a".into()))
        );
    }

    #[test]
    fn unknown_flag_errors() {
        assert_eq!(
            parse(&["--engnie", "nsf:80"]),
            Err(CliError::UnknownFlag("engnie".into()))
        );
    }

    #[test]
    fn parsed_or_defaults_and_rejects() {
        let a = parse(&["--scale", "2"]).unwrap();
        assert_eq!(a.parsed_or("scale", 1u32).unwrap(), 2);
        let d = parse(&[]).unwrap();
        assert_eq!(d.parsed_or("scale", 1u32).unwrap(), 1);
        let bad = parse(&["--scale", "x"]).unwrap();
        assert_eq!(
            bad.parsed_or("scale", 1u32),
            Err(CliError::BadValue {
                flag: "scale".into(),
                value: "x".into()
            })
        );
    }

    #[test]
    fn operands_are_checked_against_the_command() {
        let a = parse(&["f1", "f2"]).unwrap();
        assert_eq!(
            a.check_operands(Operands::None),
            Err(CliError::Unexpected("f1".into()))
        );
        assert_eq!(
            a.check_operands(Operands::File),
            Err(CliError::Unexpected("f2".into()))
        );
        assert_eq!(a.check_operands(Operands::Files), Ok(()));
        let none = parse(&["--quiet"]).unwrap();
        assert_eq!(none.check_operands(Operands::None), Ok(()));
        for needs_file in [Operands::File, Operands::Files] {
            assert_eq!(
                none.check_operands(needs_file),
                Err(CliError::Missing("FILE operand".into()))
            );
        }
        assert_eq!(
            none.required("engine"),
            Err(CliError::Missing("--engine".into()))
        );
    }

    #[test]
    fn shared_scale_threads_and_store_parsers() {
        const SPEC: CliSpec = CliSpec {
            value_flags: &["scale", "threads"],
            switches: &["store", "no-store"],
            repeatable: &[],
        };
        let parse = |tokens: &[&str]| {
            let raw: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
            CliArgs::parse(&raw, &SPEC).unwrap()
        };
        let d = parse(&[]);
        assert_eq!(
            (d.scale(1), d.threads(3), d.store()),
            (Ok(1), Ok(3), Ok(true))
        );
        let max = nsf_workloads::MAX_SCALE.to_string();
        assert_eq!(
            parse(&["--scale", &max]).scale(1),
            Ok(nsf_workloads::MAX_SCALE)
        );
        let past = (nsf_workloads::MAX_SCALE + 1).to_string();
        assert_eq!(
            parse(&["--scale", &past]).scale(1),
            Err(bad_value("scale", &past))
        );
        assert_eq!(parse(&["--threads", "0"]).threads(4), Ok(1));
        assert_eq!(
            parse(&["--threads", "-1"]).threads(4),
            Err(bad_value("threads", "-1"))
        );
        assert_eq!(parse(&["--no-store"]).store(), Ok(false));
        assert!(matches!(
            parse(&["--store", "--no-store"]).store(),
            Err(CliError::Conflict { .. })
        ));
    }

    #[test]
    fn errors_render_the_offender() {
        assert_eq!(
            CliError::MissingValue("engine".into()).to_string(),
            "--engine needs a value"
        );
        assert!(CliError::UnknownFlag("x".into())
            .to_string()
            .contains("--x"));
        assert!(CliError::BadValue {
            flag: "scale".into(),
            value: "x".into()
        }
        .to_string()
        .contains("\"x\""));
        let c = CliError::Conflict {
            a: "store".into(),
            b: "no-store".into(),
        }
        .to_string();
        assert!(c.contains("--store") && c.contains("--no-store"));
    }
}
