//! Strict command-line parsing for every binary: the figure binaries and
//! `perf_report` (through [`crate::HarnessArgs`]) and the tools
//! (`trace_tool`, `check_tool`, `store_tool`, `nsf-explore`).
//!
//! Silently mis-parsing a flag is how `--engine` (no value) once
//! recorded a trace under an empty engine spec, `--a --b nsf:40` once
//! swallowed `--b` as the value of `--a`, and `table1 --scael 0` once ran
//! at scale 1. This parser rejects all three: every declared flag must
//! receive a value, a value is never allowed to look like a flag, and
//! unknown flags are errors, so typos fail loudly with usage (exit 64)
//! instead of being ignored.

use std::fmt;

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
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::MissingValue(flag) => write!(f, "--{flag} needs a value"),
            CliError::UnknownFlag(flag) => write!(f, "unknown flag --{flag}"),
            CliError::Unexpected(arg) => write!(f, "unexpected argument {arg:?}"),
            CliError::BadValue { flag, value } => write!(f, "bad --{flag} value {value:?}"),
            CliError::Conflict { a, b } => {
                write!(f, "--{a} and --{b} contradict each other")
            }
            CliError::Repeated(flag) => {
                write!(f, "--{flag} given more than once")
            }
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
        match self.flag(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| CliError::BadValue {
                flag: name.to_string(),
                value: v.to_string(),
            }),
        }
    }
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
