//! Shared command-line argument parsing for every `tps` subcommand.
//!
//! All four subcommands (`run`, `profile`, `fleet`, `sweep`) accept the
//! same grammar: positional operands plus `--flag value` and
//! `--flag=value` spellings interchangeably. [`CliArgs::parse`] validates
//! the flag names and positional count up front so each subcommand only
//! deals with typed lookups.

use std::fmt::Display;
use std::str::FromStr;

/// Parsed subcommand arguments: positionals in order plus `(flag, value)`
/// pairs (later duplicates override earlier ones, shell-style).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliArgs {
    positionals: Vec<String>,
    flags: Vec<(String, String)>,
}

impl CliArgs {
    /// Parses `args`, accepting both `--flag value` and `--flag=value`.
    ///
    /// `known` is the set of flag names (without `--`) the subcommand
    /// understands; `max_positionals` bounds the bare operands. Anything
    /// else is an error naming the offender and the alternatives.
    pub fn parse(args: &[String], known: &[&str], max_positionals: usize) -> Result<Self, String> {
        Self::parse_with_switches(args, known, &[], max_positionals)
    }

    /// [`parse`](Self::parse), plus bare boolean `switches`: a switch
    /// given as `--name` takes no value and reads back as `"true"`
    /// (`--name=false` still works for an explicit off).
    pub fn parse_with_switches(
        args: &[String],
        known: &[&str],
        switches: &[&str],
        max_positionals: usize,
    ) -> Result<Self, String> {
        let mut out = Self {
            positionals: Vec::new(),
            flags: Vec::new(),
        };
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            i += 1;
            let Some(stripped) = arg.strip_prefix("--") else {
                if out.positionals.len() >= max_positionals {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                out.positionals.push(arg.clone());
                continue;
            };
            let (flag, value) = match stripped.split_once('=') {
                Some((f, v)) => (f.to_owned(), v.to_owned()),
                None if switches.contains(&stripped) => (stripped.to_owned(), "true".to_owned()),
                None => {
                    let value = args
                        .get(i)
                        .ok_or_else(|| format!("flag `--{stripped}` is missing its value"))?;
                    i += 1;
                    (stripped.to_owned(), value.clone())
                }
            };
            if !known.contains(&flag.as_str()) && !switches.contains(&flag.as_str()) {
                let all: Vec<&str> = known.iter().chain(switches).copied().collect();
                return Err(if all.is_empty() {
                    format!("unknown flag `--{flag}` (this subcommand takes no flags)")
                } else {
                    format!(
                        "unknown flag `--{flag}` (expected one of: --{})",
                        all.join(", --")
                    )
                });
            }
            out.flags.push((flag, value));
        }
        Ok(out)
    }

    /// The `i`-th positional operand.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// The raw value of `flag`, if given (last occurrence wins).
    pub fn flag(&self, name: &str) -> Option<&str> {
        self.flag_at(name).map(|(_, value)| value)
    }

    /// The value of `flag` and its position on the command line (1-based,
    /// counting flags), if given (last occurrence wins).
    pub fn flag_at(&self, name: &str) -> Option<(usize, &str)> {
        let i = self.flags.iter().rposition(|(f, _)| f == name)?;
        Some((i + 1, self.flags[i].1.as_str()))
    }

    /// The flag and value at a [`flag_at`](Self::flag_at) position.
    pub fn flag_by_position(&self, position: usize) -> Option<(&str, &str)> {
        let (flag, value) = self.flags.get(position.checked_sub(1)?)?;
        Some((flag, value))
    }

    /// The value of `flag`, or `default` when absent.
    pub fn flag_or<'a>(&'a self, name: &str, default: &'a str) -> &'a str {
        self.flag(name).unwrap_or(default)
    }

    /// Parses `flag` into `T`, or returns `default` when absent.
    ///
    /// # Errors
    ///
    /// Maps a parse failure to `invalid --flag value: …`.
    pub fn parsed<T>(&self, name: &str, default: T) -> Result<T, String>
    where
        T: FromStr,
        T::Err: Display,
    {
        match self.flag(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|e| format!("invalid --{name} value: {e}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn both_flag_spellings_parse_identically() {
        let a = CliArgs::parse(&strs(&["--jobs", "50", "--seed=9"]), &["jobs", "seed"], 0).unwrap();
        let b = CliArgs::parse(&strs(&["--jobs=50", "--seed", "9"]), &["jobs", "seed"], 0).unwrap();
        assert_eq!(a.flag("jobs"), Some("50"));
        assert_eq!(a.flag("seed"), Some("9"));
        assert_eq!(a.flag("jobs"), b.flag("jobs"));
        assert_eq!(a.flag("seed"), b.flag("seed"));
    }

    #[test]
    fn positionals_and_flags_interleave() {
        let a = CliArgs::parse(
            &strs(&["--qos=1x", "x264", "--pitch", "2.0"]),
            &["qos", "pitch"],
            1,
        )
        .unwrap();
        assert_eq!(a.positional(0), Some("x264"));
        assert_eq!(a.positional(1), None);
        assert_eq!(a.flag("qos"), Some("1x"));
        assert_eq!(a.flag_or("pitch", "1.0"), "2.0");
        assert_eq!(a.flag_or("absent", "d"), "d");
    }

    #[test]
    fn bare_switches_need_no_value_and_read_back_true() {
        let a = CliArgs::parse_with_switches(
            &strs(&["--stats", "--jobs", "5"]),
            &["jobs"],
            &["stats"],
            0,
        )
        .unwrap();
        assert_eq!(a.flag("stats"), Some("true"));
        assert_eq!(a.parsed("stats", false), Ok(true));
        assert_eq!(a.flag("jobs"), Some("5"));

        // Explicit `=false` still turns a switch off.
        let b =
            CliArgs::parse_with_switches(&strs(&["--stats=false"]), &[], &["stats"], 0).unwrap();
        assert_eq!(b.parsed("stats", true), Ok(false));

        // Absent switch falls back to the default.
        let c = CliArgs::parse_with_switches(&strs(&[]), &[], &["stats"], 0).unwrap();
        assert_eq!(c.parsed("stats", false), Ok(false));

        // Switch names appear in the unknown-flag suggestions.
        let e = CliArgs::parse_with_switches(&strs(&["--bogus=1"]), &["jobs"], &["stats"], 0)
            .unwrap_err();
        assert!(e.contains("--stats"), "{e}");
    }

    #[test]
    fn unknown_flags_and_extra_positionals_are_rejected() {
        let e = CliArgs::parse(&strs(&["--bogus=1"]), &["jobs"], 0).unwrap_err();
        assert!(e.contains("unknown flag `--bogus`"), "{e}");
        assert!(e.contains("--jobs"), "{e}");

        let e = CliArgs::parse(&strs(&["a", "b"]), &[], 1).unwrap_err();
        assert!(e.contains("unexpected argument `b`"), "{e}");

        let e = CliArgs::parse(&strs(&["--x=1"]), &[], 0).unwrap_err();
        assert!(e.contains("takes no flags"), "{e}");
    }

    #[test]
    fn missing_value_is_an_error() {
        let e = CliArgs::parse(&strs(&["--jobs"]), &["jobs"], 0).unwrap_err();
        assert!(e.contains("`--jobs` is missing its value"), "{e}");
    }

    #[test]
    fn parsed_converts_and_reports_bad_values() {
        let a = CliArgs::parse(&strs(&["--jobs=50"]), &["jobs"], 0).unwrap();
        assert_eq!(a.parsed("jobs", 10usize).unwrap(), 50);
        assert_eq!(a.parsed("seed", 42u64).unwrap(), 42);

        let a = CliArgs::parse(&strs(&["--jobs=many"]), &["jobs"], 0).unwrap();
        let e = a.parsed("jobs", 10usize).unwrap_err();
        assert!(e.contains("invalid --jobs value"), "{e}");
    }

    #[test]
    fn last_duplicate_wins() {
        let a = CliArgs::parse(&strs(&["--jobs=1", "--jobs=2"]), &["jobs"], 0).unwrap();
        assert_eq!(a.flag("jobs"), Some("2"));
        assert_eq!(a.flag_at("jobs"), Some((2, "2")));
        assert_eq!(a.flag_by_position(2), Some(("jobs", "2")));
        assert_eq!(a.flag_by_position(0), None);
        assert_eq!(a.flag_by_position(3), None);
    }
}
