//! Typed command-line flag parsing shared by the example binaries.
//!
//! The discipline, applied by `examples/fleet_scale.rs` and
//! `examples/handover_serverd.rs` alike: a malformed flag never
//! panics — it surfaces as a typed [`ArgError`], and the binary prints
//! its usage line and exits with status 2 (the conventional
//! usage-error code).

use std::fmt;
use std::str::FromStr;

/// A malformed command-line argument: which flag, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArgError {
    /// The flag at fault (e.g. `--ues`).
    pub flag: String,
    /// What went wrong (missing value, parse failure, unknown choice).
    pub message: String,
}

impl ArgError {
    /// Build an error for `flag`.
    pub fn new(flag: impl Into<String>, message: impl Into<String>) -> Self {
        ArgError { flag: flag.into(), message: message.into() }
    }
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.flag, self.message)
    }
}

impl std::error::Error for ArgError {}

/// The raw string value of `--name`, if present. A flag that is last
/// on the line (or followed by another `--flag`) has a *missing*
/// value — a typed error, not a panic.
pub fn flag_value(args: &[String], name: &str) -> Result<Option<String>, ArgError> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(ArgError::new(name, "needs a value")),
        },
    }
}

/// Parse `--name value` into `T`, falling back to `default` when the
/// flag is absent. Parse failures carry the offending text.
pub fn parse_flag<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, ArgError>
where
    T::Err: fmt::Display,
{
    match flag_value(args, name)? {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|e| ArgError::new(name, format!("invalid value {text:?}: {e}"))),
    }
}

/// Whether the bare switch `--name` is present.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Resolve a `--name choice` flag against a closed set of choices,
/// falling back to `default` when absent. The error lists the valid
/// choices.
pub fn choice_flag<T: Copy>(
    args: &[String],
    name: &str,
    choices: &[(&str, T)],
    default: T,
) -> Result<T, ArgError> {
    match flag_value(args, name)? {
        None => Ok(default),
        Some(text) => choices
            .iter()
            .find(|(label, _)| *label == text)
            .map(|&(_, value)| value)
            .ok_or_else(|| {
                let valid: Vec<&str> = choices.iter().map(|&(label, _)| label).collect();
                ArgError::new(
                    name,
                    format!("unknown choice {text:?} (expected one of {})", valid.join("|")),
                )
            }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_present_and_absent_flags() {
        let a = args(&["prog", "--ues", "500", "--demo"]);
        assert_eq!(parse_flag(&a, "--ues", 7u64).unwrap(), 500);
        assert_eq!(parse_flag(&a, "--walks", 42usize).unwrap(), 42);
        assert!(has_flag(&a, "--demo"));
        assert!(!has_flag(&a, "--socket"));
    }

    #[test]
    fn malformed_values_are_typed_errors_not_panics() {
        let a = args(&["prog", "--ues", "banana"]);
        let err = parse_flag(&a, "--ues", 0u64).unwrap_err();
        assert_eq!(err.flag, "--ues");
        assert!(err.message.contains("banana"), "{err}");

        let a = args(&["prog", "--ues"]);
        let err = parse_flag(&a, "--ues", 0u64).unwrap_err();
        assert!(err.message.contains("needs a value"), "{err}");

        let a = args(&["prog", "--ues", "--demo"]);
        assert!(flag_value(&a, "--ues").is_err(), "flag followed by flag has no value");
    }

    #[test]
    fn choice_flags_reject_unknown_choices() {
        let choices = [("streamed", 1u8), ("dense", 2u8)];
        let a = args(&["prog", "--mode", "dense"]);
        assert_eq!(choice_flag(&a, "--mode", &choices, 1).unwrap(), 2);
        let a = args(&["prog", "--mode", "sparse"]);
        let err = choice_flag(&a, "--mode", &choices, 1).unwrap_err();
        assert!(err.message.contains("streamed|dense"), "{err}");
    }
}
