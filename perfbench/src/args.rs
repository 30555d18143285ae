//! Command-line parsing: `--workload NAME --seed N --seconds N --trace 0|1`.

use crate::WORKLOADS;

/// The usage line printed with every argument error.
pub const USAGE: &str =
    "usage: perfbench --workload compile|threads|des|check [--seed N] [--seconds N] [--trace 0|1]";

/// Parsed, checked arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// One of [`WORKLOADS`].
    pub workload: String,
    /// Workload seed: chooses the job order (and the checker's chaos
    /// schedules); the program only ever sees the generated jobs.
    pub seed: u64,
    /// Measured seconds (at least one full pass over the jobs runs
    /// regardless).
    pub seconds: u64,
    /// `true` for the traced run that reports per-layer metrics.
    pub trace: bool,
}

/// Parses a seed: decimal or `0x`-prefixed hexadecimal.
fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

/// Parses `argv[1..]`.
///
/// # Errors
///
/// Returns the reason for an unknown flag, a missing or malformed value,
/// or an unknown workload name.
pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10u64;
    let mut trace = false;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                if !WORKLOADS.contains(&v) {
                    return Err(format!(
                        "unknown workload `{v}` (expected one of {})",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(v.to_string());
            }
            "--seed" => {
                let v = value()?;
                seed = parse_seed(v).ok_or_else(|| format!("malformed seed `{v}`"))?;
            }
            "--seconds" => {
                let v = value()?;
                seconds = match v.parse::<u64>() {
                    Ok(n) if (1..=3600).contains(&n) => n,
                    _ => return Err(format!("--seconds must be 1..=3600, got `{v}`")),
                };
            }
            "--trace" => {
                trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace must be 0 or 1, got `{v}`")),
                };
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(v: &[&str]) -> Result<Args, String> {
        parse(&v.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn full_command_line_parses() {
        let c = args(&[
            "--workload",
            "des",
            "--seed",
            "0x2a",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(
            c,
            Args {
                workload: "des".into(),
                seed: 42,
                seconds: 3,
                trace: true
            }
        );
    }

    #[test]
    fn bad_input_is_rejected() {
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "des", "--seed", "-3"]).is_err());
        assert!(args(&["--workload", "des", "--seed", "12ab"]).is_err());
        assert!(args(&["--workload", "des", "--frobnicate"]).is_err());
        assert!(args(&["--workload", "des", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "des", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
        assert!(args(&["--seed", "1"]).is_err());
        assert!(args(&["--help"]).is_err());
    }
}
