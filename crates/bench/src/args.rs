//! Command-line options of the two harness binaries.
//!
//! One rule for every `--key value` option: absent is `None`, and a missing
//! or unparsable value is fatal — the process exits 2 naming the flag,
//! never silently running the default.

use std::str::FromStr;

/// Whether the bare flag `name` appears in `args`.
pub fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse the value after `key` in `args`: `Ok(None)` when the flag is
/// absent, `Err` naming the flag when its value is missing or malformed.
pub fn parse_opt<T: FromStr>(args: &[String], key: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == key) else {
        return Ok(None);
    };
    let raw = args
        .get(i + 1)
        .ok_or_else(|| format!("{key}: missing value"))?;
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{key}: malformed value {raw:?}"))
}

/// [`parse_opt`], exiting 2 with its message on a malformed value.
pub fn opt<T: FromStr>(args: &[String], key: &str) -> Option<T> {
    parse_opt(args, key).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn options_parse_absent_present_and_malformed() {
        let a = args("prog strat --budget 6 --seed abc --strategy upal --n");
        assert_eq!(parse_opt::<usize>(&a, "--budget"), Ok(Some(6)));
        assert_eq!(parse_opt::<usize>(&a, "--threads"), Ok(None));
        assert_eq!(
            parse_opt::<String>(&a, "--strategy"),
            Ok(Some("upal".to_string()))
        );
        let bad = parse_opt::<u64>(&a, "--seed").unwrap_err();
        assert!(bad.contains("--seed") && bad.contains("abc"), "{bad}");
        let missing = parse_opt::<usize>(&a, "--n").unwrap_err();
        assert!(missing.contains("--n"), "{missing}");
        assert!(has_flag(&a, "strat") && !has_flag(&a, "--check"));
    }
}
