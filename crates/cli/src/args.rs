//! Minimal `--flag value` argument parsing (no external dependencies —
//! the workspace's dependency policy is documented in DESIGN.md).

use std::collections::HashMap;

use cubemm_simnet::CostParams;

/// The flags one subcommand reads. Anything else on its command line is
/// an error, so a misspelt or retired flag can never silently fall back
/// to a default.
pub struct Flags {
    /// The subcommand, for error messages (`cubemm <command>`).
    pub command: &'static str,
    /// Keys that take a value (`--key value`), in groups so subcommands
    /// can share one (e.g. the machine and fault flags).
    pub values: &'static [&'static [&'static str]],
    /// Boolean switches: their presence records `"true"` without
    /// consuming the next token.
    pub switches: &'static [&'static str],
}

/// Parsed `--key value` flags plus positional arguments. Repeating a
/// flag accumulates every value (used by the `--fault-*` family); the
/// scalar accessors read the last occurrence.
pub struct Args {
    flags: HashMap<String, Vec<String>>,
    positional: Vec<String>,
}

impl Args {
    /// Parses `argv` against the subcommand's accepted `flags`: a value
    /// flag consumes the next token, a switch consumes nothing, and any
    /// other `--key` is an unknown-flag error.
    pub fn parse(argv: &[String], flags: &Flags) -> Result<Args, String> {
        let mut parsed: HashMap<String, Vec<String>> = HashMap::new();
        let mut positional = Vec::new();
        let mut it = argv.iter();
        while let Some(tok) = it.next() {
            if let Some(key) = tok.strip_prefix("--") {
                let val = if flags.switches.contains(&key) {
                    "true".to_string()
                } else if flags.values.iter().any(|group| group.contains(&key)) {
                    it.next()
                        .ok_or_else(|| format!("flag --{key} needs a value"))?
                        .clone()
                } else {
                    return Err(format!("unknown flag --{key} for cubemm {}", flags.command));
                };
                parsed.entry(key.to_string()).or_default().push(val);
            } else {
                positional.push(tok.clone());
            }
        }
        Ok(Args {
            flags: parsed,
            positional,
        })
    }

    /// Whether a flag appeared at all (boolean switches).
    pub fn has(&self, key: &str) -> bool {
        self.flags.contains_key(key)
    }

    /// Positional argument `idx`, parsed.
    pub fn positional<T: std::str::FromStr>(&self, idx: usize) -> Option<T> {
        self.positional.get(idx).and_then(|s| s.parse().ok())
    }

    /// Flag value, parsed, or `default`.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.raw(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value {v:?} for --{key}")),
        }
    }

    /// Required flag value, parsed.
    pub fn require<T: std::str::FromStr>(&self, key: &str) -> Result<T, String> {
        let v = self
            .raw(key)
            .ok_or_else(|| format!("missing required flag --{key}"))?;
        v.parse()
            .map_err(|_| format!("invalid value {v:?} for --{key}"))
    }

    /// The raw string value of a flag's last occurrence, if present.
    pub fn raw(&self, key: &str) -> Option<&str> {
        self.flags
            .get(key)
            .and_then(|vs| vs.last())
            .map(String::as_str)
    }

    /// Every raw value of a repeatable flag, in order of appearance.
    pub fn raw_all(&self, key: &str) -> &[String] {
        self.flags.get(key).map_or(&[], Vec::as_slice)
    }
}

/// Reads `--ts`/`--tw` (the paper's costs by default) and holds them to
/// the simulator's cost rule ([`CostParams::validate`]) at parse time.
pub fn parse_costs(args: &Args) -> Result<CostParams, String> {
    let paper = CostParams::PAPER;
    let cost = CostParams {
        ts: args.get_or("ts", paper.ts)?,
        tw: args.get_or("tw", paper.tw)?,
    };
    cost.validate().map_err(|e| format!("--{e}"))?;
    Ok(cost)
}

/// Parses `one`/`multi` (with a few aliases) into a port model.
pub fn parse_port(s: Option<&str>) -> Result<cubemm_simnet::PortModel, String> {
    match s.unwrap_or("one") {
        "one" | "one-port" | "1" => Ok(cubemm_simnet::PortModel::OnePort),
        "multi" | "multi-port" | "all" => Ok(cubemm_simnet::PortModel::MultiPort),
        other => Err(format!("unknown port model {other:?} (use one|multi)")),
    }
}

/// Parses `--kernel blocked[:TILE] | packed[:THREADS]` (see
/// `Kernel`'s `FromStr`). Absent flag means the default (packed,
/// single-threaded).
pub fn parse_kernel(s: Option<&str>) -> Result<cubemm_dense::gemm::Kernel, String> {
    s.map_or(Ok(Default::default()), |s| {
        s.parse().map_err(|e| format!("--kernel {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    const TEST: Flags = Flags {
        command: "test",
        values: &[&["n", "p", "port", "ts"], &["fault-link", "fault-drop"]],
        switches: &["abft"],
    };

    #[test]
    fn parses_flags_and_positionals() {
        let a = Args::parse(&argv("64 --n 32 --port multi rest"), &TEST).unwrap();
        assert_eq!(a.positional::<usize>(0), Some(64));
        assert_eq!(a.get_or::<usize>("n", 0).unwrap(), 32);
        assert_eq!(a.raw("port"), Some("multi"));
        assert_eq!(a.positional::<String>(1), Some("rest".to_string()));
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(Args::parse(&argv("--n"), &TEST).is_err());
    }

    #[test]
    fn boolean_switches_consume_no_value() {
        let a = Args::parse(&argv("--abft --n 8"), &TEST).unwrap();
        assert!(a.has("abft"));
        assert!(!a.has("n-missing"));
        assert_eq!(a.get_or::<usize>("n", 0).unwrap(), 8);
    }

    #[test]
    fn require_and_defaults() {
        let a = Args::parse(&argv("--n 8"), &TEST).unwrap();
        assert_eq!(a.require::<usize>("n").unwrap(), 8);
        assert!(a.require::<usize>("p").is_err());
        assert_eq!(a.get_or::<f64>("ts", 150.0).unwrap(), 150.0);
    }

    #[test]
    fn repeated_flags_accumulate() {
        let a = Args::parse(
            &argv("--fault-link 0:1 --fault-link 2:3 --n 4 --n 8"),
            &TEST,
        )
        .unwrap();
        assert_eq!(
            a.raw_all("fault-link"),
            ["0:1".to_string(), "2:3".to_string()]
        );
        assert_eq!(a.get_or::<usize>("n", 0).unwrap(), 8); // last wins
        assert!(a.raw_all("fault-drop").is_empty());
    }

    #[test]
    fn port_parsing() {
        assert!(parse_port(Some("one")).is_ok());
        assert!(parse_port(Some("multi")).is_ok());
        assert!(parse_port(None).is_ok());
        assert!(parse_port(Some("dual")).is_err());
    }

    #[test]
    fn unknown_flags_are_errors_naming_the_command() {
        for bad in [
            "--prot multi",
            "--n 8 --engine event",
            "--abft --node-budget 64",
        ] {
            let err = Args::parse(&argv(bad), &TEST).err().expect(bad);
            assert!(err.starts_with("unknown flag --"), "{err}");
            assert!(err.ends_with(" for cubemm test"), "{err}");
        }
        // A value that looks like a flag is still a value.
        let a = Args::parse(&argv("--ts --nope"), &TEST).unwrap();
        assert_eq!(a.raw("ts"), Some("--nope"));
    }

    #[test]
    fn kernel_parsing() {
        use cubemm_dense::gemm::Kernel;
        assert_eq!(parse_kernel(None).unwrap(), Kernel::default());
        assert_eq!(parse_kernel(Some("blocked")).unwrap(), Kernel::Blocked(64));
        assert_eq!(
            parse_kernel(Some("blocked:32")).unwrap(),
            Kernel::Blocked(32)
        );
        assert_eq!(parse_kernel(Some("packed")).unwrap(), Kernel::packed());
        assert_eq!(
            parse_kernel(Some("packed:4")).unwrap(),
            Kernel::packed_mt(4)
        );
        assert_eq!(
            parse_kernel(Some("packed:0")).unwrap(),
            Kernel::packed_mt(0)
        );
        assert!(parse_kernel(Some("blocked:0")).is_err());
        assert!(parse_kernel(Some("blocked:x")).is_err());
        assert!(parse_kernel(Some("packed:two")).is_err());
        assert!(parse_kernel(Some("simd")).is_err());
        assert!(parse_kernel(Some("naive:3")).is_err());
        // The unblocked baselines live in the kernel bench, not here.
        for retired in ["naive", "ikj"] {
            let err = parse_kernel(Some(retired)).unwrap_err();
            assert_eq!(
                err,
                format!(
                    "--kernel {retired:?}: unknown kernel (use blocked[:TILE]|packed[:THREADS])"
                )
            );
        }
        assert_eq!(
            parse_kernel(Some("blocked:x")).unwrap_err(),
            r#"--kernel "blocked:x": invalid number "x""#
        );
    }
}
