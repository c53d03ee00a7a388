//! Shared command-line parsing for every binary of the workspace.
//!
//! `conform_campaign`, `fault_campaign` and `model_check` all speak the
//! same core dialect — `--budget-ms N`, `--seed N`, `--out PATH`, and
//! (where protocols are selectable) a repeatable `--protocol NAME`
//! that is mutually exclusive with `--all-configs` — plus bin-specific
//! extras; `figures`, `ablation` and `orchestrate` declare theirs the
//! same way. Each binary declares its flags against a [`Cli`] spec; the
//! spec drives both parsing and a uniform `--help` page, so the entry
//! points cannot drift apart flag by flag.
//!
//! Parsing is deliberately strict: an unknown flag, a missing value, or
//! a non-numeric argument to a numeric flag aborts with the usage page
//! on stderr and exit status 2 (`--help` prints the same page to
//! stdout and exits 0). There is no partial parse to misread.

use tsocc_protocols::Protocol;
use tsocc_workloads::Scale;

/// One declared flag: its name, an optional value placeholder (`None`
/// marks a boolean switch), and the help line.
struct FlagSpec {
    name: &'static str,
    value: Option<&'static str>,
    help: &'static str,
}

/// A binary's command-line specification. Build with the chainable
/// [`Cli::opt`] / [`Cli::switch`] (plus the shared
/// [`Cli::campaign_flags`] / [`Cli::protocol_flags`] blocks and an
/// optional [`Cli::positional`]), then call [`Cli::parse`].
pub struct Cli {
    bin: &'static str,
    about: &'static str,
    specs: Vec<FlagSpec>,
    /// Placeholder and help line for bare arguments; `None` rejects
    /// them.
    positional: Option<(&'static str, &'static str)>,
}

/// The parsed command line: flag occurrences and bare arguments in
/// order, queried through the typed accessors on this type.
pub struct ParsedArgs {
    bin: &'static str,
    values: Vec<(&'static str, Option<String>)>,
    positionals: Vec<String>,
}

impl Cli {
    /// Starts a spec for binary `bin` with the one-line description
    /// shown at the top of `--help`.
    pub fn new(bin: &'static str, about: &'static str) -> Self {
        Cli {
            bin,
            about,
            specs: Vec::new(),
            positional: None,
        }
    }

    /// Declares a flag that takes one value (shown as `value` in the
    /// usage page).
    pub fn opt(mut self, name: &'static str, value: &'static str, help: &'static str) -> Self {
        self.specs.push(FlagSpec {
            name,
            value: Some(value),
            help,
        });
        self
    }

    /// Accepts bare (non-flag) arguments, shown as `value...` in the
    /// usage page and read back with [`ParsedArgs::positionals`].
    pub fn positional(mut self, value: &'static str, help: &'static str) -> Self {
        self.positional = Some((value, help));
        self
    }

    /// Declares a boolean switch (present or absent, no value).
    pub fn switch(mut self, name: &'static str, help: &'static str) -> Self {
        self.specs.push(FlagSpec {
            name,
            value: None,
            help,
        });
        self
    }

    /// The flag block every campaign shares: wall-clock budget, seed,
    /// and report path.
    pub fn campaign_flags(self) -> Self {
        self.opt("--budget-ms", "N", "wall-clock budget in milliseconds")
            .opt("--seed", "N", "base RNG seed")
            .opt("--out", "PATH", "JSON report output path")
    }

    /// The protocol-selection block: a repeatable `--protocol NAME`
    /// (any `Protocol::from_name` display name) and `--all-configs`.
    pub fn protocol_flags(self) -> Self {
        self.opt(
            "--protocol",
            "NAME",
            "protocol configuration by display name, e.g. MESI-P2-G2 \
             (repeatable; replaces the default list)",
        )
        .switch("--all-configs", "run every sweep configuration instead")
    }

    /// Parses the process arguments. Handles `--help`/`-h` (usage to
    /// stdout, exit 0) and rejects anything not declared (usage to
    /// stderr, exit 2).
    pub fn parse(self) -> ParsedArgs {
        let args: Vec<String> = std::env::args().skip(1).collect();
        self.parse_rest(args)
    }

    /// [`Cli::parse`] over a caller-supplied argument list — the entry
    /// point for binaries with subcommands, which strip the leading
    /// subcommand word themselves and hand the remainder here. Same
    /// strictness and `--help` handling as `parse`.
    pub fn parse_rest(self, args: Vec<String>) -> ParsedArgs {
        if args.iter().any(|a| a == "--help" || a == "-h") {
            print!("{}", self.usage());
            std::process::exit(0);
        }
        match self.try_parse(&args) {
            Ok(parsed) => parsed,
            Err(msg) => {
                eprint!("{}: {msg}\n\n{}", self.bin, self.usage());
                std::process::exit(2);
            }
        }
    }

    /// The fallible core of [`Cli::parse`], separated for unit tests.
    fn try_parse(&self, args: &[String]) -> Result<ParsedArgs, String> {
        let mut values = Vec::new();
        let mut positionals = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            if self.positional.is_some() && !arg.starts_with('-') {
                positionals.push(arg.clone());
                continue;
            }
            let spec = self
                .specs
                .iter()
                .find(|s| s.name == arg.as_str())
                .ok_or_else(|| format!("unknown flag {arg:?}"))?;
            let value = match spec.value {
                Some(_) => Some(
                    iter.next()
                        .ok_or_else(|| format!("{} needs an argument", spec.name))?
                        .clone(),
                ),
                None => None,
            };
            values.push((spec.name, value));
        }
        Ok(ParsedArgs {
            bin: self.bin,
            values,
            positionals,
        })
    }

    /// Renders the `--help` page.
    fn usage(&self) -> String {
        let mut page = format!("{} — {}\n\nusage: {}", self.bin, self.about, self.bin);
        for spec in &self.specs {
            match spec.value {
                Some(v) => page.push_str(&format!(" [{} {v}]", spec.name)),
                None => page.push_str(&format!(" [{}]", spec.name)),
            }
        }
        if let Some((value, help)) = self.positional {
            page.push_str(&format!(" {value}...\n\narguments:\n  {value}  {help}"));
        }
        page.push_str("\n\nflags:\n");
        let width = self
            .specs
            .iter()
            .map(|s| s.name.len() + s.value.map_or(0, |v| v.len() + 3))
            .max()
            .unwrap_or(0);
        for spec in &self.specs {
            let head = match spec.value {
                Some(v) => format!("{} {v}", spec.name),
                None => spec.name.to_string(),
            };
            page.push_str(&format!("  {head:width$}  {}\n", spec.help));
        }
        page.push_str("  --help            print this page\n");
        page
    }
}

impl ParsedArgs {
    fn bail(&self, msg: String) -> ! {
        eprintln!("{}: {msg} (see --help)", self.bin);
        std::process::exit(2);
    }

    /// Last occurrence of a value flag, unparsed.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Last occurrence of a numeric flag; aborts on a non-number.
    pub fn u64(&self, name: &str) -> Option<u64> {
        self.str(name).map(|v| {
            v.parse().unwrap_or_else(|_| {
                self.bail(format!("{name} needs a numeric argument, got {v:?}"))
            })
        })
    }

    /// [`ParsedArgs::u64`] narrowed to `usize`.
    pub fn usize(&self, name: &str) -> Option<usize> {
        self.u64(name).map(|v| v as usize)
    }

    /// Last occurrence of a comma-separated list of counts (`--cores
    /// 2,4,8`); aborts on an entry that is not a number or on an empty
    /// list.
    pub fn usize_list(&self, name: &str) -> Option<Vec<usize>> {
        self.str(name).map(|v| {
            let list: Result<Vec<usize>, _> = v.split(',').map(|s| s.trim().parse()).collect();
            match list {
                Ok(list) if !list.is_empty() => list,
                _ => self.bail(format!(
                    "{name} needs a comma-separated list of numbers, got {v:?}"
                )),
            }
        })
    }

    /// Last occurrence of a workload-scale flag, by [`Scale::name`];
    /// aborts on any other name.
    pub fn scale(&self, name: &str) -> Option<Scale> {
        self.str(name).map(|v| {
            Scale::from_name(v).unwrap_or_else(|| {
                self.bail(format!("{name} needs one of tiny, small, full, got {v:?}"))
            })
        })
    }

    /// The bare arguments, in order (see [`Cli::positional`]).
    pub fn positionals(&self) -> &[String] {
        &self.positionals
    }

    /// Whether a boolean switch was given.
    pub fn present(&self, name: &str) -> bool {
        self.values.iter().any(|(n, _)| *n == name)
    }

    /// Every occurrence of a repeatable value flag, in order.
    pub fn all(&self, name: &str) -> Vec<&str> {
        self.values
            .iter()
            .filter(|(n, _)| *n == name)
            .filter_map(|(_, v)| v.as_deref())
            .collect()
    }

    /// Resolves the shared protocol-selection block: `--protocol`
    /// occurrences replace `default`, `--all-configs` swaps in
    /// [`Protocol::sweep_configs`], and giving both aborts.
    pub fn protocols(&self, default: Vec<Protocol>) -> Vec<Protocol> {
        let named = self.all("--protocol");
        if self.present("--all-configs") {
            if !named.is_empty() {
                self.bail("--all-configs and --protocol are mutually exclusive".to_string());
            }
            return Protocol::sweep_configs();
        }
        if named.is_empty() {
            return default;
        }
        named
            .into_iter()
            .map(|name| {
                Protocol::from_name(name).unwrap_or_else(|| {
                    self.bail(format!("unknown protocol configuration {name:?}"))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> Cli {
        Cli::new("demo", "test spec")
            .campaign_flags()
            .protocol_flags()
            .switch("--fast", "a switch")
            .opt("--cores", "LIST", "a list flag")
            .opt("--scale", "NAME", "a scale flag")
    }

    fn parse(args: &[&str]) -> Result<ParsedArgs, String> {
        let owned: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        spec().try_parse(&owned)
    }

    #[test]
    fn parses_shared_flags() {
        let args = parse(&["--budget-ms", "1500", "--seed", "9", "--fast"]).unwrap();
        assert_eq!(args.u64("--budget-ms"), Some(1500));
        assert_eq!(args.u64("--seed"), Some(9));
        assert!(args.present("--fast"));
        assert_eq!(args.str("--out"), None);
    }

    #[test]
    fn last_occurrence_wins_and_repeats_accumulate() {
        let args = parse(&[
            "--out",
            "a.json",
            "--out",
            "b.json",
            "--protocol",
            "MESI",
            "--protocol",
            "MESI-P2-G2",
        ])
        .unwrap();
        assert_eq!(args.str("--out"), Some("b.json"));
        assert_eq!(args.all("--protocol"), vec!["MESI", "MESI-P2-G2"]);
        let protocols = args.protocols(vec![]);
        assert_eq!(protocols.len(), 2);
        assert_eq!(protocols[0].name(), "MESI");
        assert_eq!(protocols[1].name(), "MESI-P2-G2");
    }

    #[test]
    fn unknown_flags_and_missing_values_are_rejected() {
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--seed"]).is_err());
    }

    #[test]
    fn bare_arguments_need_a_declared_positional() {
        assert!(parse(&["fig3"]).is_err());
        let owned: Vec<String> = ["fig3", "--seed", "4", "fig5"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let args = spec()
            .positional("SELECTION", "what to render")
            .try_parse(&owned)
            .unwrap();
        assert_eq!(args.positionals(), ["fig3", "fig5"]);
        assert_eq!(args.u64("--seed"), Some(4));
    }

    #[test]
    fn lists_and_scales_parse_by_name() {
        let args = parse(&["--cores", "2, 4,8", "--scale", "tiny"]).unwrap();
        assert_eq!(args.usize_list("--cores"), Some(vec![2, 4, 8]));
        assert_eq!(args.scale("--scale"), Some(Scale::Tiny));
        let args = parse(&[]).unwrap();
        assert_eq!(args.usize_list("--cores"), None);
        assert_eq!(args.scale("--scale"), None);
    }

    #[test]
    fn usage_lists_every_flag() {
        let page = spec().usage();
        for flag in [
            "--budget-ms",
            "--seed",
            "--out",
            "--protocol",
            "--all-configs",
            "--fast",
            "--help",
        ] {
            assert!(page.contains(flag), "usage page is missing {flag}:\n{page}");
        }
    }
}
