//! The one command-line reader of the bench binaries ([`Cli`]), and the
//! flag sets several of them share: the grid flags ([`GridArgs`]) and the
//! coordinator flags ([`FleetArgs`]). A binary walks its arguments once,
//! matching each flag in one `match` and handing any other to
//! [`Cli::unknown`]. `--help`/`-h` prints the usage and exits 0; an
//! unknown flag, or a value missing or not parsing, prints `error: …` and
//! the usage to stderr and exits 2 before the binary does anything.

use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;

use embedstab_fleet::{CoordinatorConfig, FleetSpec};
use embedstab_pipeline::{CacheStore, Scale};

/// The process arguments, read once, with the binary's usage text.
pub struct Cli {
    usage: String,
    args: Vec<String>,
    next: usize,
}

impl Cli {
    /// Reads the process arguments (without the program name) for a
    /// binary whose usage is `usage`.
    pub fn new(usage: impl Into<String>) -> Cli {
        Cli {
            usage: usage.into(),
            args: std::env::args().skip(1).collect(),
            next: 0,
        }
    }

    /// Every argument as given, read or not.
    pub fn given(&self) -> &[String] {
        &self.args
    }

    /// The value after `flag`.
    pub fn value(&mut self, flag: &str) -> String {
        let Some(value) = self.args.get(self.next).cloned() else {
            self.fail(&format!("{flag} needs a value"))
        };
        self.next += 1;
        value
    }

    /// The value after `flag`, parsed.
    pub fn parse<T: FromStr>(&mut self, flag: &str) -> T
    where
        T::Err: Display,
    {
        let value = self.value(flag);
        value
            .parse()
            .unwrap_or_else(|e| self.fail(&format!("bad value '{value}' for {flag}: {e}")))
    }

    /// Every argument not read yet: what follows a bare `--`.
    pub fn rest(&mut self) -> Vec<String> {
        let rest = self.args[self.next..].to_vec();
        self.next = self.args.len();
        rest
    }

    /// Refuses `arg`, a flag this binary does not take.
    pub fn unknown(&self, arg: &str) -> ! {
        self.fail(&format!("unknown argument '{arg}'"))
    }

    /// Prints `error: <err>` and the usage to stderr and exits 2.
    pub fn fail(&self, err: &str) -> ! {
        eprintln!("error: {err}\n{}", self.usage);
        std::process::exit(2);
    }
}

/// Yields the arguments in order, each a flag, a positional argument or
/// a bare `--`, and answers `--help` and `-h` itself.
impl Iterator for Cli {
    type Item = String;

    fn next(&mut self) -> Option<String> {
        let arg = self.args.get(self.next)?.clone();
        self.next += 1;
        if arg == "--help" || arg == "-h" {
            println!("{}", self.usage);
            std::process::exit(0);
        }
        Some(arg)
    }
}

/// The flags every grid binary (and `run_all`) takes.
pub struct GridArgs {
    /// `--scale tiny|small|paper`, default `small`.
    pub scale: Scale,
    /// `--cache-dir <dir>`, default `cache`: the [`CacheStore`] the world
    /// and the trained pairs are loaded from or stored into.
    pub cache_dir: PathBuf,
    /// `--shard i/n`: compute only slice `i` of `n` of each grid.
    pub shard: Option<(usize, usize)>,
    /// `--fresh`: recompute rows even where a row file holds them.
    pub fresh: bool,
}

/// The grid flags, as they follow the binary name in a usage line.
pub const GRID_FLAGS: &str = "[--scale tiny|small|paper] [--cache-dir DIR] [--shard I/N] [--fresh]";

impl GridArgs {
    /// Parses the command line of the grid binary `bin`, which takes
    /// the grid flags and nothing else.
    pub fn parse(bin: &str) -> GridArgs {
        let mut cli = Cli::new(format!("usage: {bin} {GRID_FLAGS}"));
        GridArgs::read_all(&mut cli)
    }

    /// Reads every argument `cli` has left as a grid flag.
    pub fn read_all(cli: &mut Cli) -> GridArgs {
        let mut out = GridArgs {
            scale: Scale::Small,
            cache_dir: PathBuf::from("cache"),
            shard: None,
            fresh: false,
        };
        while let Some(flag) = cli.next() {
            match flag.as_str() {
                "--scale" => out.scale = cli.parse(&flag),
                "--cache-dir" => out.cache_dir = PathBuf::from(cli.value(&flag)),
                "--shard" => {
                    let value = cli.value(&flag);
                    let shard = value.split_once('/').and_then(|(i, n)| {
                        let (i, n) = (i.parse::<usize>().ok()?, n.parse::<usize>().ok()?);
                        (n > 0 && i < n).then_some((i, n))
                    });
                    out.shard = Some(shard.unwrap_or_else(|| {
                        cli.fail(&format!(
                            "bad --shard '{value}'; use i/n with 0 <= i < n, e.g. --shard 0/2"
                        ))
                    }));
                }
                "--fresh" => out.fresh = true,
                _ => cli.unknown(&flag),
            }
        }
        out
    }

    /// Opens the [`CacheStore`] at `--cache-dir`; panics if it cannot.
    pub fn cache(&self) -> CacheStore {
        let dir = &self.cache_dir;
        CacheStore::open(dir).unwrap_or_else(|e| panic!("cannot open cache {}: {e}", dir.display()))
    }
}

/// The command line both coordinator binaries share.
pub struct FleetArgs {
    /// The run to serve: `--shards`, `--bin` and the `--` extras fill
    /// the spec (its scale and world key are set once the world is warm);
    /// everything else starts at [`CoordinatorConfig::new`]'s
    /// defaults and only a binary's own flags override it.
    pub config: CoordinatorConfig,
    /// `--scale`, default `small`.
    pub scale: Scale,
    /// `--cache-dir`: the cache the world is built once into, and the
    /// workers' pairs are trained into.
    pub cache_dir: PathBuf,
}

/// The defaults, before any flag is read.
impl Default for FleetArgs {
    fn default() -> FleetArgs {
        let spec = FleetSpec {
            bin: "fig2_memory_tradeoff".to_string(),
            scale: String::new(),
            shards: 0,
            world_key: String::new(),
            extra: Vec::new(),
        };
        FleetArgs {
            config: CoordinatorConfig::new(spec, PathBuf::from(crate::RESULTS_DIR)),
            scale: Scale::Small,
            cache_dir: PathBuf::from("cache"),
        }
    }
}

impl FleetArgs {
    /// Reads one of the shared flags, or `--` and everything after it
    /// (the shards' extra arguments); refuses any other flag.
    pub fn read(&mut self, flag: &str, cli: &mut Cli) {
        let spec = &mut self.config.spec;
        match flag {
            "--shards" => spec.shards = cli.parse(flag),
            "--bin" => spec.bin = cli.value(flag),
            "--scale" => self.scale = cli.parse(flag),
            "--cache-dir" => self.cache_dir = PathBuf::from(cli.value(flag)),
            "--" => spec.extra = cli.rest(),
            _ => cli.unknown(flag),
        }
    }

    /// Checks the flags read: `--shards` is required.
    pub fn checked(self, cli: &Cli) -> FleetArgs {
        if self.config.spec.shards == 0 {
            cli.fail("missing --shards N (N >= 1)");
        }
        self
    }
}
