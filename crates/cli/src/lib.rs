//! Library backing the `fingers-mine` command-line miner.
//!
//! Everything is testable as a library: argument parsing
//! ([`Options::parse`]), graph-source resolution ([`GraphSource`]), and the
//! mining run itself ([`run`]) — `main` is a thin wrapper.
//!
//! ```text
//! fingers-mine --graph gen:er:1000:5000:7 --pattern tt --engine fingers --pes 4
//! fingers-mine --graph dataset:Mi --pattern 0-1,1-2,0-2 --engine flexminer
//! fingers-mine --graph edges.txt --pattern 4cl --engine software --edge-induced
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::error::Error;
use std::fmt;

use fingers_core::chip::simulate_fingers;
use fingers_core::config::{ChipConfig, PeConfig};
use fingers_flexminer::{simulate_flexminer, FlexMinerChipConfig};
use fingers_graph::datasets::Dataset;
use fingers_graph::sanitize::SanitizeOptions;
use fingers_graph::{reorder, CsrGraph, SanitizeReport};
use fingers_mining::{oblivious, try_count_multi_parallel_with, EngineConfig, EngineError};
use fingers_pattern::{parse_pattern, ExecutionPlan, Induced, MultiPlan, Pattern};
use fingers_verify::{PlanMutation, VerifyReport};

/// Mining engine selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// Plan-driven software DFS (the reference miner).
    #[default]
    Software,
    /// The FINGERS accelerator simulation.
    Fingers,
    /// The FlexMiner baseline accelerator simulation.
    Flexminer,
    /// Pattern-oblivious enumeration (ESU + isomorphism checks).
    Oblivious,
}

/// Where the input graph comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphSource {
    /// A whitespace edge-list file path.
    File(String),
    /// One of the Table 1 stand-ins, by abbreviation (`dataset:Mi`).
    Dataset(Dataset),
    /// `gen:er:<n>:<m>:<seed>` — Erdős–Rényi.
    ErdosRenyi {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
        /// Seed.
        seed: u64,
    },
    /// `gen:pl:<n>:<m>:<seed>` — Chung–Lu power law.
    PowerLaw {
        /// Vertices.
        n: usize,
        /// Edges.
        m: usize,
        /// Seed.
        seed: u64,
    },
}

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq)]
pub struct Options {
    /// The input graph.
    pub graph: GraphSource,
    /// Patterns to mine (multi-pattern when more than one).
    pub patterns: Vec<Pattern>,
    /// Engine.
    pub engine: Engine,
    /// PE count for accelerator engines.
    pub pes: usize,
    /// IU count per FINGERS PE.
    pub ius: usize,
    /// Edge-induced instead of vertex-induced semantics.
    pub edge_induced: bool,
    /// Relabel the graph by descending degree before mining.
    pub reorder_degree: bool,
    /// Use the cost-model order optimizer instead of the greedy order.
    pub optimize_order: bool,
    /// Worker threads for the software and oblivious engines.
    pub threads: usize,
    /// Hub budget for the software engine's dense-bitmap kernel tier
    /// (0 disables the tier).
    pub bitmap_hubs: usize,
    /// Fuse terminal-counting plan levels into count kernels (default on;
    /// `--no-count-fusion` reinstates the materializing baseline).
    pub count_fusion: bool,
    /// Let the adaptive dispatch pick the SIMD block-compare kernels
    /// (default on; `--no-simd` reinstates the scalar tiers).
    pub simd: bool,
    /// Scratch-memory budget for the run, in bytes; exceeding it aborts
    /// with [`CliError::MemBudget`] (exit 11) and discards every partial
    /// count, same contract as cancellation.
    pub query_mem_budget: Option<u64>,
    /// Repair dirty edge-list inputs (self loops, duplicates, unsorted or
    /// reversed edges, trailing tokens) and report what was repaired.
    pub sanitize: bool,
    /// Refuse inputs that would need any repair (exit code 4).
    pub strict: bool,
    /// Emit the machine-readable count report (the daemon's response
    /// schema) on stdout instead of the human-readable lines.
    pub json: bool,
}

/// Error for invalid command lines.
#[derive(Debug)]
pub struct UsageError(String);

impl fmt::Display for UsageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}\n\n{}", self.0, USAGE)
    }
}

impl Error for UsageError {}

/// A CLI failure, mapped to a distinct nonzero process exit code so
/// scripts can tell the failure modes apart (see [`CliError::exit_code`]).
#[derive(Debug)]
#[non_exhaustive]
pub enum CliError {
    /// Invalid command line (exit 2).
    Usage(UsageError),
    /// The input graph could not be opened, parsed, or built (exit 3).
    GraphLoad(String),
    /// `--strict` refused an input that needed repairs (exit 4).
    DirtyInput(SanitizeReport),
    /// A mining worker panicked; the run was discarded (exit 5).
    Engine(EngineError),
    /// The requested flag combination is not supported (exit 6).
    Unsupported(String),
    /// `verify-plan` found the plan unsound (exit 7).
    InvalidPlan(VerifyReport),
    /// The daemon's admission control rejected the query (exit 8).
    Overloaded(String),
    /// The query was cancelled or exceeded its deadline (exit 9).
    Cancelled(String),
    /// The daemon could not be reached, or the connection broke (exit 10).
    Transport(String),
    /// The query blew its scratch-memory budget; the run was discarded
    /// all-or-nothing (exit 11).
    MemBudget(EngineError),
}

impl CliError {
    /// The process exit code for this failure: 2 usage, 3 graph load,
    /// 4 dirty input refused, 5 engine panic, 6 unsupported combination,
    /// 7 plan failed static verification, 8 daemon overloaded, 9 query
    /// cancelled or past deadline, 10 daemon unreachable, 11 memory
    /// budget exceeded.
    pub fn exit_code(&self) -> u8 {
        match self {
            CliError::Usage(_) => 2,
            CliError::GraphLoad(_) => 3,
            CliError::DirtyInput(_) => 4,
            CliError::Engine(_) => 5,
            CliError::Unsupported(_) => 6,
            CliError::InvalidPlan(_) => 7,
            CliError::Overloaded(_) => 8,
            CliError::Cancelled(_) => 9,
            CliError::Transport(_) => 10,
            CliError::MemBudget(_) => 11,
        }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(e) => write!(f, "{e}"),
            CliError::GraphLoad(msg) => write!(f, "cannot load graph: {msg}"),
            CliError::DirtyInput(report) => {
                write!(f, "--strict refused dirty input: {}", report.summary())
            }
            CliError::Engine(e) => write!(f, "{e}"),
            CliError::Unsupported(msg) => write!(f, "{msg}"),
            CliError::InvalidPlan(report) => write!(f, "{report}"),
            CliError::Overloaded(msg) => write!(f, "{msg}"),
            CliError::Cancelled(msg) => write!(f, "{msg}"),
            CliError::Transport(msg) => write!(f, "{msg}"),
            CliError::MemBudget(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CliError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CliError::Usage(e) => Some(e),
            CliError::Engine(e) | CliError::MemBudget(e) => Some(e),
            _ => None,
        }
    }
}

impl From<UsageError> for CliError {
    fn from(e: UsageError) -> Self {
        CliError::Usage(e)
    }
}

/// The `--help` text.
pub const USAGE: &str = "\
usage: fingers-mine --graph <src> --pattern <spec> [--pattern <spec>…] [options]
       fingers-mine verify-plan <spec> [--edge-induced] [--optimize-order]
                    [--mutate <name>]
       fingers-mine serve --socket <path> --load <name>=<src> [--load …]
                    [--workers <n>] [--queue-depth <n>] [--max-threads <n>]
                    [--default-timeout-ms <n>] [--bitmap-hubs <k>] [--no-bitmap]
                    [--no-simd] [--mem-budget <bytes>]
                    [--query-mem-budget <bytes>]
       fingers-mine client --socket <path> [--retries <n>]
                    [--retry-base-ms <n>] [--retry-seed <n>] <request-json-line>

graph sources:
  <path>                whitespace edge-list file (SNAP format)
  dataset:<As|Mi|Yo|Pa|Lj|Or>   Table 1 stand-in
  gen:er:<n>:<m>:<seed>         Erdős–Rényi
  gen:pl:<n>:<m>:<seed>         Chung–Lu power law

patterns: names (tc, 4cl, 5cl, tt, cyc, dia, wedge, house, bull, gem,
  butterfly, k-clique, k-path, k-star) or edge lists like 0-1,1-2,0-2

options:
  --engine <software|fingers|flexminer|oblivious>   (default software)
  --pes <n>            PEs for accelerator engines (default 1)
  --ius <n>            IUs per FINGERS PE (default 24)
  --threads <n>        worker threads for software/oblivious engines
                       (default: available hardware parallelism)
  --bitmap-hubs <k>    densify the k highest-degree adjacencies for the
                       software engine's bitmap kernel tier (default 1024)
  --no-bitmap          disable the bitmap tier (same as --bitmap-hubs 0);
                       counts are identical either way
  --no-count-fusion    materialize terminal candidate sets instead of
                       fused counting; counts are identical either way
  --no-simd            keep set operations on the scalar kernel tiers
                       (the SIMD tier also auto-disables on CPUs without
                       it); counts are identical either way
  --query-mem-budget <bytes>  abort the run (exit 11) if its scratch
                       memory exceeds this many bytes; the partial count
                       is discarded all-or-nothing, like a cancellation
  --edge-induced       edge-induced semantics (default vertex-induced)
  --reorder-degree     relabel graph by descending degree first
  --optimize-order     search all connected matching orders by cost model
  --sanitize           repair dirty edge-list files (drop self loops,
                       duplicates, out-of-range IDs; tolerate trailing
                       tokens) and print a repair report
  --strict             refuse edge-list files that would need any repair
  --json               print one machine-readable report line (the same
                       schema the daemon's count responses use) instead
                       of the human-readable output
  --help               print this text

verify-plan: compile <spec>, run the static plan verifier, and print the
  plan with its diagnostics. --mutate <name> applies a named corruption
  from the fingers-verify mutation corpus first (to see the verifier
  catch it); pass --mutate list to list the names.

serve: run the mining daemon on a Unix socket. Each --load registers a
  graph (same <src> grammar as --graph) under a name clients query by;
  graphs are loaded once and shared across all queries. --workers sizes
  the query pool, --queue-depth bounds admitted-but-waiting queries
  (a full queue rejects with an overloaded response), --max-threads caps
  any single query's thread budget, and --default-timeout-ms applies a
  deadline to queries that do not carry their own. --mem-budget caps the
  daemon's global scratch gauge (crossing 70/85/95 % of it walks the
  degradation ladder: shrink caches, clamp threads, shed queued work)
  and --query-mem-budget caps any single query's scratch bytes
  (exceeding it fails that query typed, exit 11 at the client). SIGINT
  and SIGTERM shut the daemon down cleanly: connections are closed, the
  pool drained, and the socket file removed.

client: send one newline-delimited JSON request to a running daemon and
  print the one response line. The exit code reflects the response:
  ok 0, and typed failures as listed below. Request ops: count,
  motif-census, verify-plan, stats, ping, cancel, shutdown.
  --retries retries overloaded responses under deterministic seeded
  exponential backoff (--retry-base-ms, --retry-seed), honoring the
  daemon's retry_after_ms hint when a shed attaches one.

exit codes: 0 success, 2 usage error / bad request, 3 graph load failure
  or unknown graph, 4 dirty input refused by --strict, 5 mining worker
  panic, 6 unsupported flag combination, 7 plan failed static
  verification, 8 daemon overloaded, 9 query cancelled or past deadline,
  10 daemon unreachable, 11 query memory budget exceeded";

impl Options {
    /// Parses a command line (without the program name).
    ///
    /// # Errors
    ///
    /// Returns [`UsageError`] on unknown flags, missing values, malformed
    /// sources/patterns, or missing required arguments.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Options, UsageError> {
        let mut graph = None;
        let mut patterns = Vec::new();
        let mut engine = Engine::Software;
        let mut pes = 1usize;
        let mut ius = 24usize;
        let mut edge_induced = false;
        let mut reorder_degree = false;
        let mut optimize_order = false;
        let mut threads = default_threads();
        let mut bitmap_hubs = fingers_mining::config::DEFAULT_BITMAP_HUBS;
        let mut count_fusion = true;
        let mut simd = true;
        let mut query_mem_budget = None;
        let mut sanitize = false;
        let mut strict = false;
        let mut json = false;

        let mut it = args.into_iter();
        while let Some(arg) = it.next() {
            let mut value_for = |name: &str| {
                it.next()
                    .ok_or_else(|| UsageError(format!("{name} requires a value")))
            };
            match arg.as_str() {
                "--graph" => graph = Some(parse_graph_source(&value_for("--graph")?)?),
                "--pattern" => {
                    let spec = value_for("--pattern")?;
                    let p = parse_pattern(&spec)
                        .map_err(|e| UsageError(format!("--pattern {spec:?}: {e}")))?;
                    patterns.push(p);
                }
                "--engine" => {
                    engine = match value_for("--engine")?.as_str() {
                        "software" => Engine::Software,
                        "fingers" => Engine::Fingers,
                        "flexminer" => Engine::Flexminer,
                        "oblivious" => Engine::Oblivious,
                        other => return Err(UsageError(format!("unknown engine {other:?}"))),
                    }
                }
                "--pes" => {
                    pes = value_for("--pes")?
                        .parse()
                        .map_err(|_| UsageError("--pes must be a positive integer".into()))?
                }
                "--ius" => {
                    ius = value_for("--ius")?
                        .parse()
                        .map_err(|_| UsageError("--ius must be a positive integer".into()))?
                }
                "--threads" => {
                    threads = value_for("--threads")?
                        .parse()
                        .map_err(|_| UsageError("--threads must be a positive integer".into()))?
                }
                "--bitmap-hubs" => {
                    bitmap_hubs = value_for("--bitmap-hubs")?
                        .parse()
                        .map_err(|_| UsageError("--bitmap-hubs must be an integer".into()))?
                }
                "--no-bitmap" => bitmap_hubs = 0,
                "--no-count-fusion" => count_fusion = false,
                "--no-simd" => simd = false,
                "--query-mem-budget" => {
                    query_mem_budget = Some(
                        value_for("--query-mem-budget")?
                            .parse::<u64>()
                            .map_err(|_| {
                                UsageError("--query-mem-budget must be an integer".into())
                            })?,
                    )
                }
                "--sanitize" => sanitize = true,
                "--strict" => strict = true,
                "--json" => json = true,
                "--edge-induced" => edge_induced = true,
                "--reorder-degree" => reorder_degree = true,
                "--optimize-order" => optimize_order = true,
                "--help" | "-h" => return Err(UsageError("help requested".into())),
                other => return Err(UsageError(format!("unknown argument {other:?}"))),
            }
        }
        let graph = graph.ok_or_else(|| UsageError("--graph is required".into()))?;
        if patterns.is_empty() {
            return Err(UsageError("at least one --pattern is required".into()));
        }
        if pes == 0 || ius == 0 {
            return Err(UsageError("--pes and --ius must be positive".into()));
        }
        if threads == 0 {
            return Err(UsageError("--threads must be positive".into()));
        }
        if sanitize && strict {
            return Err(UsageError(
                "--sanitize and --strict are mutually exclusive".into(),
            ));
        }
        Ok(Options {
            graph,
            patterns,
            engine,
            pes,
            ius,
            edge_induced,
            reorder_degree,
            optimize_order,
            threads,
            bitmap_hubs,
            count_fusion,
            simd,
            query_mem_budget,
            sanitize,
            strict,
            json,
        })
    }
}

/// Options for the `verify-plan` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct VerifyPlanOptions {
    /// The pattern whose compiled plan is verified.
    pub pattern: Pattern,
    /// Edge-induced instead of vertex-induced semantics.
    pub edge_induced: bool,
    /// Compile with the cost-model order optimizer (representative graph
    /// parameters) instead of the greedy connected order.
    pub optimize_order: bool,
    /// Apply this named corruption from the mutation corpus before
    /// verifying, to demonstrate the failure path.
    pub mutate: Option<PlanMutation>,
}

/// Options for the `serve` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeOptions {
    /// Unix-socket path to bind.
    pub socket: String,
    /// `(name, spec)` pairs from repeated `--load name=spec` flags.
    pub graphs: Vec<(String, String)>,
    /// Worker pool size (`None` = scheduler default).
    pub workers: Option<usize>,
    /// Admission queue depth (`None` = scheduler default).
    pub queue_depth: Option<usize>,
    /// Per-query thread-budget cap (`None` = scheduler default).
    pub max_threads: Option<usize>,
    /// Deadline for queries without their own, in milliseconds.
    pub default_timeout_ms: Option<u64>,
    /// Hub budget for the bitmap kernel tier (0 disables it).
    pub bitmap_hubs: usize,
    /// SIMD kernel tier for query execution (`--no-simd` disables).
    pub simd: bool,
    /// Global scratch-memory budget, in bytes: the degradation ladder's
    /// pressure thresholds are percentages of this (`None` = ungoverned).
    pub mem_budget: Option<u64>,
    /// Per-query scratch-memory budget, in bytes; a query exceeding it
    /// fails typed with a `mem-budget` response (client exit 11).
    pub query_mem_budget: Option<u64>,
}

/// Options for the `client` subcommand.
#[derive(Debug, Clone, PartialEq)]
pub struct ClientOptions {
    /// Unix-socket path of the daemon.
    pub socket: String,
    /// The raw request line to send (one JSON object).
    pub request: String,
    /// Retries for `overloaded` responses (0 = fail fast).
    pub retries: u32,
    /// Base delay of the exponential backoff schedule, in milliseconds.
    pub retry_base_ms: u64,
    /// Seed of the backoff jitter stream (same seed → same delays).
    pub retry_seed: u64,
}

/// A parsed command line: a mining run, a plan verification, the service
/// daemon, or a one-shot service client.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// The default mining command (`--graph … --pattern …`).
    Mine(Options),
    /// `verify-plan <spec> [--edge-induced] [--optimize-order] [--mutate <name>]`.
    VerifyPlan(VerifyPlanOptions),
    /// `serve --socket <path> --load <name>=<src> …`.
    Serve(ServeOptions),
    /// `client --socket <path> <request-json-line>`.
    Client(ClientOptions),
}

impl Command {
    /// Parses a command line (without the program name): a leading
    /// `verify-plan`, `serve`, or `client` selects that subcommand,
    /// anything else is the mining command.
    ///
    /// # Errors
    ///
    /// Returns [`UsageError`] under the same conditions as
    /// [`Options::parse`], plus subcommand-specific ones (missing or
    /// repeated pattern spec, unknown mutation name, missing socket,
    /// malformed `--load`).
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Command, UsageError> {
        let mut it = args.into_iter().peekable();
        match it.peek().map(String::as_str) {
            Some("serve") => {
                it.next();
                return Ok(Command::Serve(parse_serve(it)?));
            }
            Some("client") => {
                it.next();
                return Ok(Command::Client(parse_client(it)?));
            }
            Some("verify-plan") => {}
            _ => return Ok(Command::Mine(Options::parse(it)?)),
        }
        it.next();

        let mut spec: Option<String> = None;
        let mut edge_induced = false;
        let mut optimize_order = false;
        let mut mutate = None;
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--edge-induced" => edge_induced = true,
                "--optimize-order" => optimize_order = true,
                "--mutate" => {
                    let name = it
                        .next()
                        .ok_or_else(|| UsageError("--mutate requires a value".into()))?;
                    if name == "list" {
                        let names: Vec<&str> = PlanMutation::ALL.iter().map(|m| m.name()).collect();
                        return Err(UsageError(format!(
                            "available mutations: {}",
                            names.join(", ")
                        )));
                    }
                    mutate = Some(PlanMutation::from_name(&name).ok_or_else(|| {
                        UsageError(format!("unknown mutation {name:?} (try --mutate list)"))
                    })?);
                }
                "--help" | "-h" => return Err(UsageError("help requested".into())),
                other if other.starts_with('-') => {
                    return Err(UsageError(format!("unknown argument {other:?}")))
                }
                _ if spec.is_none() => spec = Some(arg),
                other => {
                    return Err(UsageError(format!(
                        "verify-plan takes one pattern spec, got extra {other:?}"
                    )))
                }
            }
        }
        let spec = spec.ok_or_else(|| UsageError("verify-plan requires a pattern spec".into()))?;
        let pattern =
            parse_pattern(&spec).map_err(|e| UsageError(format!("verify-plan {spec:?}: {e}")))?;
        Ok(Command::VerifyPlan(VerifyPlanOptions {
            pattern,
            edge_induced,
            optimize_order,
            mutate,
        }))
    }
}

fn parse_serve<I: Iterator<Item = String>>(mut it: I) -> Result<ServeOptions, UsageError> {
    let mut socket = None;
    let mut graphs = Vec::new();
    let mut workers = None;
    let mut queue_depth = None;
    let mut max_threads = None;
    let mut default_timeout_ms = None;
    let mut bitmap_hubs = fingers_mining::config::DEFAULT_BITMAP_HUBS;
    let mut simd = true;
    let mut mem_budget = None;
    let mut query_mem_budget = None;
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| {
            it.next()
                .ok_or_else(|| UsageError(format!("{name} requires a value")))
        };
        let parse_pos = |s: String, name: &str| {
            s.parse::<usize>()
                .ok()
                .filter(|&n| n > 0)
                .ok_or_else(|| UsageError(format!("{name} must be a positive integer")))
        };
        match arg.as_str() {
            "--socket" => socket = Some(value_for("--socket")?),
            "--load" => {
                let pair = value_for("--load")?;
                let (name, spec) = pair.split_once('=').ok_or_else(|| {
                    UsageError(format!("--load must be <name>=<src>, got {pair:?}"))
                })?;
                if name.is_empty() || spec.is_empty() {
                    return Err(UsageError(format!(
                        "--load needs a nonempty name and source in {pair:?}"
                    )));
                }
                graphs.push((name.to_owned(), spec.to_owned()));
            }
            "--workers" => workers = Some(parse_pos(value_for("--workers")?, "--workers")?),
            "--queue-depth" => {
                queue_depth = Some(parse_pos(value_for("--queue-depth")?, "--queue-depth")?)
            }
            "--max-threads" => {
                max_threads = Some(parse_pos(value_for("--max-threads")?, "--max-threads")?)
            }
            "--default-timeout-ms" => {
                default_timeout_ms = Some(
                    value_for("--default-timeout-ms")?
                        .parse::<u64>()
                        .map_err(|_| {
                            UsageError("--default-timeout-ms must be an integer".into())
                        })?,
                )
            }
            "--bitmap-hubs" => {
                bitmap_hubs = value_for("--bitmap-hubs")?
                    .parse()
                    .map_err(|_| UsageError("--bitmap-hubs must be an integer".into()))?
            }
            "--no-bitmap" => bitmap_hubs = 0,
            "--no-simd" => simd = false,
            "--mem-budget" => {
                mem_budget = Some(
                    value_for("--mem-budget")?
                        .parse::<u64>()
                        .map_err(|_| UsageError("--mem-budget must be an integer".into()))?,
                )
            }
            "--query-mem-budget" => {
                query_mem_budget = Some(
                    value_for("--query-mem-budget")?
                        .parse::<u64>()
                        .map_err(|_| UsageError("--query-mem-budget must be an integer".into()))?,
                )
            }
            "--help" | "-h" => return Err(UsageError("help requested".into())),
            other => return Err(UsageError(format!("unknown serve argument {other:?}"))),
        }
    }
    let socket = socket.ok_or_else(|| UsageError("serve requires --socket".into()))?;
    if graphs.is_empty() {
        return Err(UsageError(
            "serve requires at least one --load <name>=<src>".into(),
        ));
    }
    Ok(ServeOptions {
        socket,
        graphs,
        workers,
        queue_depth,
        max_threads,
        default_timeout_ms,
        bitmap_hubs,
        simd,
        mem_budget,
        query_mem_budget,
    })
}

fn parse_client<I: Iterator<Item = String>>(mut it: I) -> Result<ClientOptions, UsageError> {
    let mut socket = None;
    let mut request = None;
    let mut retries = 0u32;
    let mut retry_base_ms = fingers_server::RetryPolicy::default().base_ms;
    let mut retry_seed = 0u64;
    while let Some(arg) = it.next() {
        let mut value_for = |name: &str| {
            it.next()
                .ok_or_else(|| UsageError(format!("{name} requires a value")))
        };
        match arg.as_str() {
            "--socket" => socket = Some(value_for("--socket")?),
            "--retries" => {
                retries = value_for("--retries")?
                    .parse()
                    .map_err(|_| UsageError("--retries must be an integer".into()))?
            }
            "--retry-base-ms" => {
                retry_base_ms = value_for("--retry-base-ms")?
                    .parse()
                    .map_err(|_| UsageError("--retry-base-ms must be an integer".into()))?
            }
            "--retry-seed" => {
                retry_seed = value_for("--retry-seed")?
                    .parse()
                    .map_err(|_| UsageError("--retry-seed must be an integer".into()))?
            }
            "--help" | "-h" => return Err(UsageError("help requested".into())),
            other if other.starts_with("--") => {
                return Err(UsageError(format!("unknown client argument {other:?}")))
            }
            _ if request.is_none() => request = Some(arg),
            other => {
                return Err(UsageError(format!(
                    "client takes one request line, got extra {other:?}"
                )))
            }
        }
    }
    Ok(ClientOptions {
        socket: socket.ok_or_else(|| UsageError("client requires --socket".into()))?,
        request: request.ok_or_else(|| UsageError("client requires a request JSON line".into()))?,
        retries,
        retry_base_ms,
        retry_seed,
    })
}

/// Starts the mining daemon and blocks until a `shutdown` request, a
/// SIGINT/SIGTERM, or a failure. Prints one `listening on <socket>` line
/// once ready, so scripts can wait for it. A termination signal takes the
/// same orderly path as a protocol `shutdown`: tracked connections are
/// force-closed, the pool drained, and the socket file removed.
///
/// # Errors
///
/// [`CliError::GraphLoad`] when a `--load` spec fails to load, or
/// [`CliError::Transport`] when the socket cannot be bound.
pub fn run_serve(options: &ServeOptions) -> Result<(), CliError> {
    let defaults = fingers_server::SchedulerConfig::default();
    let sched = fingers_server::SchedulerConfig {
        workers: options.workers.unwrap_or(defaults.workers),
        queue_depth: options.queue_depth.unwrap_or(defaults.queue_depth),
        max_threads_per_query: options
            .max_threads
            .unwrap_or(defaults.max_threads_per_query),
        default_timeout: options
            .default_timeout_ms
            .map(std::time::Duration::from_millis),
        mem_budget: options.mem_budget,
        ..defaults
    };
    let engine = EngineConfig {
        bitmap_hubs: options.bitmap_hubs,
        simd: options.simd,
        query_mem_budget: options.query_mem_budget,
        ..EngineConfig::default()
    };
    let daemon = fingers_server::Daemon::start(fingers_server::DaemonConfig {
        socket: options.socket.clone().into(),
        graphs: options.graphs.clone(),
        engine,
        sched,
    })
    .map_err(|e| {
        if e.starts_with("cannot bind") || e.starts_with("cannot replace") {
            CliError::Transport(e)
        } else {
            CliError::GraphLoad(e)
        }
    })?;
    println!("listening on {}", daemon.socket().display());

    // Latch SIGINT/SIGTERM and poll the flag from a watcher thread: the
    // handler itself may only flip an atomic, so the orderly shutdown
    // (close connections, join pool, unlink socket) runs out here.
    let termination = fingers_server::signals::install_termination_flag();
    let handle = daemon.shutdown_handle();
    let done = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = {
        let done = std::sync::Arc::clone(&done);
        std::thread::spawn(move || {
            // ord: seqcst(one-shot watchdog handshake off the hot path)
            while !done.load(std::sync::atomic::Ordering::SeqCst) {
                // ord: seqcst(one-shot watchdog handshake off the hot path)
                if termination.load(std::sync::atomic::Ordering::SeqCst) {
                    handle.shutdown();
                    break;
                }
                std::thread::sleep(std::time::Duration::from_millis(50));
            }
        })
    };
    daemon.wait();
    // ord: seqcst(one-shot watchdog handshake off the hot path)
    done.store(true, std::sync::atomic::Ordering::SeqCst);
    watcher.join().ok();
    Ok(())
}

/// Sends one request line to a running daemon; returns the response line
/// and the exit code it maps to (0 ok, 2–11 typed failures — the same
/// codes the one-shot commands use). With `--retries`, `overloaded`
/// responses are retried under deterministic seeded exponential backoff,
/// honoring the daemon's `retry_after_ms` hint.
///
/// # Errors
///
/// [`CliError::Transport`] (exit 10) when the daemon cannot be reached
/// or the connection breaks mid-request.
pub fn run_client(options: &ClientOptions) -> Result<(String, u8), CliError> {
    let policy = fingers_server::RetryPolicy {
        retries: options.retries,
        base_ms: options.retry_base_ms,
        seed: options.retry_seed,
    };
    let line = fingers_server::Client::connect(std::path::Path::new(&options.socket))
        .and_then(|mut c| c.request_with_backoff(&options.request, &policy))
        .map_err(CliError::Transport)?;
    let code = match fingers_server::Json::parse(&line) {
        Ok(v) => fingers_server::proto::exit_code_for_response(&v),
        Err(_) => 10,
    };
    Ok((line, code))
}

/// Result of a `verify-plan` run: the (possibly mutated) plan rendered
/// for humans and the verifier's report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VerifyPlanOutcome {
    /// `Display` rendering of the verified plan.
    pub plan_text: String,
    /// The verifier's report (sound, or only warnings).
    pub report: VerifyReport,
    /// Name of the applied mutation, when one was requested.
    pub mutated: Option<&'static str>,
}

/// Compiles the pattern, optionally applies a corpus mutation, and runs
/// the static plan verifier.
///
/// # Errors
///
/// [`CliError::InvalidPlan`] (exit 7) when verification finds an
/// error-severity diagnostic; [`CliError::Unsupported`] (exit 6) when the
/// requested mutation has no site in this plan.
pub fn run_verify_plan(options: &VerifyPlanOptions) -> Result<VerifyPlanOutcome, CliError> {
    let induced = if options.edge_induced {
        Induced::Edge
    } else {
        Induced::Vertex
    };
    let plan = if options.optimize_order {
        // Representative mid-size graph parameters; the order only shifts
        // which sound plan we verify, never its soundness.
        ExecutionPlan::compile_optimized(&options.pattern, induced, 100_000.0, 5e-4)
    } else {
        ExecutionPlan::compile(&options.pattern, induced)
    };
    let (plan, mutated) = match options.mutate {
        None => (plan, None),
        Some(m) => match m.apply(&plan) {
            Some(p) => (p, Some(m.name())),
            None => {
                return Err(CliError::Unsupported(format!(
                    "mutation {} has no site in the {} plan",
                    m.name(),
                    options.pattern
                )))
            }
        },
    };
    let report = fingers_verify::verify(&plan);
    let plan_text = plan.to_string();
    if report.is_sound() {
        Ok(VerifyPlanOutcome {
            plan_text,
            report,
            mutated,
        })
    } else {
        Err(CliError::InvalidPlan(report))
    }
}

/// The `--threads` default: the machine's available hardware parallelism,
/// or 1 when that cannot be determined.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn parse_graph_source(spec: &str) -> Result<GraphSource, UsageError> {
    if let Some(abbrev) = spec.strip_prefix("dataset:") {
        let dataset = Dataset::ALL
            .into_iter()
            .find(|d| {
                d.abbrev().eq_ignore_ascii_case(abbrev) || d.name().eq_ignore_ascii_case(abbrev)
            })
            .ok_or_else(|| UsageError(format!("unknown dataset {abbrev:?}")))?;
        return Ok(GraphSource::Dataset(dataset));
    }
    if let Some(rest) = spec.strip_prefix("gen:") {
        let parts: Vec<&str> = rest.split(':').collect();
        if parts.len() != 4 {
            return Err(UsageError(format!(
                "generator spec {spec:?} must be gen:<er|pl>:<n>:<m>:<seed>"
            )));
        }
        let parse_num = |s: &str, what: &str| {
            s.parse::<u64>()
                .map_err(|_| UsageError(format!("bad {what} in {spec:?}")))
        };
        let n = parse_num(parts[1], "vertex count")? as usize;
        let m = parse_num(parts[2], "edge count")? as usize;
        let seed = parse_num(parts[3], "seed")?;
        return match parts[0] {
            "er" => Ok(GraphSource::ErdosRenyi { n, m, seed }),
            "pl" => Ok(GraphSource::PowerLaw { n, m, seed }),
            other => Err(UsageError(format!("unknown generator {other:?}"))),
        };
    }
    Ok(GraphSource::File(spec.to_owned()))
}

impl GraphSource {
    /// Loads/generates the graph.
    ///
    /// # Errors
    ///
    /// I/O and parse errors for file sources.
    pub fn load(&self) -> Result<CsrGraph, Box<dyn Error>> {
        Ok(match self {
            GraphSource::File(path) => {
                let file = std::fs::File::open(path)?;
                fingers_graph::io::read_edge_list(std::io::BufReader::new(file))?
            }
            GraphSource::Dataset(d) => d.load(),
            GraphSource::ErdosRenyi { n, m, seed } => {
                fingers_graph::gen::erdos_renyi(*n, *m, *seed)
            }
            GraphSource::PowerLaw { n, m, seed } => fingers_graph::gen::chung_lu_power_law(
                &fingers_graph::gen::ChungLuConfig::new(*n, *m, *seed),
            ),
        })
    }
}

/// Result of one mining run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// Per-pattern embedding counts.
    pub counts: Vec<u64>,
    /// Simulated cycles (accelerator engines only).
    pub cycles: Option<u64>,
    /// Human-readable engine description.
    pub engine: String,
    /// Ingestion repair report (`--sanitize`/`--strict` with a file source).
    pub sanitize: Option<SanitizeReport>,
}

/// Renders a finished run as the machine-readable report line `--json`
/// prints — the *same* schema ([`fingers_server::CountReport`]) the
/// daemon's count responses carry, so scripts can treat one-shot runs and
/// service queries interchangeably.
pub fn json_report(options: &Options, outcome: &RunOutcome, wall_ms: f64) -> String {
    fingers_server::CountReport {
        patterns: options.patterns.iter().map(Pattern::to_string).collect(),
        counts: outcome.counts.clone(),
        total: outcome.counts.iter().sum(),
        engine: outcome.engine.clone(),
        wall_ms,
    }
    .render()
}

/// Loads the graph honoring `--sanitize`/`--strict`.
///
/// Only file sources can be dirty; datasets and generators are clean by
/// construction, so they never produce a report.
fn load_graph(options: &Options) -> Result<(CsrGraph, Option<SanitizeReport>), CliError> {
    match &options.graph {
        GraphSource::File(path) if options.sanitize || options.strict => {
            let file = std::fs::File::open(path)
                .map_err(|e| CliError::GraphLoad(format!("{path}: {e}")))?;
            let (graph, report) = fingers_graph::io::read_edge_list_sanitized(
                std::io::BufReader::new(file),
                &SanitizeOptions::default(),
            )
            .map_err(|e| CliError::GraphLoad(format!("{path}: {e}")))?;
            if options.strict && !report.is_clean() {
                return Err(CliError::DirtyInput(report));
            }
            Ok((graph, Some(report)))
        }
        source => source
            .load()
            .map(|g| (g, None))
            .map_err(|e| CliError::GraphLoad(e.to_string())),
    }
}

/// Executes the configured mining run.
///
/// # Errors
///
/// Returns a [`CliError`] carrying a distinct exit code per failure mode:
/// graph loading/parsing, a `--strict` refusal, a worker panic in the
/// software engine, or an unsupported flag combination.
pub fn run(options: &Options) -> Result<RunOutcome, CliError> {
    let (mut graph, sanitize_report) = load_graph(options)?;
    if options.reorder_degree {
        graph = reorder::by_degree_descending(&graph).graph;
    }
    let induced = if options.edge_induced {
        Induced::Edge
    } else {
        Induced::Vertex
    };

    let multi = if options.optimize_order {
        let n = graph.vertex_count() as f64;
        let density = (graph.avg_degree() / (n - 1.0).max(1.0)).clamp(1e-9, 1.0 - 1e-9);
        let plans: Vec<_> = options
            .patterns
            .iter()
            .map(|p| fingers_pattern::ExecutionPlan::compile_optimized(p, induced, n, density))
            .collect();
        MultiPlan::from_plans("cli", plans)
    } else {
        MultiPlan::new("cli", &options.patterns, induced)
    };

    Ok(match options.engine {
        Engine::Software => {
            let config = EngineConfig {
                bitmap_hubs: options.bitmap_hubs,
                fuse_terminal_counts: options.count_fusion,
                simd: options.simd,
                query_mem_budget: options.query_mem_budget,
                ..EngineConfig::default()
            };
            let out = try_count_multi_parallel_with(&graph, &multi, options.threads, &config)
                .map_err(|e| {
                    if e.mem_budget().is_some() {
                        CliError::MemBudget(e)
                    } else {
                        CliError::Engine(e)
                    }
                })?;
            let tier = if config.bitmap_enabled() {
                format!("bitmap hubs {}", config.bitmap_hubs)
            } else {
                "bitmap off".to_owned()
            };
            let fusion = if config.fuse_terminal_counts {
                ""
            } else {
                ", count fusion off"
            };
            let simd = if config.simd { "" } else { ", simd off" };
            RunOutcome {
                counts: out.per_pattern,
                cycles: None,
                engine: format!(
                    "software (plan-driven DFS, {} thread{}, {tier}{fusion}{simd})",
                    options.threads,
                    if options.threads == 1 { "" } else { "s" }
                ),
                sanitize: sanitize_report,
            }
        }
        Engine::Oblivious => {
            if induced == Induced::Edge {
                return Err(CliError::Unsupported(
                    "the oblivious engine supports vertex-induced mining only".into(),
                ));
            }
            let counts = options
                .patterns
                .iter()
                .map(|p| oblivious::count_embeddings_oblivious_parallel(&graph, p, options.threads))
                .collect();
            RunOutcome {
                counts,
                cycles: None,
                engine: format!(
                    "pattern-oblivious (ESU + isomorphism checks, {} thread{})",
                    options.threads,
                    if options.threads == 1 { "" } else { "s" }
                ),
                sanitize: sanitize_report,
            }
        }
        Engine::Fingers => {
            let cfg = ChipConfig {
                num_pes: options.pes,
                pe: PeConfig {
                    num_ius: options.ius,
                    ..PeConfig::default()
                },
                ..ChipConfig::default()
            };
            let r = simulate_fingers(&graph, &multi, &cfg);
            RunOutcome {
                counts: r.embeddings,
                cycles: Some(r.cycles),
                engine: format!("FINGERS ({} PE × {} IU)", options.pes, options.ius),
                sanitize: sanitize_report,
            }
        }
        Engine::Flexminer => {
            let cfg = FlexMinerChipConfig {
                num_pes: options.pes,
                ..FlexMinerChipConfig::default()
            };
            let r = simulate_flexminer(&graph, &multi, &cfg);
            RunOutcome {
                counts: r.embeddings,
                cycles: Some(r.cycles),
                engine: format!("FlexMiner ({} PE)", options.pes),
                sanitize: sanitize_report,
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_full_command_line() {
        let o = Options::parse(args(
            "--graph gen:er:100:300:7 --pattern tc --pattern cyc --engine fingers --pes 4 --ius 16 --edge-induced",
        ))
        .expect("valid");
        assert_eq!(
            o.graph,
            GraphSource::ErdosRenyi {
                n: 100,
                m: 300,
                seed: 7
            }
        );
        assert_eq!(o.patterns.len(), 2);
        assert_eq!(o.engine, Engine::Fingers);
        assert_eq!(o.pes, 4);
        assert_eq!(o.ius, 16);
        assert!(o.edge_induced);
    }

    #[test]
    fn dataset_and_file_sources() {
        let o = Options::parse(args("--graph dataset:Mi --pattern tc")).expect("valid");
        assert_eq!(o.graph, GraphSource::Dataset(Dataset::Mico));
        let o = Options::parse(args("--graph edges.txt --pattern tc")).expect("valid");
        assert_eq!(o.graph, GraphSource::File("edges.txt".into()));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Options::parse(args("--pattern tc")).is_err()); // no graph
        assert!(Options::parse(args("--graph gen:er:10:5:1")).is_err()); // no pattern
        assert!(Options::parse(args("--graph gen:er:10:5 --pattern tc")).is_err());
        assert!(Options::parse(args("--graph g --pattern zzz")).is_err());
        assert!(Options::parse(args("--graph g --pattern tc --engine gpu")).is_err());
        assert!(Options::parse(args("--graph g --pattern tc --bogus")).is_err());
        assert!(Options::parse(args("--graph g --pattern tc --pes 0")).is_err());
        assert!(Options::parse(args("--graph g --pattern tc --threads 0")).is_err());
        assert!(Options::parse(args("--graph g --pattern tc --threads x")).is_err());
    }

    #[test]
    fn threads_flag_parses_and_defaults() {
        let o = Options::parse(args("--graph g --pattern tc --threads 3")).expect("valid");
        assert_eq!(o.threads, 3);
        let o = Options::parse(args("--graph g --pattern tc")).expect("valid");
        assert_eq!(o.threads, default_threads());
        assert!(o.threads >= 1);
    }

    #[test]
    fn thread_count_does_not_change_counts() {
        let base = "--graph gen:er:50:160:9 --pattern tc --pattern cyc";
        let one = run(&Options::parse(args(&format!("{base} --threads 1"))).unwrap()).unwrap();
        let four = run(&Options::parse(args(&format!("{base} --threads 4"))).unwrap()).unwrap();
        assert_eq!(one.counts, four.counts);
        assert!(four.engine.contains("4 threads"));
    }

    #[test]
    fn bitmap_flags_parse_and_default() {
        let o = Options::parse(args("--graph g --pattern tc")).expect("valid");
        assert_eq!(o.bitmap_hubs, fingers_mining::config::DEFAULT_BITMAP_HUBS);
        let o = Options::parse(args("--graph g --pattern tc --bitmap-hubs 7")).expect("valid");
        assert_eq!(o.bitmap_hubs, 7);
        let o = Options::parse(args("--graph g --pattern tc --no-bitmap")).expect("valid");
        assert_eq!(o.bitmap_hubs, 0);
        assert!(Options::parse(args("--graph g --pattern tc --bitmap-hubs x")).is_err());
        assert!(Options::parse(args("--graph g --pattern tc --bitmap-hubs")).is_err());
    }

    #[test]
    fn bitmap_toggle_does_not_change_counts() {
        let base = "--graph gen:pl:120:700:4 --pattern tc --pattern 4cl --threads 2";
        let on = run(&Options::parse(args(base)).unwrap()).unwrap();
        let off = run(&Options::parse(args(&format!("{base} --no-bitmap"))).unwrap()).unwrap();
        assert_eq!(on.counts, off.counts);
        assert!(on.engine.contains("bitmap hubs 1024"), "{}", on.engine);
        assert!(off.engine.contains("bitmap off"), "{}", off.engine);
    }

    #[test]
    fn count_fusion_flag_parses_and_defaults_on() {
        let o = Options::parse(args("--graph g --pattern tc")).expect("valid");
        assert!(o.count_fusion);
        let o = Options::parse(args("--graph g --pattern tc --no-count-fusion")).expect("valid");
        assert!(!o.count_fusion);
    }

    #[test]
    fn count_fusion_toggle_does_not_change_counts() {
        let base = "--graph gen:pl:120:700:4 --pattern tc --pattern 4cl --threads 2";
        let fused = run(&Options::parse(args(base)).unwrap()).unwrap();
        let unfused =
            run(&Options::parse(args(&format!("{base} --no-count-fusion"))).unwrap()).unwrap();
        assert_eq!(fused.counts, unfused.counts);
        assert!(
            !fused.engine.contains("count fusion off"),
            "{}",
            fused.engine
        );
        assert!(
            unfused.engine.contains("count fusion off"),
            "{}",
            unfused.engine
        );
    }

    #[test]
    fn simd_flag_parses_and_defaults_on() {
        let o = Options::parse(args("--graph g --pattern tc")).expect("valid");
        assert!(o.simd);
        let o = Options::parse(args("--graph g --pattern tc --no-simd")).expect("valid");
        assert!(!o.simd);
    }

    #[test]
    fn simd_toggle_does_not_change_counts() {
        let base = "--graph gen:pl:120:700:4 --pattern tc --pattern 4cl --threads 2";
        let on = run(&Options::parse(args(base)).unwrap()).unwrap();
        let off = run(&Options::parse(args(&format!("{base} --no-simd"))).unwrap()).unwrap();
        assert_eq!(on.counts, off.counts);
        assert!(!on.engine.contains("simd off"), "{}", on.engine);
        assert!(off.engine.contains("simd off"), "{}", off.engine);
    }

    #[test]
    fn usage_error_displays_usage() {
        let e = Options::parse(args("--help")).unwrap_err();
        assert!(e.to_string().contains("usage: fingers-mine"));
    }

    #[test]
    fn sanitize_and_strict_flags_parse() {
        let o = Options::parse(args("--graph g --pattern tc")).expect("valid");
        assert!(!o.sanitize && !o.strict);
        let o = Options::parse(args("--graph g --pattern tc --sanitize")).expect("valid");
        assert!(o.sanitize && !o.strict);
        let o = Options::parse(args("--graph g --pattern tc --strict")).expect("valid");
        assert!(!o.sanitize && o.strict);
        assert!(Options::parse(args("--graph g --pattern tc --sanitize --strict")).is_err());
    }

    #[test]
    fn exit_codes_are_distinct_per_error_path() {
        let usage = CliError::from(UsageError("x".into()));
        let load = CliError::GraphLoad("x".into());
        let dirty = CliError::DirtyInput(SanitizeReport::default());
        let unsupported = CliError::Unsupported("x".into());
        let codes = [
            usage.exit_code(),
            load.exit_code(),
            dirty.exit_code(),
            unsupported.exit_code(),
        ];
        assert_eq!(codes, [2, 3, 4, 6]);
        for code in codes {
            assert_ne!(code, 0);
        }
    }

    fn write_temp(name: &str, contents: &str) -> std::path::PathBuf {
        let path = std::env::temp_dir().join(format!("fingers-cli-{name}-{}", std::process::id()));
        std::fs::write(&path, contents).expect("write temp edge list");
        path
    }

    #[test]
    fn missing_file_is_a_graph_load_error() {
        let o = Options::parse(args("--graph /no/such/file --pattern tc")).unwrap();
        let e = run(&o).unwrap_err();
        assert!(matches!(e, CliError::GraphLoad(_)), "{e:?}");
        assert_eq!(e.exit_code(), 3);
    }

    #[test]
    fn sanitize_repairs_and_reports() {
        // Triangle with a self loop, a duplicate, and a trailing token.
        let path = write_temp("dirty", "0 1\n1 2\n0 2\n2 2\n1 0\n0 1 99\n");
        let spec = format!("--graph {} --pattern tc --sanitize", path.display());
        let out = run(&Options::parse(args(&spec)).unwrap()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(out.counts, vec![1]);
        let report = out.sanitize.expect("sanitize report");
        assert!(!report.is_clean());
        assert_eq!(report.self_loops_dropped, 1);
        assert!(report.duplicates_dropped >= 1);
        assert_eq!(report.trailing_token_lines, 1);
    }

    #[test]
    fn strict_refuses_dirty_and_accepts_clean() {
        let dirty = write_temp("strict-dirty", "0 1\n1 1\n1 2\n");
        let spec = format!("--graph {} --pattern tc --strict", dirty.display());
        let e = run(&Options::parse(args(&spec)).unwrap()).unwrap_err();
        std::fs::remove_file(&dirty).ok();
        assert!(matches!(e, CliError::DirtyInput(_)), "{e:?}");
        assert_eq!(e.exit_code(), 4);

        let clean = write_temp("strict-clean", "0 1\n0 2\n1 2\n");
        let spec = format!("--graph {} --pattern tc --strict", clean.display());
        let out = run(&Options::parse(args(&spec)).unwrap()).unwrap();
        std::fs::remove_file(&clean).ok();
        assert_eq!(out.counts, vec![1]);
        assert!(out.sanitize.expect("report").is_clean());
    }

    #[test]
    fn oblivious_edge_induced_is_unsupported() {
        let o = Options::parse(args(
            "--graph gen:er:20:40:1 --pattern tc --engine oblivious --edge-induced",
        ))
        .unwrap();
        let e = run(&o).unwrap_err();
        assert!(matches!(e, CliError::Unsupported(_)), "{e:?}");
        assert_eq!(e.exit_code(), 6);
    }

    #[test]
    fn run_software_engine() {
        let o = Options::parse(args("--graph gen:er:60:180:3 --pattern tc --pattern wedge"))
            .expect("valid");
        let out = run(&o).expect("runs");
        assert_eq!(out.counts.len(), 2);
        assert!(out.cycles.is_none());
    }

    #[test]
    fn engines_agree_on_counts() {
        let base = "--graph gen:er:50:150:5 --pattern tt";
        let sw = run(&Options::parse(args(base)).unwrap()).unwrap();
        let fi = run(&Options::parse(args(&format!("{base} --engine fingers"))).unwrap()).unwrap();
        let fm =
            run(&Options::parse(args(&format!("{base} --engine flexminer"))).unwrap()).unwrap();
        let ob =
            run(&Options::parse(args(&format!("{base} --engine oblivious"))).unwrap()).unwrap();
        assert_eq!(sw.counts, fi.counts);
        assert_eq!(sw.counts, fm.counts);
        assert_eq!(sw.counts, ob.counts);
        assert!(fi.cycles.is_some() && fm.cycles.is_some());
    }

    #[test]
    fn command_parse_dispatches() {
        let c = Command::parse(args("--graph g --pattern tc")).expect("mine");
        assert!(matches!(c, Command::Mine(_)));
        let c = Command::parse(args("verify-plan tt --edge-induced")).expect("verify");
        let Command::VerifyPlan(o) = c else {
            panic!("expected verify-plan")
        };
        assert_eq!(o.pattern, Pattern::tailed_triangle());
        assert!(o.edge_induced);
        assert!(o.mutate.is_none());
        let c = Command::parse(args("verify-plan cyc --mutate drop-restriction")).expect("mutate");
        let Command::VerifyPlan(o) = c else {
            panic!("expected verify-plan")
        };
        assert_eq!(o.mutate, Some(PlanMutation::DropRestriction));
    }

    #[test]
    fn command_parse_rejects_bad_verify_plan_lines() {
        assert!(Command::parse(args("verify-plan")).is_err()); // no spec
        assert!(Command::parse(args("verify-plan zzz")).is_err()); // bad spec
        assert!(Command::parse(args("verify-plan tc tt")).is_err()); // two specs
        assert!(Command::parse(args("verify-plan tc --mutate nope")).is_err());
        assert!(Command::parse(args("verify-plan tc --bogus")).is_err());
        // `--mutate list` surfaces the corpus names as a usage error.
        let e = Command::parse(args("verify-plan tc --mutate list")).unwrap_err();
        assert!(e.to_string().contains("drop-restriction"), "{e}");
    }

    #[test]
    fn verify_plan_clean_and_mutated() {
        for spec in ["tc", "tt", "cyc", "dia", "house"] {
            for extra in ["", " --edge-induced", " --optimize-order"] {
                let Command::VerifyPlan(o) =
                    Command::parse(args(&format!("verify-plan {spec}{extra}"))).unwrap()
                else {
                    panic!("expected verify-plan")
                };
                let out = run_verify_plan(&o).unwrap_or_else(|e| panic!("{spec}{extra}: {e}"));
                assert!(out.report.is_sound());
                assert!(out.plan_text.contains("level 0"));
            }
        }
        let Command::VerifyPlan(o) =
            Command::parse(args("verify-plan tt --mutate drop-init")).unwrap()
        else {
            panic!("expected verify-plan")
        };
        let e = run_verify_plan(&o).unwrap_err();
        assert!(matches!(e, CliError::InvalidPlan(_)), "{e:?}");
        assert_eq!(e.exit_code(), 7);
    }

    #[test]
    fn inapplicable_mutation_is_unsupported() {
        // Cliques have no subtractions to drop.
        let Command::VerifyPlan(o) =
            Command::parse(args("verify-plan tc --mutate drop-subtract")).unwrap()
        else {
            panic!("expected verify-plan")
        };
        let e = run_verify_plan(&o).unwrap_err();
        assert!(matches!(e, CliError::Unsupported(_)), "{e:?}");
        assert_eq!(e.exit_code(), 6);
    }

    #[test]
    fn serve_and_client_command_lines_parse() {
        let c = Command::parse(args(
            "serve --socket /tmp/s.sock --load g=gen:er:10:20:1 --load h=dataset:Mi --workers 2 --queue-depth 4 --max-threads 3 --default-timeout-ms 500 --mem-budget 1048576 --query-mem-budget 65536",
        ))
        .expect("serve");
        let Command::Serve(o) = c else {
            panic!("expected serve")
        };
        assert_eq!(o.socket, "/tmp/s.sock");
        assert_eq!(o.graphs.len(), 2);
        assert_eq!(o.graphs[0], ("g".into(), "gen:er:10:20:1".into()));
        assert_eq!(o.workers, Some(2));
        assert_eq!(o.queue_depth, Some(4));
        assert_eq!(o.max_threads, Some(3));
        assert_eq!(o.default_timeout_ms, Some(500));
        assert_eq!(o.mem_budget, Some(1 << 20));
        assert_eq!(o.query_mem_budget, Some(64 << 10));

        let c =
            Command::parse(args("client --socket /tmp/s.sock {\"op\":\"stats\"}")).expect("client");
        let Command::Client(o) = c else {
            panic!("expected client")
        };
        assert_eq!(o.socket, "/tmp/s.sock");
        assert_eq!(o.request, "{\"op\":\"stats\"}");
        assert_eq!((o.retries, o.retry_seed), (0, 0));

        let c = Command::parse(args(
            "client --socket /tmp/s.sock --retries 3 --retry-base-ms 10 --retry-seed 7 {\"op\":\"ping\"}",
        ))
        .expect("client with backoff");
        let Command::Client(o) = c else {
            panic!("expected client")
        };
        assert_eq!(o.retries, 3);
        assert_eq!(o.retry_base_ms, 10);
        assert_eq!(o.retry_seed, 7);

        assert!(Command::parse(args("serve --socket /tmp/s.sock")).is_err()); // no --load
        assert!(Command::parse(args("serve --load g=x")).is_err()); // no socket
        assert!(Command::parse(args("serve --socket s --load gx")).is_err()); // no '='
        assert!(Command::parse(args("serve --socket s --load g=x --workers 0")).is_err());
        assert!(Command::parse(args("serve --socket s --load g=x --mem-budget x")).is_err());
        assert!(Command::parse(args("client --socket s")).is_err()); // no request
        assert!(Command::parse(args("client x")).is_err()); // no socket
        assert!(Command::parse(args("client --socket s --retries x r")).is_err());
    }

    #[test]
    fn json_flag_emits_the_shared_count_report_schema() {
        let o = Options::parse(args("--graph gen:er:60:180:3 --pattern tc --json")).unwrap();
        assert!(o.json);
        let out = run(&o).unwrap();
        let line = json_report(&o, &out, 1.25);
        let v = fingers_server::Json::parse(&line).expect("valid json");
        use fingers_server::Json;
        for key in ["patterns", "counts", "total", "engine", "wall_ms"] {
            assert!(v.get(key).is_some(), "missing {key} in {line}");
        }
        assert_eq!(
            v.get("total").and_then(Json::as_u64),
            Some(out.counts.iter().sum::<u64>())
        );
        assert_eq!(
            fingers_server::proto::exit_code_for_response(&v),
            10,
            "a bare report has no status"
        );
    }

    #[test]
    fn new_error_variants_have_distinct_exit_codes() {
        assert_eq!(CliError::Overloaded("x".into()).exit_code(), 8);
        assert_eq!(CliError::Cancelled("x".into()).exit_code(), 9);
        assert_eq!(CliError::Transport("x".into()).exit_code(), 10);
        let budget = CliError::MemBudget(EngineError::MemBudgetExceeded {
            used_bytes: 10,
            budget_bytes: 5,
        });
        assert_eq!(budget.exit_code(), 11);
    }

    #[test]
    fn query_mem_budget_flag_parses_and_aborts_typed() {
        let o = Options::parse(args("--graph g --pattern tc")).expect("valid");
        assert_eq!(o.query_mem_budget, None);
        let o =
            Options::parse(args("--graph g --pattern tc --query-mem-budget 4096")).expect("valid");
        assert_eq!(o.query_mem_budget, Some(4096));
        assert!(Options::parse(args("--graph g --pattern tc --query-mem-budget x")).is_err());

        // A 1-byte budget cannot fit any miner's scratch: the run must
        // abort typed with exit 11, never report a partial count.
        let o = Options::parse(args(
            "--graph gen:pl:120:700:4 --pattern 4cl --threads 2 --query-mem-budget 1",
        ))
        .unwrap();
        let e = run(&o).unwrap_err();
        assert!(matches!(e, CliError::MemBudget(_)), "{e:?}");
        assert_eq!(e.exit_code(), 11);

        // A generous budget changes nothing about the counts.
        let base = "--graph gen:pl:120:700:4 --pattern 4cl --threads 2";
        let plain = run(&Options::parse(args(base)).unwrap()).unwrap();
        let governed = run(&Options::parse(args(&format!(
            "{base} --query-mem-budget {}",
            64u64 << 20
        )))
        .unwrap())
        .unwrap();
        assert_eq!(plain.counts, governed.counts);
    }

    #[test]
    fn client_round_trips_against_an_in_process_daemon() {
        let socket =
            std::env::temp_dir().join(format!("fingers-cli-daemon-{}.sock", std::process::id()));
        let daemon = fingers_server::Daemon::start(fingers_server::DaemonConfig {
            socket: socket.clone(),
            graphs: vec![("g".into(), "gen:er:100:400:3".into())],
            engine: EngineConfig::default(),
            sched: fingers_server::SchedulerConfig::default(),
        })
        .expect("daemon");
        let client = |request: &str| {
            run_client(&ClientOptions {
                socket: socket.display().to_string(),
                request: request.to_owned(),
                retries: 0,
                retry_base_ms: 25,
                retry_seed: 0,
            })
            .expect("transport ok")
        };
        let (line, code) = client(r#"{"op":"count","graph":"g","patterns":["tc"]}"#);
        assert_eq!(code, 0, "{line}");
        let (line, code) = client(r#"{"op":"verify-plan","pattern":"tt","mutate":"drop-init"}"#);
        assert_eq!(code, 7, "{line}");
        let (line, code) = client(r#"{"op":"count","graph":"nope","patterns":["tc"]}"#);
        assert_eq!(code, 3, "{line}");
        daemon.shutdown();
        daemon.wait();
        // With the daemon gone, the client reports a transport failure.
        let err = run_client(&ClientOptions {
            socket: socket.display().to_string(),
            request: r#"{"op":"stats"}"#.to_owned(),
            retries: 0,
            retry_base_ms: 25,
            retry_seed: 0,
        })
        .expect_err("no daemon");
        assert_eq!(err.exit_code(), 10);
    }

    #[test]
    fn optimize_order_and_reorder_preserve_counts() {
        let base = "--graph gen:pl:80:300:2 --pattern cyc";
        let plain = run(&Options::parse(args(base)).unwrap()).unwrap();
        let opt = run(&Options::parse(args(&format!("{base} --optimize-order"))).unwrap()).unwrap();
        let reord =
            run(&Options::parse(args(&format!("{base} --reorder-degree"))).unwrap()).unwrap();
        assert_eq!(plain.counts, opt.counts);
        assert_eq!(plain.counts, reord.counts);
    }
}
