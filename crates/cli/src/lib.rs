//! Library backing the `morphtree` command-line tool.
//!
//! Commands (see `morphtree help`):
//!
//! - `geometry` — integrity-tree sizes/heights for any memory size;
//! - `simulate` — run the full-system simulator on a Table II workload;
//! - `capture` / `replay` — record a workload to an `MTRC` trace file and
//!   drive the simulator from it;
//! - `sweep` — regenerate paper figures with the parallel sweep engine;
//! - `attack` — seeded fault-injection campaign against the functional
//!   model: randomized tamper/replay/splice attacks on every tree config,
//!   asserting 100% detection at the right tree location;
//! - `snapshot` — write a populated secure memory to a checksummed
//!   snapshot file (`--out`, `--shards N` for a sharded `MTSH` container),
//!   or recover one and re-verify every MAC bottom-up (`--verify`; sharded
//!   images are verified per shard and the first failing shard is named);
//! - `recover` — rebuild a memory from durable state with work bounded by
//!   the open epoch: `--snapshot FILE [--wal FILE]` for a single memory,
//!   `--state PREFIX` for a sharded container plus per-shard WALs (as
//!   written by `serve --epoch-ops ... --state-out PREFIX`), reporting
//!   per-shard recovery modes and quarantining — not dying on — bad
//!   shards;
//! - `prove` — emit a compact verifiable integrity proof for a set of
//!   data lines from a snapshot (`--lines 0,5,9 --out PROOF`), optionally
//!   publishing the checksummed root artifact (`--root-out`); sharded
//!   `MTSH` images compose per-shard sub-proofs under the folded top;
//! - `verify-proof` — check a proof against a published root (`--root
//!   HEX` or `--root-file`) with **no access to the memory image**; any
//!   tamper of proof or root exits with the integrity code;
//! - `crash-campaign` — seeded fault-injected crash drills against the
//!   epoch-bounded sharded engine: kills at random WAL offsets, crashes
//!   between the per-shard seals of a cut, and corrupted-log quarantine
//!   drills, each recovered and compared byte-for-byte against a
//!   full-replay oracle;
//! - `stats` — render a `--metrics` JSON file as a human-readable
//!   summary;
//! - `list` — available workloads and tree configurations.
//!
//! `simulate`, `sweep` and `attack` accept `--metrics PATH` to
//! dump an observability report (see [`metrics`]): histogram-backed DRAM
//! latencies, per-level metadata-cache activity, crypto-op counts, and
//! energy gauges, in one deterministic JSON schema.
//!
//! `simulate` and `sweep` accept `--snapshot FILE` / `--resume FILE` to
//! checkpoint results and resume interrupted runs: a resumed invocation
//! serves every run from the checkpoint and renders byte-identical
//! output, and a checkpoint taken under different flags is refused with
//! a typed error rather than silently blended.
//!
//! Argument parsing is hand-rolled (`--key value` flags) to keep the
//! dependency set minimal.
//!
//! Every error carries an [`ErrorKind`]: usage and I/O problems exit 1,
//! cryptographic integrity verdicts (tampered snapshots, failed proofs,
//! quarantined shards) exit 2 — see [`CliError::exit_code`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod metrics;
pub mod serve;

use std::collections::HashMap;
use std::fmt::Write as _;

use morphtree_core::attack::{campaign_configs, run_campaign, CampaignConfig};
use morphtree_core::obs::MetricsRegistry;
use morphtree_core::proof::{AnyProof, ProofStats};
use morphtree_core::tree::{TreeConfig, TreeGeometry};
use morphtree_sim::system::{simulate, simulate_nonsecure, SimConfig};
use morphtree_trace::catalog::{Benchmark, MIXES};
use morphtree_trace::io::RecordedTrace;
use morphtree_trace::workload::SystemWorkload;

/// How a [`CliError`] maps to a process exit code — the contract CI
/// scripts key on. Usage mistakes and I/O failures must stay
/// distinguishable from cryptographic verdicts: a deploy script retries a
/// missing file, but must never retry past a tamper detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Bad flags, unreadable/unwritable files, malformed requests — exit 1.
    Usage,
    /// A cryptographic integrity verdict: tampered snapshot, failed proof,
    /// mismatched root, quarantined shard — exit 2.
    Integrity,
}

/// Errors surfaced to the command line: a user-facing message plus the
/// [`ErrorKind`] that decides the exit code.
#[derive(Debug, PartialEq, Eq)]
pub struct CliError(pub String, pub ErrorKind);

impl CliError {
    /// The exit-code class of this error.
    #[must_use]
    pub fn kind(&self) -> ErrorKind {
        self.1
    }

    /// The process exit code this error maps to.
    #[must_use]
    pub fn exit_code(&self) -> u8 {
        match self.1 {
            ErrorKind::Usage => 1,
            ErrorKind::Integrity => 2,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for CliError {}

fn err(message: impl Into<String>) -> CliError {
    CliError(message.into(), ErrorKind::Usage)
}

/// An integrity verdict (exit 2): the input was read fine but a MAC,
/// checksum, root, or proof check says it is not authentic.
fn integrity_err(message: impl Into<String>) -> CliError {
    CliError(message.into(), ErrorKind::Integrity)
}

/// Parsed `--key value` flags.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
}

impl Flags {
    /// Parses `--key value` pairs.
    ///
    /// # Errors
    ///
    /// Rejects stray positionals, flags without values, and repeated flags
    /// (letting `--seed 1 --seed 2` silently mean `--seed 2` would undermine
    /// every reproducibility claim a sweep or attack log makes).
    pub fn parse(args: &[String]) -> Result<Flags, CliError> {
        let mut values = HashMap::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(key) = arg.strip_prefix("--") else {
                return Err(err(format!("unexpected argument `{arg}` (flags are --key value)")));
            };
            let Some(value) = iter.next() else {
                return Err(err(format!("flag --{key} needs a value")));
            };
            if values.insert(key.to_owned(), value.clone()).is_some() {
                return Err(err(format!("duplicate flag --{key} (each flag may appear once)")));
            }
        }
        Ok(Flags { values })
    }

    /// String flag with a default.
    #[must_use]
    pub fn get_or<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.values.get(key).map_or(default, String::as_str)
    }

    /// Optional string flag.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Required string flag.
    ///
    /// # Errors
    ///
    /// Errors if missing.
    pub fn required(&self, key: &str) -> Result<&str, CliError> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| err(format!("missing required flag --{key}")))
    }

    /// Numeric flag with a default.
    ///
    /// # Errors
    ///
    /// Errors if present but unparsable.
    pub fn number_or(&self, key: &str, default: u64) -> Result<u64, CliError> {
        match self.values.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .replace('_', "")
                .parse()
                .map_err(|_| err(format!("--{key} expects a number, got `{raw}`"))),
        }
    }
}

/// Resolves a tree configuration by CLI name.
///
/// # Errors
///
/// Errors on unknown names.
pub fn tree_by_name(name: &str) -> Result<TreeConfig, CliError> {
    match name {
        "sgx" => Ok(TreeConfig::sgx()),
        "vault" => Ok(TreeConfig::vault()),
        "sc64" => Ok(TreeConfig::sc64()),
        "sc128" => Ok(TreeConfig::sc128()),
        "morph" | "morphtree" => Ok(TreeConfig::morphtree()),
        "zcc" | "morph-zcc" => Ok(TreeConfig::morphtree_zcc_only()),
        "mcr" | "morph-single-base" => Ok(TreeConfig::morphtree_single_base()),
        other => Err(err(format!(
            "unknown config `{other}` (try: sgx, vault, sc64, sc128, morph, zcc, mcr)"
        ))),
    }
}

/// Top-level usage text.
#[must_use]
pub fn usage() -> String {
    "morphtree — Morphable Counters secure-memory reproduction (MICRO 2018)\n\
     \n\
     USAGE: morphtree <command> [--flag value]...\n\
     \n\
     COMMANDS:\n\
     \x20 geometry  [--memory-gib 16] [--config all|sc64|morph|...]\n\
     \x20 simulate  --workload NAME [--config morph] [--scale 16]\n\
     \x20           [--instructions 2000000] [--warmup 4000000] [--seed 42]\n\
     \x20           [--metrics FILE] [--snapshot FILE] [--resume FILE]\n\
     \x20 capture   --workload NAME --out FILE [--records 100000] [--cores 4]\n\
     \x20 replay    --trace FILE [--config morph] [--scale 16]\n\
     \x20 sweep     [--figure all|NAME[,NAME...]] [--threads 0=auto] [--scale 16]\n\
     \x20           [--seed 42] [--warmup 4000000] [--instructions 2000000]\n\
     \x20           [--metrics FILE] [--reports 1] [--snapshot FILE] [--resume FILE]\n\
     \x20 snapshot  --out FILE | --verify FILE [--config morph] [--shards 0]\n\
     \x20           [--memory-kib 1024] [--lines 64] [--seed 42]\n\
     \x20 recover   --snapshot FILE [--wal FILE] | --state PREFIX\n\
     \x20 prove     --snapshot FILE --lines 0,5,9 --out PROOF\n\
     \x20           [--root-out FILE] [--metrics FILE]\n\
     \x20 verify-proof --proof FILE --root HEX | --root-file FILE\n\
     \x20           [--metrics FILE]\n\
     \x20 serve     [--threads 1] [--shards 0=threads] [--ops 100000] [--batch 8192]\n\
     \x20           [--memory-mib 256] [--hot-lines 8192] [--write-pct 80]\n\
     \x20           [--config morph] [--seed 42] [--verify 0] [--metrics FILE]\n\
     \x20           [--epoch-ops 0=off] [--state-out PREFIX]\n\
     \x20 crash-campaign [--seed 42] [--kills 24] [--shards 4] [--threads 2]\n\
     \x20           [--epoch-ops 64] [--batches 12] [--batch-ops 32]\n\
     \x20           [--memory-kib 1024] [--hot-lines 192] [--config morph]\n\
     \x20           [--report FILE]\n\
     \x20 attack    [--seed 42] [--count 100] [--config paper|sc64|vault|zcc|mcr|morphtree]\n\
     \x20           [--memory-kib 1024] [--lines 96] [--metrics FILE]\n\
     \x20 stats     FILE (a --metrics JSON dump)\n\
     \x20 list\n\
     \x20 help\n"
        .to_owned()
}

/// Runs a command; returns the text to print.
///
/// # Errors
///
/// Returns a [`CliError`] with a user-facing message on bad input.
pub fn run(command: &str, args: &[String]) -> Result<String, CliError> {
    // `stats` takes a positional file path, which the flag parser would
    // reject; handle it before parsing.
    if command == "stats" {
        let [path] = args else {
            return Err(err("usage: morphtree stats <metrics.json>"));
        };
        return metrics::cmd_stats(path);
    }
    let flags = Flags::parse(args)?;
    match command {
        "geometry" => cmd_geometry(&flags),
        "simulate" => cmd_simulate(&flags),
        "capture" => cmd_capture(&flags),
        "replay" => cmd_replay(&flags),
        "sweep" => cmd_sweep(&flags),
        "snapshot" => cmd_snapshot(&flags),
        "recover" => cmd_recover(&flags),
        "prove" => cmd_prove(&flags),
        "verify-proof" => cmd_verify_proof(&flags),
        "serve" => serve::cmd_serve(&flags),
        "attack" => cmd_attack(&flags),
        "crash-campaign" => cmd_crash_campaign(&flags),
        "list" => Ok(cmd_list()),
        "help" | "--help" | "-h" => Ok(usage()),
        other => Err(err(format!("unknown command `{other}`\n\n{}", usage()))),
    }
}

fn human(bytes: u64) -> String {
    match bytes {
        b if b >= 1 << 30 => format!("{:.2} GiB", b as f64 / (1u64 << 30) as f64),
        b if b >= 1 << 20 => format!("{:.2} MiB", b as f64 / (1u64 << 20) as f64),
        b if b >= 1 << 10 => format!("{:.2} KiB", b as f64 / (1u64 << 10) as f64),
        b => format!("{b} B"),
    }
}

fn cmd_geometry(flags: &Flags) -> Result<String, CliError> {
    let gib = flags.number_or("memory-gib", 16)?;
    if gib == 0 {
        return Err(err("--memory-gib must be positive"));
    }
    let memory = gib << 30;
    let configs: Vec<TreeConfig> = match flags.get_or("config", "all") {
        "all" => vec![
            TreeConfig::sgx(),
            TreeConfig::vault(),
            TreeConfig::sc64(),
            TreeConfig::sc128(),
            TreeConfig::morphtree(),
        ],
        name => vec![tree_by_name(name)?],
    };
    let mut out = format!("integrity-tree geometry for {gib} GiB\n\n");
    for config in configs {
        let g = TreeGeometry::new(&config, memory);
        writeln!(
            out,
            "{:<26} {} levels | counters {:>10} ({:.3}%) | tree {:>10} ({:.4}%)",
            config.name(),
            g.height(),
            human(g.enc_bytes()),
            g.enc_overhead() * 100.0,
            human(g.tree_bytes()),
            g.tree_overhead() * 100.0,
        )
        .expect("write to string");
    }
    Ok(out)
}

fn sim_config(flags: &Flags) -> Result<(SimConfig, u64, u64), CliError> {
    let scale = flags.number_or("scale", 16)?.max(1);
    let seed = flags.number_or("seed", 42)?;
    let cfg = SimConfig {
        memory_bytes: (16 << 30) / scale,
        metadata_cache_bytes: ((128 * 1024) / scale).max(4096) as usize,
        warmup_instructions: flags.number_or("warmup", 4_000_000)?,
        measure_instructions: flags.number_or("instructions", 2_000_000)?,
        ..SimConfig::default()
    };
    Ok((cfg, scale, seed))
}

fn workload_by_name(
    name: &str,
    cores: usize,
    memory: u64,
    seed: u64,
    scale: u64,
) -> Result<SystemWorkload, CliError> {
    if let Some(mix) = MIXES.iter().find(|m| m.name == name) {
        return Ok(SystemWorkload::mix(mix, memory, seed));
    }
    let bench = Benchmark::by_name(name)
        .ok_or_else(|| err(format!("unknown workload `{name}` (see `morphtree list`)")))?;
    Ok(SystemWorkload::rate_scaled(bench, cores, memory, seed, scale))
}

fn format_result(result: &morphtree_sim::system::SimResult, baseline_ipc: f64) -> String {
    // A zero-cycle run has no EDP; render `n/a` rather than NaN.
    let edp = result
        .energy
        .edp()
        .map_or_else(|| "n/a".to_owned(), |v| format!("{v:.3e}"));
    format!
    (
        "{:<26} IPC {:>6.3} | vs non-secure {:>6.3} | traffic {:>6.3}/access | ovfl {:>7.1}/M | EDP {edp} J*s\n",
        result.config,
        result.ipc(),
        result.ipc() / baseline_ipc,
        result.traffic_per_data_access(),
        result.engine.overflows_per_million_accesses(),
    )
}

/// The operating point of a `simulate` invocation, stamped into result
/// snapshots so `--resume` can refuse a checkpoint taken under other
/// flags instead of silently rendering stale numbers.
fn simulate_fingerprint(name: &str, config: &str, scale: u64, cfg: &SimConfig, seed: u64) -> String {
    format!(
        "simulate workload={name} config={config} scale={scale} warmup={} measure={} seed={seed}",
        cfg.warmup_instructions, cfg.measure_instructions,
    )
}

fn cmd_simulate(flags: &Flags) -> Result<String, CliError> {
    use morphtree_sim::persist::{load_results, save_results};
    use morphtree_sim::system::SimResult;

    let name = flags.required("workload")?;
    let (cfg, scale, seed) = sim_config(flags)?;
    let config_flag = flags.get_or("config", "compare");
    let configs: Vec<TreeConfig> = match config_flag {
        "compare" => vec![TreeConfig::vault(), TreeConfig::sc64(), TreeConfig::morphtree()],
        other => vec![tree_by_name(other)?],
    };
    let fingerprint = simulate_fingerprint(name, config_flag, scale, &cfg, seed);

    // The result batch (non-secure baseline first) comes either from the
    // simulator or, under --resume, verbatim from a prior run's snapshot;
    // everything below renders identically from either source.
    let mut status = String::new();
    let results: Vec<SimResult> = if let Some(path) = flags.get("resume") {
        let bytes =
            std::fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
        let (stored, results) = load_results(&bytes)
            .map_err(|e| err(format!("cannot resume from {path}: {e}")))?;
        if stored != fingerprint {
            return Err(err(format!(
                "snapshot {path} was taken at `{stored}`, which does not match the \
                 requested `{fingerprint}` — rerun without --resume"
            )));
        }
        if results.len() != configs.len() + 1 {
            return Err(err(format!(
                "snapshot {path} holds {} result(s), expected {}",
                results.len(),
                configs.len() + 1,
            )));
        }
        writeln!(status, "\nresumed {} result(s) from {path}", results.len())
            .expect("write to string");
        results
    } else {
        let base = {
            let mut w = workload_by_name(name, cfg.cores, cfg.memory_bytes, seed, scale)?;
            simulate_nonsecure(&mut w, &cfg)
        };
        let mut results = vec![base];
        for tree in configs {
            let mut w = workload_by_name(name, cfg.cores, cfg.memory_bytes, seed, scale)?;
            results.push(simulate(&mut w, tree, &cfg));
        }
        results
    };

    let mut out = format!(
        "simulating `{name}` at scale {scale} ({} memory, {} metadata cache)\n\n",
        human(cfg.memory_bytes),
        human(cfg.metadata_cache_bytes as u64),
    );
    let mut registry = morphtree_core::obs::MetricsRegistry::new();
    let baseline_ipc = results[0].ipc();
    for result in &results {
        out.push_str(&format_result(result, baseline_ipc));
        metrics::sim_metrics(&mut registry, &format!("sim.{name}.{}", result.config), result);
    }
    if let Some(path) = flags.get("snapshot") {
        std::fs::write(path, save_results(&fingerprint, &results))
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
        writeln!(out, "\nsnapshot written to {path} ({} result(s))", results.len())
            .expect("write to string");
    }
    if let Some(path) = flags.get("metrics") {
        metrics::write_metrics(path, &registry)?;
        writeln!(out, "\nmetrics written to {path}").expect("write to string");
    }
    out.push_str(&status);
    Ok(out)
}

fn cmd_capture(flags: &Flags) -> Result<String, CliError> {
    let name = flags.required("workload")?;
    let path = flags.required("out")?;
    let records = flags.number_or("records", 100_000)? as usize;
    let cores = flags.number_or("cores", 4)? as usize;
    let (cfg, scale, seed) = sim_config(flags)?;
    let mut workload = workload_by_name(name, cores, cfg.memory_bytes, seed, scale)?;
    let trace = RecordedTrace::capture(&mut workload, records)
        .map_err(|e| err(format!("cannot capture `{name}`: {e}")))?;
    trace
        .save(path)
        .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    Ok(format!(
        "captured {records} records/core x {cores} cores of `{name}` to {path}\n"
    ))
}

fn cmd_replay(flags: &Flags) -> Result<String, CliError> {
    let path = flags.required("trace")?;
    let (mut cfg, _, _) = sim_config(flags)?;
    let mut trace =
        RecordedTrace::load(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
    use morphtree_trace::workload::RecordSource;
    cfg.cores = trace.num_cores();
    let tree = tree_by_name(flags.get_or("config", "morph"))?;
    let result = simulate(&mut trace, tree, &cfg);
    let mut out = format!(
        "replayed `{}` ({} cores) from {path}\n\n",
        result.workload, cfg.cores
    );
    out.push_str(&format_result(&result, result.ipc()));
    Ok(out)
}

fn cmd_sweep(flags: &Flags) -> Result<String, CliError> {
    use morphtree_experiments::{checkpoint, driver, Lab, Setup};

    let figure = flags.get_or("figure", "all");
    let names: Vec<&str> = if figure == "all" {
        driver::figure_names()
    } else {
        figure.split(',').collect()
    };
    let setup = Setup {
        scale: flags.number_or("scale", 16)?.max(1),
        warmup_instructions: flags.number_or("warmup", 4_000_000)?,
        measure_instructions: flags.number_or("instructions", 2_000_000)?,
        seed: flags.number_or("seed", 42)?,
    };
    let threads = flags.number_or("threads", 0)? as usize;
    let mut lab = Lab::new(setup);
    lab.set_threads(threads);
    // `--reports 0` renders in-memory only (no `results/` writes) — used
    // by tests and by metrics-only invocations at off-default operating
    // points, which should not overwrite the committed reports.
    lab.emit_reports = flags.get_or("reports", "1") != "0";
    let mut out = String::new();
    if let Some(path) = flags.get("resume") {
        // Seeding the memo before the sweep makes checkpointed runs
        // cache hits; figure rendering is a pure function of the memo,
        // so resumed output is byte-identical to an uninterrupted run.
        let (sims, engines) = checkpoint::load_checkpoint(&mut lab, std::path::Path::new(path))
            .map_err(|e| err(format!("cannot resume from {path}: {e}")))?;
        writeln!(out, "resumed {} cached run(s) from {path}", sims + engines)
            .expect("write to string");
    }
    let outcome = driver::run_figures(&mut lab, &names).map_err(err)?;
    if let Some(summary) = outcome.failure_summary() {
        out.push_str(&summary);
        out.push('\n');
    }
    if let Some(path) = flags.get("metrics") {
        // The registry holds only simulation-derived data (no wall-clock
        // spans), so this file is byte-identical for any --threads value.
        let mut registry = morphtree_core::obs::MetricsRegistry::new();
        for (key, result) in lab.sim_results() {
            let prefix = format!(
                "sim.{}.{}.c{}.{:?}.{:?}.{:?}",
                key.workload,
                key.config,
                key.cache_bytes,
                key.mac,
                key.verification,
                key.replacement,
            );
            metrics::sim_metrics(&mut registry, &prefix, result);
        }
        for (key, stats) in lab.engine_results() {
            let prefix =
                format!("engine.{}.{}.i{}", key.workload, key.config, key.instructions);
            metrics::engine_metrics(&mut registry, &prefix, stats);
        }
        registry.counter_set("sweep.runs.sim", lab.sim_results().len() as u64);
        registry.counter_set("sweep.runs.engine", lab.engine_results().len() as u64);
        metrics::write_metrics(path, &registry)?;
        writeln!(out, "metrics written to {path}").expect("write to string");
    }
    if let Some(path) = flags.get("snapshot") {
        checkpoint::save_checkpoint(&lab, std::path::Path::new(path))
            .map_err(|e| err(format!("cannot write checkpoint: {e}")))?;
        writeln!(
            out,
            "checkpoint written to {path} ({} run(s))",
            lab.sim_results().len() + lab.engine_results().len(),
        )
        .expect("write to string");
    }
    let rendered = names.len() - outcome.failed_figures.len();
    writeln!(
        out,
        "sweep complete: {rendered}/{} figure(s) regenerated under results/ \
         ({} simulations, {} engine studies memoized)",
        names.len(),
        lab.sim_results().len(),
        lab.engine_results().len(),
    )
    .expect("write to string");
    Ok(out)
}

fn cmd_snapshot(flags: &Flags) -> Result<String, CliError> {
    use morphtree_core::concurrent::{Op, ShardedMemory};
    use morphtree_core::functional::SecureMemory;
    use morphtree_core::persist;

    let tree = tree_by_name(flags.get_or("config", "morph"))?;
    match (flags.get("out"), flags.get("verify")) {
        (Some(_), Some(_)) => Err(err("--out and --verify are mutually exclusive")),
        (None, None) => {
            Err(err("snapshot needs --out FILE (write one) or --verify FILE (recover + check)"))
        }
        (Some(path), None) => {
            let memory_bytes = flags.number_or("memory-kib", 1024)?.max(1) << 10;
            let seed = flags.number_or("seed", 42)?;
            let shards = flags.number_or("shards", 0)? as usize;
            let mut key = [0u8; 16];
            key[..8].copy_from_slice(&seed.to_le_bytes());
            if shards > 0 {
                // Sharded image: populate through the engine so each shard's
                // subtree carries real written state, then save as MTSH.
                let mut memory = ShardedMemory::new(tree, memory_bytes, key, shards)
                    .map_err(|e| err(format!("cannot shard {shards} ways: {e}")))?;
                let lines = flags.number_or("lines", 64)?.min(memory.plan().data_lines());
                let ops: Vec<Op> = (0..lines)
                    .map(|line| Op::Write {
                        line,
                        data: [(line as u8).wrapping_mul(37) ^ 0x6d; 64],
                    })
                    .collect();
                memory.run_batch(&ops, 1);
                let bytes = persist::save_sharded(&memory);
                std::fs::write(path, &bytes)
                    .map_err(|e| err(format!("cannot write {path}: {e}")))?;
                return Ok(format!(
                    "sharded snapshot of {} over {} ({shards} shard(s), {lines} populated \
                     line(s)) written to {path} ({} bytes)\n",
                    memory.shard(0).config().name(),
                    human(memory_bytes),
                    bytes.len(),
                ));
            }
            let mut memory = SecureMemory::new(tree, memory_bytes, key);
            let lines = flags.number_or("lines", 64)?.min(memory.geometry().data_lines());
            for line in 0..lines {
                memory.write(line, &[(line as u8).wrapping_mul(37) ^ 0x6d; 64]);
            }
            let bytes = persist::save_memory(&memory);
            std::fs::write(path, &bytes)
                .map_err(|e| err(format!("cannot write {path}: {e}")))?;
            Ok(format!(
                "snapshot of {} over {} ({lines} populated line(s), {} tree levels) \
                 written to {path} ({} bytes)\n",
                memory.config().name(),
                human(memory_bytes),
                memory.geometry().top_level() + 1,
                bytes.len(),
            ))
        }
        (None, Some(path)) => {
            let bytes =
                std::fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
            if persist::SHARDED.matches(&bytes) {
                return verify_sharded_image(path, &bytes);
            }
            // An empty log holds no seal and nothing to replay: this is a
            // pure load + bottom-up re-verification of every stored MAC.
            let (memory, _) = persist::recover_bounded(&bytes, &[])
                .map_err(|e| integrity_err(format!("{path}: snapshot failed verification: {e}")))?;
            Ok(format!(
                "{path}: snapshot verified — {} over {}, {} data line(s), every \
                 counter level and data MAC re-checked\n",
                memory.config().name(),
                human(memory.geometry().memory_bytes()),
                memory.geometry().data_lines(),
            ))
        }
    }
}

/// Verifies an `MTSH` container shard by shard, rendering one line per
/// shard (geometry, root, status). Any failing shard makes the whole
/// command fail, naming the first bad shard — after the full table, so a
/// degraded image is still fully diagnosed.
fn verify_sharded_image(path: &str, bytes: &[u8]) -> Result<String, CliError> {
    use morphtree_core::persist;

    let reports = persist::verify_shards(bytes)
        .map_err(|e| integrity_err(format!("{path}: container failed verification: {e}")))?;
    let mut out = format!("{path}: sharded image, {} shard(s)\n", reports.len());
    let mut first_bad = None;
    for report in &reports {
        match &report.status {
            Ok(root) => writeln!(
                out,
                "  shard {:<3} {:>10} {:>2} level(s)  root {root:#018x}  verified",
                report.shard,
                human(report.memory_bytes),
                report.levels,
            )
            .expect("write to string"),
            Err(what) => {
                writeln!(
                    out,
                    "  shard {:<3} {:>10}  FAILED: {what}",
                    report.shard,
                    human(report.memory_bytes),
                )
                .expect("write to string");
                if first_bad.is_none() {
                    first_bad = Some(report.shard);
                }
            }
        }
    }
    match first_bad {
        None => {
            writeln!(out, "{path}: sharded snapshot verified — every shard checked bottom-up")
                .expect("write to string");
            Ok(out)
        }
        Some(shard) => Err(integrity_err(format!(
            "{out}{path}: shard {shard} failed verification (first failure; see table above)"
        ))),
    }
}

fn cmd_recover(flags: &Flags) -> Result<String, CliError> {
    use morphtree_core::persist;
    use std::time::Instant;

    match (flags.get("state"), flags.get("snapshot")) {
        (Some(_), Some(_)) => Err(err("--state and --snapshot are mutually exclusive")),
        (None, None) => Err(err(
            "recover needs --snapshot FILE [--wal FILE] (single memory) or --state PREFIX \
             (sharded container + per-shard WALs)",
        )),
        (None, Some(path)) => {
            let snapshot =
                std::fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
            let wal = match flags.get("wal") {
                Some(p) => std::fs::read(p).map_err(|e| err(format!("cannot read {p}: {e}")))?,
                None => Vec::new(),
            };
            let started = Instant::now();
            let (memory, stats) = persist::recover_bounded(&snapshot, &wal)
                .map_err(|e| integrity_err(format!("{path}: recovery failed: {e}")))?;
            let elapsed = started.elapsed();
            let mut out = format!(
                "{path}: recovered {} over {} in {:.1}ms\n",
                memory.config().name(),
                human(memory.geometry().memory_bytes()),
                elapsed.as_secs_f64() * 1e3,
            );
            writeln!(
                out,
                "  mode {} | epoch {} | {} txn(s), {} record(s) replayed | {} line(s) verified{}",
                stats.mode,
                stats.sealed_epoch,
                stats.replayed_txns,
                stats.replayed_records,
                stats.verified_lines,
                if stats.seal_fallback { " | SEAL UNUSABLE — full verification forced" } else { "" },
            )
            .expect("write to string");
            Ok(out)
        }
        (Some(prefix), None) => {
            let container_path = format!("{prefix}.mtsh");
            let container = std::fs::read(&container_path)
                .map_err(|e| err(format!("cannot read {container_path}: {e}")))?;
            let mut wals = Vec::new();
            loop {
                let wal_path = format!("{prefix}.shard{}.wal", wals.len());
                match std::fs::read(&wal_path) {
                    Ok(bytes) => wals.push(bytes),
                    Err(_) => break,
                }
            }
            if wals.is_empty() {
                return Err(err(format!(
                    "no per-shard WALs found at {prefix}.shard0.wal — was the state written \
                     with `serve --epoch-ops ... --state-out {prefix}`?"
                )));
            }
            let started = Instant::now();
            let rec = persist::recover_sharded_bounded(&container, &wals)
                .map_err(|e| integrity_err(format!("{container_path}: recovery failed: {e}")))?;
            let elapsed = started.elapsed();
            let mut out = format!(
                "{prefix}: recovered {} shard(s) in {:.1}ms — resolved epoch {}{}\n",
                rec.shards.len(),
                elapsed.as_secs_f64() * 1e3,
                rec.resolved_epoch,
                if rec.mid_cut { " (crash landed mid-cut; resolved to last consistent epoch)" } else { "" },
            );
            let mut quarantined = Vec::new();
            for shard_rec in &rec.shards {
                match &shard_rec.outcome {
                    Ok(stats) => writeln!(
                        out,
                        "  shard {:<3} mode {:<14} epoch {} | {} txn(s) replayed | {} line(s) verified",
                        shard_rec.shard,
                        stats.mode.to_string(),
                        stats.sealed_epoch,
                        stats.replayed_txns,
                        stats.verified_lines,
                    )
                    .expect("write to string"),
                    Err(e) => {
                        writeln!(out, "  shard {:<3} QUARANTINED: {e}", shard_rec.shard)
                            .expect("write to string");
                        quarantined.push(shard_rec.shard.to_string());
                    }
                }
            }
            if quarantined.is_empty() {
                writeln!(out, "all shards healthy; state is serving").expect("write to string");
                Ok(out)
            } else {
                Err(integrity_err(format!(
                    "{out}degraded: shard(s) {} quarantined — healthy shards serve, \
                     quarantined shards refuse",
                    quarantined.join(", "),
                )))
            }
        }
    }
}

/// Parses a `--lines 0,5,9` comma-separated data-line list.
fn parse_line_list(spec: &str) -> Result<Vec<u64>, CliError> {
    spec.split(',')
        .map(|piece| {
            piece
                .trim()
                .parse::<u64>()
                .map_err(|_| err(format!("--lines: `{piece}` is not a data-line index")))
        })
        .collect()
}

/// Parses a published root as hex (with or without `0x`).
fn parse_root_hex(spec: &str) -> Result<u64, CliError> {
    let digits = spec.strip_prefix("0x").unwrap_or(spec);
    u64::from_str_radix(digits, 16)
        .map_err(|_| err(format!("--root: `{spec}` is not a 64-bit hex root")))
}

/// Records the deterministic size/coverage facts of a proof. No
/// wall-clock here: metrics files stay deterministic.
fn proof_metrics(path: &str, encoded_len: usize, stats: &ProofStats) -> Result<(), CliError> {
    let mut reg = MetricsRegistry::new();
    reg.counter_set("proof.bytes", encoded_len as u64);
    reg.counter_set("proof.data_lines", stats.data_lines);
    reg.counter_set("proof.nodes", stats.nodes);
    reg.counter_set("proof.shards", stats.shards);
    reg.counter_set("proof.verify.mac_computes", stats.mac_computes);
    metrics::write_metrics(path, &reg)
}

fn cmd_prove(flags: &Flags) -> Result<String, CliError> {
    use morphtree_core::persist;

    let snapshot_path = flags.required("snapshot")?;
    let out_path = flags.required("out")?;
    let lines = parse_line_list(flags.required("lines")?)?;
    let bytes = std::fs::read(snapshot_path)
        .map_err(|e| err(format!("cannot read {snapshot_path}: {e}")))?;

    // Recovery failures are integrity verdicts (the snapshot's checksums
    // or MACs are wrong); a bad line request against a healthy image is a
    // usage error. Both are distinguishable from unreadable files.
    let (proof, root) = if persist::SHARDED.matches(&bytes) {
        let mut memory = persist::recover_sharded_bounded::<&[u8]>(&bytes, &[])
            .and_then(persist::ShardedRecovery::into_memory)
            .map_err(|e| integrity_err(format!("{snapshot_path}: snapshot failed: {e}")))?;
        let root = memory.combined_root();
        let proof = memory
            .prove(&lines)
            .map_err(|e| err(format!("{snapshot_path}: cannot prove: {e}")))?;
        (AnyProof::Sharded(proof), root)
    } else {
        let (memory, _) = persist::recover_bounded(&bytes, &[])
            .map_err(|e| integrity_err(format!("{snapshot_path}: snapshot failed: {e}")))?;
        let proof = memory
            .prove(&lines)
            .map_err(|e| err(format!("{snapshot_path}: cannot prove: {e}")))?;
        (AnyProof::Serial(proof), memory.root_digest())
    };

    let encoded = proof.encode();
    std::fs::write(out_path, &encoded)
        .map_err(|e| err(format!("cannot write {out_path}: {e}")))?;
    if let Some(root_path) = flags.get("root-out") {
        std::fs::write(root_path, persist::save_root(root))
            .map_err(|e| err(format!("cannot write {root_path}: {e}")))?;
    }

    // Self-check the freshly minted proof so a prove run can never emit
    // bytes the standalone verifier would reject.
    let stats = morphtree_core::proof::verify_any_proof(&proof, root)
        .map_err(|e| integrity_err(format!("freshly built proof failed self-check: {e}")))?;
    if let Some(path) = flags.get("metrics") {
        proof_metrics(path, encoded.len(), &stats)?;
    }

    let shard_note = match &proof {
        AnyProof::Serial(_) => String::new(),
        AnyProof::Sharded(_) => format!(", {} shard sub-proof(s)", stats.shards),
    };
    Ok(format!(
        "proof over {} data line(s) ({} counter node(s){shard_note}) written to \
         {out_path} ({} bytes)\n  root {root:#018x}{}\n",
        stats.data_lines,
        stats.nodes,
        encoded.len(),
        flags.get("root-out").map_or(String::new(), |p| format!(" published to {p}")),
    ))
}

fn cmd_verify_proof(flags: &Flags) -> Result<String, CliError> {
    use morphtree_core::persist;
    use morphtree_core::proof::{decode_proof, verify_any_proof};

    let proof_path = flags.required("proof")?;
    let root = match (flags.get("root"), flags.get("root-file")) {
        (Some(_), Some(_)) => return Err(err("--root and --root-file are mutually exclusive")),
        (None, None) => {
            return Err(err("verify-proof needs --root HEX or --root-file FILE"));
        }
        (Some(spec), None) => parse_root_hex(spec)?,
        (None, Some(path)) => {
            let bytes =
                std::fs::read(path).map_err(|e| err(format!("cannot read {path}: {e}")))?;
            // A corrupt root artifact is an integrity verdict: the bytes
            // were read fine but fail their own checksum.
            persist::load_root(&bytes)
                .map_err(|e| integrity_err(format!("{path}: root artifact rejected: {e}")))?
        }
    };
    let encoded = std::fs::read(proof_path)
        .map_err(|e| err(format!("cannot read {proof_path}: {e}")))?;
    // From here on every failure is an integrity verdict — a proof that
    // does not parse is indistinguishable from a tampered one.
    let proof = decode_proof(&encoded)
        .map_err(|e| integrity_err(format!("{proof_path}: proof rejected: {e}")))?;
    let stats = verify_any_proof(&proof, root)
        .map_err(|e| integrity_err(format!("{proof_path}: proof rejected: {e}")))?;
    if let Some(path) = flags.get("metrics") {
        proof_metrics(path, encoded.len(), &stats)?;
    }
    let shard_note = match stats.shards {
        0 => String::new(),
        n => format!(", {n} shard sub-proof(s)"),
    };
    Ok(format!(
        "{proof_path}: proof verified against root {root:#018x} — {} data line(s), \
         {} counter node(s){shard_note}, {} MAC(s) recomputed, no memory image consulted\n",
        stats.data_lines, stats.nodes, stats.mac_computes,
    ))
}

fn cmd_crash_campaign(flags: &Flags) -> Result<String, CliError> {
    use morphtree_core::attack::{run_crash_campaign, CrashCampaignConfig};

    let campaign = CrashCampaignConfig {
        seed: flags.number_or("seed", 42)?,
        kills: flags.number_or("kills", 24)? as usize,
        shards: flags.number_or("shards", 4)? as usize,
        threads: flags.number_or("threads", 2)? as usize,
        epoch_ops: flags.number_or("epoch-ops", 64)?,
        batches: flags.number_or("batches", 12)? as usize,
        batch_ops: flags.number_or("batch-ops", 32)? as usize,
        memory_bytes: flags.number_or("memory-kib", 1024)? << 10,
        hot_lines: flags.number_or("hot-lines", 192)?,
    };
    let tree = tree_by_name(flags.get_or("config", "morph"))?;
    let report = run_crash_campaign(&tree, &campaign)
        .map_err(|e| err(format!("crash campaign could not run: {e}")))?;
    let rendered = report.render();
    if let Some(path) = flags.get("report") {
        std::fs::write(path, &rendered)
            .map_err(|e| err(format!("cannot write {path}: {e}")))?;
    }
    let mut out = rendered;
    if let Some(path) = flags.get("report") {
        writeln!(out, "report written to {path}").expect("write to string");
    }
    if report.passed() {
        Ok(out)
    } else {
        Err(err(format!(
            "{out}CRASH HOLE: {} divergence(s) — {}",
            report.divergences,
            report.first_divergence().unwrap_or("unrecorded"),
        )))
    }
}

fn cmd_attack(flags: &Flags) -> Result<String, CliError> {
    let campaign = CampaignConfig {
        seed: flags.number_or("seed", 42)?,
        count: flags.number_or("count", 100)? as usize,
        memory_bytes: flags.number_or("memory-kib", 1024)? << 10,
        working_lines: flags.number_or("lines", 96)?,
    };
    if campaign.count == 0 {
        return Err(err("--count must be positive"));
    }
    let targets: Vec<(String, TreeConfig)> = match flags.get_or("config", "paper") {
        "paper" | "all" => campaign_configs()
            .into_iter()
            .map(|(name, tree)| (name.to_owned(), tree))
            .collect(),
        name => vec![(name.to_owned(), tree_by_name(name)?)],
    };
    let mut out = String::new();
    let mut missed = Vec::new();
    let mut registry = morphtree_core::obs::MetricsRegistry::new();
    for (name, tree) in &targets {
        let report = run_campaign(tree, &campaign)
            .map_err(|e| err(format!("campaign on `{name}` failed: {e}")))?;
        registry.counter_set(
            &format!("attack.{name}.attempts"),
            report.total_attempts() as u64,
        );
        registry.counter_set(
            &format!("attack.{name}.detected"),
            report.total_detected() as u64,
        );
        registry.counter_set(
            &format!("attack.{name}.located"),
            report.total_located() as u64,
        );
        out.push_str(&report.render());
        out.push('\n');
        if !report.all_detected() {
            missed.push(format!(
                "{name}: {}/{} detected ({})",
                report.total_detected(),
                report.total_attempts(),
                report.first_miss().unwrap_or("miss unrecorded"),
            ));
        }
    }
    if let Some(path) = flags.get("metrics") {
        metrics::write_metrics(path, &registry)?;
        writeln!(out, "metrics written to {path}").expect("write to string");
    }
    if missed.is_empty() {
        writeln!(
            out,
            "campaign verdict: {} attack(s) x {} config(s), all detected at the expected tree location",
            campaign.count,
            targets.len(),
        )
        .expect("write to string");
        Ok(out)
    } else {
        Err(err(format!(
            "INTEGRITY HOLE: undetected tampering!\n{}",
            missed.join("\n")
        )))
    }
}

fn cmd_list() -> String {
    let mut out = String::from("workloads (Table II):\n");
    for bench in Benchmark::all() {
        writeln!(
            out,
            "  {:<12} {:>5.1} read-PKI {:>5.1} write-PKI {:>5.1} GB",
            bench.name, bench.read_pki, bench.write_pki, bench.footprint_gb
        )
        .expect("write to string");
    }
    out.push_str("mixes: ");
    for mix in &MIXES {
        out.push_str(mix.name);
        out.push(' ');
    }
    out.push_str(
        "\nconfigs: sgx vault sc64 sc128 morph zcc mcr\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use morphtree_core::persist;
    use morphtree_core::persist::codec::{read_any_section, write_section, ByteReader};

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn flags_parse_pairs() {
        let flags = Flags::parse(&strs(&["--a", "1", "--b", "x"])).unwrap();
        assert_eq!(flags.required("a").unwrap(), "1");
        assert_eq!(flags.get_or("b", "y"), "x");
        assert_eq!(flags.get_or("c", "y"), "y");
        assert_eq!(flags.number_or("a", 9).unwrap(), 1);
    }

    #[test]
    fn flags_reject_stray_positionals() {
        assert!(Flags::parse(&strs(&["oops"])).is_err());
        assert!(Flags::parse(&strs(&["--key"])).is_err());
    }

    #[test]
    fn flags_reject_duplicates() {
        // Regression: `--seed 1 --seed 2` used to silently mean `--seed 2`.
        let e = Flags::parse(&strs(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(e.0.contains("duplicate flag --seed"), "{}", e.0);
        // Distinct flags still parse, whatever the order.
        let flags = Flags::parse(&strs(&["--seed", "1", "--count", "2"])).unwrap();
        assert_eq!(flags.number_or("seed", 0).unwrap(), 1);
    }

    #[test]
    fn numbers_accept_underscores() {
        let flags = Flags::parse(&strs(&["--n", "1_000_000"])).unwrap();
        assert_eq!(flags.number_or("n", 0).unwrap(), 1_000_000);
    }

    #[test]
    fn tree_names_resolve() {
        assert_eq!(tree_by_name("morph").unwrap().name(), "MorphCtr-128");
        assert_eq!(tree_by_name("sc64").unwrap().name(), "SC-64");
        assert_eq!(tree_by_name("zcc").unwrap().name(), "MorphCtr-128 (ZCC-only)");
        assert_eq!(tree_by_name("mcr").unwrap().name(), "MorphCtr-128 (single-base)");
        assert!(tree_by_name("bogus").is_err());
    }

    #[test]
    fn geometry_command_prints_the_paper_numbers() {
        let out = run("geometry", &strs(&["--memory-gib", "16"])).unwrap();
        assert!(out.contains("MorphCtr-128"), "{out}");
        assert!(out.contains("3 levels"), "{out}");
        assert!(out.contains("292.57 MiB") || out.contains("292.6"), "{out}");
    }

    #[test]
    fn attack_command_runs_the_paper_campaign() {
        // 14 attacks = 2 per class; the five paper configs by default.
        let out = run("attack", &strs(&["--count", "14"])).unwrap();
        for config in ["SC-64", "VAULT", "MorphCtr-128 (ZCC-only)",
                       "MorphCtr-128 (single-base)", "MorphCtr-128"] {
            assert!(out.contains(&format!("attack campaign · {config}")), "{out}");
        }
        assert!(out.contains("stale-replay"), "{out}");
        assert!(
            out.contains("campaign verdict: 14 attack(s) x 5 config(s), all detected"),
            "{out}"
        );
    }

    #[test]
    fn attack_command_is_deterministic_and_takes_a_config() {
        let args = strs(&["--seed", "9", "--count", "21", "--config", "morphtree"]);
        let first = run("attack", &args).unwrap();
        let second = run("attack", &args).unwrap();
        assert_eq!(first, second);
        assert!(first.contains("seed 9 · 21 attacks"), "{first}");
        assert!(!first.contains("SC-64"), "single-config run: {first}");
    }

    #[test]
    fn attack_command_rejects_bad_flags() {
        assert!(run("attack", &strs(&["--count", "0"])).is_err());
        assert!(run("attack", &strs(&["--config", "bogus"])).is_err());
    }

    #[test]
    fn list_command_covers_catalog() {
        let out = cmd_list();
        assert!(out.contains("mcf"));
        assert!(out.contains("cc-web"));
        assert!(out.contains("mix6"));
    }

    #[test]
    fn sweep_rejects_unknown_figures() {
        let e = run("sweep", &strs(&["--figure", "fig99"])).unwrap_err();
        assert!(e.0.contains("unknown figure `fig99`"), "{}", e.0);
    }

    #[test]
    fn sweep_runs_analytic_figures() {
        // ext_scaling is analytic (no simulations), so this exercises the
        // full plan/prefetch/render path in milliseconds.
        let out = run("sweep", &strs(&["--figure", "ext_scaling"])).unwrap();
        assert!(out.contains("sweep complete: 1/1 figure(s)"), "{out}");
    }

    #[test]
    fn unknown_command_shows_usage() {
        let e = run("frobnicate", &[]).unwrap_err();
        assert!(e.0.contains("USAGE"));
    }

    #[test]
    fn simulate_requires_a_workload() {
        let e = run("simulate", &[]).unwrap_err();
        assert!(e.0.contains("--workload"));
    }

    #[test]
    fn snapshot_writes_and_verifies() {
        let path = std::env::temp_dir().join("morphtree-cli-snap.mtsn");
        let path_str = path.to_str().unwrap().to_owned();
        let out = run(
            "snapshot",
            &strs(&["--out", &path_str, "--config", "sc64", "--memory-kib", "256",
                    "--lines", "16"]),
        )
        .unwrap();
        assert!(out.contains("16 populated line(s)"), "{out}");
        let out = run("snapshot", &strs(&["--verify", &path_str])).unwrap();
        assert!(out.contains("snapshot verified"), "{out}");
        assert!(out.contains("SC-64"), "{out}");

        // A flipped byte in the image must fail verification with a typed
        // message, not verify or panic.
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let e = run("snapshot", &strs(&["--verify", &path_str])).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(e.0.contains("failed verification"), "{}", e.0);
    }

    #[test]
    fn snapshot_writes_and_verifies_sharded_images() {
        let path = std::env::temp_dir().join("morphtree-cli-snap.mtsh");
        let path_str = path.to_str().unwrap().to_owned();
        let out = run(
            "snapshot",
            &strs(&["--out", &path_str, "--config", "sc64", "--memory-kib", "256",
                    "--shards", "4", "--lines", "32"]),
        )
        .unwrap();
        assert!(out.contains("sharded snapshot"), "{out}");
        assert!(out.contains("4 shard(s)"), "{out}");
        let out = run("snapshot", &strs(&["--verify", &path_str])).unwrap();
        assert!(out.contains("sharded image, 4 shard(s)"), "{out}");
        assert!(out.contains("shard 3"), "{out}");
        assert!(out.contains("sharded snapshot verified"), "{out}");

        // Corrupt the last shard's payload and patch its section checksum:
        // framing stays valid, so verification must fail *per shard* and
        // name the culprit rather than refusing the whole container.
        let image = std::fs::read(&path).unwrap();
        let mut r = ByteReader::new(&image);
        persist::SHARDED.read(&mut r).unwrap();
        let mut sections = Vec::new();
        while !r.is_exhausted() {
            sections.push(read_any_section(&mut r).unwrap());
        }
        let (last_tag, last) = sections.pop().unwrap();
        let mut last = last.to_vec();
        let flip = last.len() - 9;
        last[flip] ^= 0x40;
        let mut bytes = Vec::new();
        persist::SHARDED.write(&mut bytes);
        for (tag, payload) in sections {
            write_section(&mut bytes, tag, payload);
        }
        write_section(&mut bytes, last_tag, &last);
        std::fs::write(&path, &bytes).unwrap();
        let e = run("snapshot", &strs(&["--verify", &path_str])).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(e.0.contains("shard 3 failed verification"), "{}", e.0);
        assert!(e.0.contains("shard 0") && e.0.contains("verified"), "healthy rows: {}", e.0);
    }

    #[test]
    fn recover_command_reports_single_memory_stats() {
        let path = std::env::temp_dir().join("morphtree-cli-recover.mtsn");
        let path_str = path.to_str().unwrap().to_owned();
        run(
            "snapshot",
            &strs(&["--out", &path_str, "--config", "sc64", "--memory-kib", "256",
                    "--lines", "8"]),
        )
        .unwrap();
        // No WAL and no seal: the full path, reported as such.
        let out = run("recover", &strs(&["--snapshot", &path_str])).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("recovered SC-64"), "{out}");
        assert!(out.contains("mode full"), "{out}");
    }

    #[test]
    fn recover_command_recovers_serve_state() {
        let dir = std::env::temp_dir().join("morphtree-cli-recover-state");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("st").to_str().unwrap().to_owned();
        run(
            "serve",
            &strs(&["--threads", "2", "--ops", "1200", "--memory-mib", "4", "--batch", "400",
                    "--epoch-ops", "500", "--state-out", &prefix]),
        )
        .unwrap();
        let out = run("recover", &strs(&["--state", &prefix])).unwrap();
        assert!(out.contains("recovered 2 shard(s)"), "{out}");
        assert!(out.contains("resolved epoch"), "{out}");
        assert!(out.contains("all shards healthy"), "{out}");

        // Corrupt shard 1's WAL (a complete record, not a torn tail): the
        // shard must be quarantined and the exit must be non-zero.
        let wal_path = format!("{prefix}.shard1.wal");
        let mut wal = std::fs::read(&wal_path).unwrap();
        wal[6] ^= 0xff;
        std::fs::write(&wal_path, &wal).unwrap();
        let e = run("recover", &strs(&["--state", &prefix])).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(e.0.contains("shard 1   QUARANTINED"), "{}", e.0);
        assert!(e.0.contains("shard(s) 1 quarantined"), "{}", e.0);
    }

    #[test]
    fn recover_command_rejects_flag_misuse() {
        let e = run("recover", &[]).unwrap_err();
        assert!(e.0.contains("--snapshot"), "{}", e.0);
        let e = run("recover", &strs(&["--snapshot", "a", "--state", "b"])).unwrap_err();
        assert!(e.0.contains("mutually exclusive"), "{}", e.0);
        let e = run("recover", &strs(&["--state", "/nonexistent/prefix"])).unwrap_err();
        assert!(e.0.contains("cannot read"), "{}", e.0);
    }

    #[test]
    fn crash_campaign_command_passes_and_writes_report() {
        let path = std::env::temp_dir().join("morphtree-cli-crash-report.txt");
        let path_str = path.to_str().unwrap().to_owned();
        let out = run(
            "crash-campaign",
            &strs(&["--kills", "6", "--shards", "2", "--threads", "2", "--batches", "4",
                    "--epoch-ops", "48", "--hot-lines", "96", "--report", &path_str]),
        )
        .unwrap();
        assert!(out.contains("crash campaign result: PASS"), "{out}");
        assert!(out.contains("recovery latency"), "{out}");
        let report = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(report.contains("crash campaign result: PASS"), "{report}");
    }

    #[test]
    fn crash_campaign_rejects_bad_flags() {
        assert!(run("crash-campaign", &strs(&["--batches", "0"])).is_err());
        assert!(run("crash-campaign", &strs(&["--config", "bogus"])).is_err());
    }

    #[test]
    fn snapshot_rejects_flag_misuse() {
        let e = run("snapshot", &[]).unwrap_err();
        assert!(e.0.contains("--out"), "{}", e.0);
        let e = run("snapshot", &strs(&["--out", "a", "--verify", "b"])).unwrap_err();
        assert!(e.0.contains("mutually exclusive"), "{}", e.0);
        let e = run("snapshot", &strs(&["--verify", "/nonexistent/x.mtsn"])).unwrap_err();
        assert!(e.0.contains("cannot read"), "{}", e.0);
    }

    #[test]
    fn simulate_resume_renders_identically_without_simulating() {
        let path = std::env::temp_dir().join("morphtree-cli-simresume.mtsr");
        let path_str = path.to_str().unwrap().to_owned();
        let base = [
            "--workload", "libquantum", "--config", "sc64", "--scale", "1024",
            "--warmup", "20000", "--instructions", "20000",
        ];
        let mut with_snapshot = strs(&base);
        with_snapshot.extend(strs(&["--snapshot", &path_str]));
        let fresh = run("simulate", &with_snapshot).unwrap();
        assert!(fresh.contains("snapshot written to"), "{fresh}");

        let mut with_resume = strs(&base);
        with_resume.extend(strs(&["--resume", &path_str]));
        let resumed = run("simulate", &with_resume).unwrap();
        assert!(resumed.contains("resumed 2 result(s) from"), "{resumed}");
        // Identical body: everything up to the status lines matches byte
        // for byte, so a resume is a faithful re-render, not a re-run.
        let body = |s: &str| {
            s.lines()
                .filter(|l| !l.contains("snapshot written") && !l.contains("resumed "))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(body(&fresh), body(&resumed));

        // Different flags must be refused, not blended.
        let mut mismatched = strs(&[
            "--workload", "libquantum", "--config", "sc64", "--scale", "1024",
            "--warmup", "20000", "--instructions", "20000", "--seed", "7",
        ]);
        mismatched.extend(strs(&["--resume", &path_str]));
        let e = run("simulate", &mismatched).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(e.0.contains("does not match"), "{}", e.0);
    }

    #[test]
    fn sweep_snapshot_and_resume_flags_round_trip() {
        let path = std::env::temp_dir().join("morphtree-cli-sweepck.mtlc");
        let path_str = path.to_str().unwrap().to_owned();
        // ext_scaling is analytic (zero runs), so this exercises the
        // checkpoint plumbing end-to-end in milliseconds.
        let out = run(
            "sweep",
            &strs(&["--figure", "ext_scaling", "--reports", "0", "--snapshot", &path_str]),
        )
        .unwrap();
        assert!(out.contains("checkpoint written to"), "{out}");
        let out = run(
            "sweep",
            &strs(&["--figure", "ext_scaling", "--reports", "0", "--resume", &path_str]),
        )
        .unwrap();
        assert!(out.contains("resumed 0 cached run(s) from"), "{out}");
        // A checkpoint from one operating point must not seed another.
        let e = run(
            "sweep",
            &strs(&["--figure", "ext_scaling", "--reports", "0", "--seed", "9",
                    "--resume", &path_str]),
        )
        .unwrap_err();
        std::fs::remove_file(&path).ok();
        assert!(e.0.contains("does not match"), "{}", e.0);
    }

    #[test]
    fn capture_and_replay_roundtrip() {
        let path = std::env::temp_dir().join("morphtree-cli-test.mtrc");
        let path_str = path.to_str().unwrap().to_owned();
        let out = run(
            "capture",
            &strs(&["--workload", "milc", "--out", &path_str, "--records", "20000",
                    "--cores", "2"]),
        )
        .unwrap();
        assert!(out.contains("captured"));
        let out = run(
            "replay",
            &strs(&["--trace", &path_str, "--config", "sc64", "--warmup", "50000",
                    "--instructions", "50000"]),
        )
        .unwrap();
        std::fs::remove_file(&path).ok();
        assert!(out.contains("replayed `milc`"), "{out}");
        assert!(out.contains("SC-64"), "{out}");
    }

    #[test]
    fn error_kinds_map_to_distinct_exit_codes() {
        assert_eq!(err("nope").exit_code(), 1);
        assert_eq!(err("nope").kind(), ErrorKind::Usage);
        assert_eq!(integrity_err("tampered").exit_code(), 2);
        assert_eq!(integrity_err("tampered").kind(), ErrorKind::Integrity);
        // Usage mistakes on real commands are the usage kind.
        assert_eq!(run("recover", &[]).unwrap_err().kind(), ErrorKind::Usage);
        assert_eq!(run("prove", &[]).unwrap_err().kind(), ErrorKind::Usage);
        assert_eq!(run("verify-proof", &[]).unwrap_err().kind(), ErrorKind::Usage);
    }

    #[test]
    fn tampered_snapshot_is_an_integrity_verdict_not_usage() {
        let path = std::env::temp_dir().join("morphtree-cli-kind.mtsn");
        let path_str = path.to_str().unwrap().to_owned();
        run("snapshot", &strs(&["--out", &path_str, "--memory-kib", "256"])).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let e = run("snapshot", &strs(&["--verify", &path_str])).unwrap_err();
        std::fs::remove_file(&path).ok();
        assert_eq!(e.kind(), ErrorKind::Integrity, "{}", e.0);
        // An unreadable file stays a usage/IO error, clearly separated.
        let e = run("snapshot", &strs(&["--verify", "/nonexistent/x.mtsn"])).unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage, "{}", e.0);
    }

    #[test]
    fn prove_then_verify_proof_needs_no_memory_image() {
        let dir = std::env::temp_dir().join("morphtree-cli-proof");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("image.mtsn").to_str().unwrap().to_owned();
        let proof = dir.join("lines.mtpr").to_str().unwrap().to_owned();
        let root = dir.join("root.mtrt").to_str().unwrap().to_owned();
        run(
            "snapshot",
            &strs(&["--out", &snap, "--config", "sc64", "--memory-kib", "256",
                    "--lines", "32"]),
        )
        .unwrap();
        let out = run(
            "prove",
            &strs(&["--snapshot", &snap, "--lines", "0,5,9,31", "--out", &proof,
                    "--root-out", &root]),
        )
        .unwrap();
        assert!(out.contains("proof over 4 data line(s)"), "{out}");
        assert!(out.contains(&format!("published to {root}")), "{out}");

        // The verifier needs only the proof and the published root — the
        // snapshot can be gone.
        std::fs::remove_file(&snap).unwrap();
        let out = run(
            "verify-proof",
            &strs(&["--proof", &proof, "--root-file", &root]),
        )
        .unwrap();
        assert!(out.contains("proof verified"), "{out}");
        assert!(out.contains("no memory image consulted"), "{out}");

        // The same root as a hex literal also verifies.
        let hex_at = out.find("root 0x").unwrap() + "root ".len();
        let hex = &out[hex_at..hex_at + 18];
        let out2 =
            run("verify-proof", &strs(&["--proof", &proof, "--root", hex])).unwrap();
        assert!(out2.contains("proof verified"), "{out2}");

        // A flipped byte anywhere in the proof is an integrity verdict.
        let mut bytes = std::fs::read(&proof).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 1;
        std::fs::write(&proof, &bytes).unwrap();
        let e = run("verify-proof", &strs(&["--proof", &proof, "--root-file", &root]))
            .unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Integrity, "{}", e.0);
        bytes[mid] ^= 1;
        std::fs::write(&proof, &bytes).unwrap();

        // So is a flipped byte in the published root artifact.
        let mut root_bytes = std::fs::read(&root).unwrap();
        root_bytes[10] ^= 1;
        std::fs::write(&root, &root_bytes).unwrap();
        let e = run("verify-proof", &strs(&["--proof", &proof, "--root-file", &root]))
            .unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Integrity, "{}", e.0);

        // And a wrong-but-well-formed root is a root mismatch.
        let e = run(
            "verify-proof",
            &strs(&["--proof", &proof, "--root", "0xdeadbeefdeadbeef"]),
        )
        .unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Integrity, "{}", e.0);
        assert!(e.0.contains("root"), "{}", e.0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prove_composes_sharded_snapshots() {
        let dir = std::env::temp_dir().join("morphtree-cli-proof-sharded");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("image.mtsh").to_str().unwrap().to_owned();
        let proof = dir.join("lines.mtpr").to_str().unwrap().to_owned();
        run(
            "snapshot",
            &strs(&["--out", &snap, "--config", "morph", "--memory-kib", "256",
                    "--shards", "4", "--lines", "64"]),
        )
        .unwrap();
        let root = dir.join("root.mtrt").to_str().unwrap().to_owned();
        let out = run(
            "prove",
            &strs(&["--snapshot", &snap, "--lines", "0,17,63", "--out", &proof,
                    "--root-out", &root]),
        )
        .unwrap();
        assert!(out.contains("shard sub-proof(s)"), "{out}");
        let out = run(
            "verify-proof",
            &strs(&["--proof", &proof, "--root-file", &root]),
        )
        .unwrap();
        assert!(out.contains("proof verified"), "{out}");
        assert!(out.contains("shard sub-proof(s)"), "{out}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prove_rejects_bad_requests_as_usage_errors() {
        let dir = std::env::temp_dir().join("morphtree-cli-proof-usage");
        std::fs::create_dir_all(&dir).unwrap();
        let snap = dir.join("image.mtsn").to_str().unwrap().to_owned();
        let proof = dir.join("lines.mtpr").to_str().unwrap().to_owned();
        run("snapshot", &strs(&["--out", &snap, "--memory-kib", "256", "--lines", "8"]))
            .unwrap();
        // Unparsable line list.
        let e = run(
            "prove",
            &strs(&["--snapshot", &snap, "--lines", "0,banana", "--out", &proof]),
        )
        .unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage, "{}", e.0);
        // A never-written line is a bad request against a healthy image.
        let e = run(
            "prove",
            &strs(&["--snapshot", &snap, "--lines", "2000", "--out", &proof]),
        )
        .unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage, "{}", e.0);
        assert!(e.0.contains("cannot prove"), "{}", e.0);
        // Bad root hex on the verify side is usage too.
        let e = run(
            "verify-proof",
            &strs(&["--proof", &proof, "--root", "zzzz"]),
        )
        .unwrap_err();
        assert_eq!(e.kind(), ErrorKind::Usage, "{}", e.0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
