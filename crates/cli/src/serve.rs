//! The `morphtree serve` subcommand: drive the sharded concurrent
//! secure-memory engine as a batched multi-tenant service.
//!
//! The front-end generates a seeded op mix (write-heavy by default — the
//! write path exercises the full counter-bump chain), routes it into
//! per-shard queues, and drains the queues with `--threads` workers per
//! batch. Each shard owns an independent subtree over its address range;
//! the shared top root recombines once per batch (coalesced). The final
//! line is grep-able (`serve complete:`) for CI smoke checks, and
//! `--verify 1` additionally audits every shard subtree bottom-up and
//! proves a seeded tamper drill is detected before reporting success.
//!
//! `--epoch-ops N` switches the service to epoch-bounded persistence
//! ([`EpochShardedMemory`]): every shard journals its writes to a WAL and
//! the engine cuts an epoch every `N` ops — sealing per-shard roots, so a
//! crash costs at most one epoch of replay. Epoch mode always ends with a
//! recovery drill (recover the durable state, compare it to the live
//! engine), and `--state-out PREFIX` persists that state as
//! `PREFIX.mtsh` + `PREFIX.shard<K>.wal` for `morphtree recover` (with
//! one shard, `PREFIX.mtsh` holds that shard's plain `MTSN` snapshot).

use std::fmt::Write as _;
use std::time::Instant;

use morphtree_core::concurrent::{Op, OpOutcome, ShardedMemory, SplitMix64};
use morphtree_core::persist::{recover_sharded_bounded, EpochShardedMemory};
use morphtree_core::tree::TreeConfig;
use morphtree_core::CACHELINE_BYTES;

use crate::{err, tree_by_name, CliError, Flags};

/// Builds one batch of requests: lines drawn from per-shard hot ranges
/// (equal share per shard, so every worker has queued work) with a
/// `write_pct`% write share.
fn build_batch(
    rng: &mut SplitMix64,
    memory: &ShardedMemory,
    batch: usize,
    hot_lines: u64,
    write_pct: u64,
) -> Vec<Op> {
    let plan = memory.plan();
    let shards = plan.shards() as u64;
    let per_shard_hot = (hot_lines / shards).max(1);
    (0..batch)
        .map(|_| {
            let shard = (rng.below(shards)) as usize;
            let span = per_shard_hot.min(plan.shard_lines(shard));
            let line = plan.shard_base(shard) + rng.below(span);
            if rng.below(100) < write_pct {
                let mut data = [0u8; CACHELINE_BYTES];
                data[..8].copy_from_slice(&rng.next_u64().to_le_bytes());
                Op::Write { line, data }
            } else {
                Op::Read { line }
            }
        })
        .collect()
}

/// The parsed operating point of one `serve` invocation.
struct ServeParams {
    threads: usize,
    shards: usize,
    ops_total: usize,
    batch: usize,
    memory_bytes: u64,
    hot_lines: u64,
    write_pct: u64,
    seed: u64,
    verify: bool,
    tree: TreeConfig,
}

fn parse_params(flags: &Flags) -> Result<ServeParams, CliError> {
    let threads = flags.number_or("threads", 1)? as usize;
    if threads == 0 {
        return Err(err("--threads must be positive"));
    }
    // Shards default to the worker count: each worker owns one subtree.
    let shards = match flags.number_or("shards", 0)? as usize {
        0 => threads,
        n => n,
    };
    Ok(ServeParams {
        threads,
        shards,
        ops_total: flags.number_or("ops", 100_000)? as usize,
        batch: flags.number_or("batch", 8192)?.max(1) as usize,
        memory_bytes: flags.memory_bytes_or("memory-mib", 20, 256)?,
        hot_lines: flags.number_or("hot-lines", 8192)?.max(1),
        write_pct: flags.number_or("write-pct", 80)?.min(100),
        seed: flags.number_or("seed", 42)?,
        verify: flags.get_or("verify", "0") != "0",
        tree: tree_by_name(flags.get_or("config", "morph"))?,
    })
}

/// Runs the serve workload; returns the human-readable report.
///
/// # Errors
///
/// Returns a [`CliError`] for bad flags, impossible shard plans, or — the
/// failures that matter — an integrity violation the service failed to
/// detect during the `--verify` drill, or (epoch mode) a recovery drill
/// that did not reproduce the live state.
pub fn cmd_serve(flags: &Flags) -> Result<String, CliError> {
    let params = parse_params(flags)?;
    let epoch_ops = flags.number_or("epoch-ops", 0)?;
    if flags.get("state-out").is_some() && epoch_ops == 0 {
        return Err(err("--state-out requires --epoch-ops (epoch mode persists state)"));
    }
    if epoch_ops > 0 {
        return serve_epoch(flags, &params, epoch_ops);
    }

    let ServeParams {
        threads, shards, ops_total, batch, memory_bytes, hot_lines, write_pct, seed, verify, tree,
    } = params;
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    let mut memory = ShardedMemory::new(tree, memory_bytes, key, shards)
        .map_err(|e| err(format!("cannot shard {} {shards} ways: {e}", crate::human(memory_bytes))))?;

    let mut rng = SplitMix64::new(seed);
    let mut served = 0usize;
    let mut detected = 0u64;
    let started = Instant::now();
    while served < ops_total {
        let count = batch.min(ops_total - served);
        let ops = build_batch(&mut rng, &memory, count, hot_lines, write_pct);
        for outcome in memory.run_batch(&ops, threads) {
            if matches!(outcome, OpOutcome::Detected(_)) {
                detected += 1;
            }
        }
        served += count;
    }
    let elapsed = started.elapsed();
    let ops_per_sec = served as f64 / elapsed.as_secs_f64();
    let root = memory.combined_root();

    // An honest service detects nothing: the workload contains no tampers.
    if detected != 0 {
        return Err(err(format!(
            "serve integrity failure: {detected} spurious detection(s) in an honest workload"
        )));
    }

    let mut out = format!(
        "serving {} of {} across {shards} shard(s), {threads} worker thread(s)\n",
        crate::human(memory_bytes),
        memory.shard(0).config().name(),
    );
    writeln!(
        out,
        "levels/shard {} | hot lines {hot_lines} | batch {batch} | {write_pct}% writes | seed {seed} | crypto {}",
        memory.shard(0).geometry().top_level() + 1,
        memory.shard(0).cipher_backend(),
    )
    .expect("write to string");
    writeln!(
        out,
        "served {served} ops in {:.3}s — {:.0} ops/s | root {root:#018x} | {} recombine(s) | {} reencryption(s)",
        elapsed.as_secs_f64(),
        ops_per_sec,
        memory.recombines(),
        memory.reencryptions(),
    )
    .expect("write to string");

    if verify {
        // Bottom-up audit of every shard subtree...
        memory
            .verify_all()
            .map_err(|e| err(format!("serve verification failed: {e}")))?;
        // ...then a tamper drill: corrupt one written line and prove the
        // service detects it (and only it).
        let victim = memory.plan().shard_base(shards - 1);
        memory.write(victim, &[0x5a; CACHELINE_BYTES]);
        memory
            .tamper_raw(victim, (seed % 64) as usize, 0x01)
            .map_err(|e| err(format!("tamper drill could not arm: {e}")))?;
        match memory.read(victim) {
            Err(_) => {}
            Ok(_) => {
                return Err(err(
                    "INTEGRITY HOLE: tamper drill went undetected by the sharded engine",
                ))
            }
        }
        writeln!(out, "verify: all shard subtrees verified; tamper drill detected")
            .expect("write to string");
    }

    if let Some(path) = flags.get("metrics") {
        let mut registry = morphtree_core::obs::MetricsRegistry::new();
        registry.counter_set("serve.ops", served as u64);
        registry.counter_set("serve.threads", threads as u64);
        registry.counter_set("serve.shards", shards as u64);
        registry.counter_set("serve.recombines", memory.recombines());
        registry.counter_set("serve.reencryptions", memory.reencryptions());
        registry.gauge_set("serve.ops_per_sec", Some(ops_per_sec));
        crate::metrics::write_metrics(path, &registry)?;
        writeln!(out, "metrics written to {path}").expect("write to string");
    }

    writeln!(
        out,
        "serve complete: {served} ops on {threads} thread(s) x {shards} shard(s), root intact",
    )
    .expect("write to string");
    Ok(out)
}

/// Epoch-mode serve: the same workload through [`EpochShardedMemory`],
/// closing with a recovery drill against the durable `(container, WALs)`
/// state — and persisting that state when `--state-out` is given.
fn serve_epoch(flags: &Flags, params: &ServeParams, epoch_ops: u64) -> Result<String, CliError> {
    let ServeParams {
        threads, shards, ops_total, batch, memory_bytes, hot_lines, write_pct, seed, verify, ..
    } = *params;
    let mut key = [0u8; 16];
    key[..8].copy_from_slice(&seed.to_le_bytes());
    let mut memory =
        EpochShardedMemory::new(params.tree.clone(), memory_bytes, key, shards, epoch_ops)
            .map_err(|e| {
                err(format!("cannot shard {} {shards} ways: {e}", crate::human(memory_bytes)))
            })?;

    let mut rng = SplitMix64::new(seed);
    let mut served = 0usize;
    let mut detected = 0u64;
    let started = Instant::now();
    while served < ops_total {
        let count = batch.min(ops_total - served);
        let ops = build_batch(&mut rng, memory.memory(), count, hot_lines, write_pct);
        for outcome in memory.run_batch(&ops, threads) {
            if matches!(outcome, OpOutcome::Detected(_)) {
                detected += 1;
            }
        }
        served += count;
    }
    let elapsed = started.elapsed();
    let ops_per_sec = served as f64 / elapsed.as_secs_f64();
    let root = memory.combined_root();
    if detected != 0 {
        return Err(err(format!(
            "serve integrity failure: {detected} spurious detection(s) in an honest workload"
        )));
    }

    let mut out = format!(
        "serving {} of {} across {shards} shard(s), {threads} worker thread(s), epoch every {epoch_ops} ops\n",
        crate::human(memory_bytes),
        memory.memory().shard(0).config().name(),
    );
    writeln!(
        out,
        "levels/shard {} | hot lines {hot_lines} | batch {batch} | {write_pct}% writes | seed {seed} | crypto {}",
        memory.memory().shard(0).geometry().top_level() + 1,
        memory.memory().shard(0).cipher_backend(),
    )
    .expect("write to string");
    writeln!(
        out,
        "served {served} ops in {:.3}s — {:.0} ops/s | root {root:#018x} | {} recombine(s)",
        elapsed.as_secs_f64(),
        ops_per_sec,
        memory.recombines(),
    )
    .expect("write to string");
    writeln!(
        out,
        "epochs sealed {} | open-epoch ops {} (cut every {epoch_ops})",
        memory.epoch(),
        memory.ops_in_epoch(),
    )
    .expect("write to string");

    // The durable state a crash right now would leave behind: the last
    // cut's sealed container plus each shard's open-epoch WAL.
    let container = memory.sealed_container();
    let wals = memory.wals();
    if let Some(prefix) = flags.get("state-out") {
        std::fs::write(format!("{prefix}.mtsh"), &container)
            .map_err(|e| err(format!("cannot write {prefix}.mtsh: {e}")))?;
        for (k, wal) in wals.iter().enumerate() {
            std::fs::write(format!("{prefix}.shard{k}.wal"), wal)
                .map_err(|e| err(format!("cannot write {prefix}.shard{k}.wal: {e}")))?;
        }
        writeln!(
            out,
            "state written to {prefix}.mtsh + {} per-shard WAL(s) ({} container bytes)",
            wals.len(),
            container.len(),
        )
        .expect("write to string");
    }

    // Recovery drill: recovering the durable state must reproduce the
    // live engine exactly, with no shard quarantined.
    let drill_start = Instant::now();
    let rec = recover_sharded_bounded(&container, &wals)
        .map_err(|e| err(format!("recovery drill failed outright: {e}")))?;
    let drill = drill_start.elapsed();
    if rec.memory.healthy_shards() != shards {
        return Err(err(format!(
            "recovery drill quarantined {} of {shards} shard(s)",
            shards - rec.memory.healthy_shards(),
        )));
    }
    for s in 0..shards {
        use morphtree_core::persist::save_memory;
        if save_memory(rec.memory.shard(s)) != save_memory(memory.memory().shard(s)) {
            return Err(err(format!(
                "DIVERGENCE: recovery drill shard {s} does not match the live state"
            )));
        }
    }
    let replayed: usize = rec
        .shards
        .iter()
        .filter_map(|r| r.outcome.as_ref().ok().map(|s| s.replayed_txns))
        .sum();
    writeln!(
        out,
        "recovery drill: resolved epoch {} in {:.1}ms, {replayed} txn(s) replayed, state matches live",
        rec.resolved_epoch,
        drill.as_secs_f64() * 1e3,
    )
    .expect("write to string");

    if verify {
        memory
            .memory()
            .verify_all()
            .map_err(|e| err(format!("serve verification failed: {e}")))?;
        writeln!(out, "verify: all shard subtrees verified").expect("write to string");
    }

    if let Some(path) = flags.get("metrics") {
        let mut registry = morphtree_core::obs::MetricsRegistry::new();
        registry.counter_set("serve.ops", served as u64);
        registry.counter_set("serve.threads", threads as u64);
        registry.counter_set("serve.shards", shards as u64);
        registry.counter_set("serve.recombines", memory.recombines());
        registry.counter_set("serve.epochs", memory.epoch());
        registry.counter_set("serve.epoch_ops", epoch_ops);
        registry.counter_set("serve.recovery_replayed_txns", replayed as u64);
        registry.gauge_set("serve.ops_per_sec", Some(ops_per_sec));
        registry.gauge_set("serve.recovery_drill_ms", Some(drill.as_secs_f64() * 1e3));
        crate::metrics::write_metrics(path, &registry)?;
        writeln!(out, "metrics written to {path}").expect("write to string");
    }

    writeln!(
        out,
        "serve complete: {served} ops on {threads} thread(s) x {shards} shard(s), root intact",
    )
    .expect("write to string");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| (*s).to_owned()).collect()
    }

    fn serve(args: &[&str]) -> Result<String, CliError> {
        crate::run("serve", &strs(args))
    }

    #[test]
    fn serve_smoke_reports_completion() {
        let out = serve(&["--threads", "2", "--ops", "3000", "--memory-mib", "4"]).unwrap();
        assert!(out.contains("serve complete: 3000 ops on 2 thread(s) x 2 shard(s)"), "{out}");
        assert!(out.contains("ops/s"), "{out}");
        assert!(out.contains("1 recombine(s)") || out.contains("recombine"), "{out}");
    }

    #[test]
    fn serve_verify_runs_the_tamper_drill() {
        let out = serve(&[
            "--threads", "4", "--ops", "2000", "--memory-mib", "4", "--verify", "1",
        ])
        .unwrap();
        assert!(out.contains("tamper drill detected"), "{out}");
    }

    #[test]
    fn serve_root_is_thread_count_invariant() {
        // Same seed and op budget: the reported root must be identical for
        // any worker count (concurrency is unobservable in final state).
        let root_of = |threads: &str| {
            let out = serve(&[
                "--threads", threads, "--shards", "4", "--ops", "4000", "--memory-mib", "4",
            ])
            .unwrap();
            let at = out.find("root 0x").expect("root in output");
            out[at..at + 23].to_owned()
        };
        let one = root_of("1");
        assert_eq!(one, root_of("2"));
        assert_eq!(one, root_of("4"));
    }

    #[test]
    fn serve_reports_the_selected_backend() {
        let out = serve(&["--threads", "2", "--ops", "2000", "--memory-mib", "4"]).unwrap();
        let expect = format!("crypto {}", morphtree_crypto::aes::selected_backend());
        assert!(out.contains(&expect), "{out}");
    }

    #[test]
    fn serve_rejects_bad_flags() {
        assert!(serve(&["--threads", "0"]).is_err());
        // More shards than data lines: 4 MiB = 65536 lines, ask for more.
        assert!(serve(&["--threads", "1", "--shards", "99999999", "--memory-mib", "1"]).is_err());
        // Persisting state without epoch mode has nothing to persist.
        assert!(serve(&["--state-out", "/tmp/x"]).is_err());
    }

    #[test]
    fn serve_metrics_dump_has_the_serve_keys() {
        let path = std::env::temp_dir().join("morphtree-serve-metrics.json");
        let path_str = path.to_str().unwrap().to_owned();
        serve(&[
            "--threads", "2", "--ops", "1000", "--memory-mib", "4", "--metrics", &path_str,
        ])
        .unwrap();
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(json.contains("serve.ops"), "{json}");
        assert!(json.contains("serve.ops_per_sec"), "{json}");
    }

    #[test]
    fn serve_epoch_mode_seals_and_drills_recovery() {
        let out = serve(&[
            "--threads", "2", "--ops", "3000", "--memory-mib", "4", "--batch", "500",
            "--epoch-ops", "1000",
        ])
        .unwrap();
        assert!(out.contains("epoch every 1000 ops"), "{out}");
        assert!(out.contains("epochs sealed 3"), "{out}");
        assert!(out.contains("recovery drill: resolved epoch"), "{out}");
        assert!(out.contains("state matches live"), "{out}");
        assert!(out.contains("serve complete: 3000 ops on 2 thread(s) x 2 shard(s)"), "{out}");
    }

    #[test]
    fn serve_epoch_root_matches_plain_mode() {
        // Epoch journaling must be invisible to the served state: same
        // seed, same ops — same combined root as the plain engine.
        let root_of = |extra: &[&str]| {
            let mut args =
                vec!["--threads", "2", "--shards", "2", "--ops", "2000", "--memory-mib", "4"];
            args.extend_from_slice(extra);
            let out = serve(&args).unwrap();
            let at = out.find("root 0x").expect("root in output");
            out[at..at + 23].to_owned()
        };
        assert_eq!(root_of(&[]), root_of(&["--epoch-ops", "512"]));
    }

    #[test]
    fn serve_epoch_state_out_writes_recoverable_state() {
        let dir = std::env::temp_dir().join("morphtree-serve-state");
        std::fs::create_dir_all(&dir).unwrap();
        let prefix = dir.join("drill").to_str().unwrap().to_owned();
        let out = serve(&[
            "--threads", "2", "--ops", "1500", "--memory-mib", "4", "--batch", "300",
            "--epoch-ops", "600", "--state-out", &prefix,
        ])
        .unwrap();
        assert!(out.contains("state written to"), "{out}");
        let container = std::fs::read(format!("{prefix}.mtsh")).unwrap();
        let wal0 = std::fs::read(format!("{prefix}.shard0.wal")).unwrap();
        let wal1 = std::fs::read(format!("{prefix}.shard1.wal")).unwrap();
        let rec = recover_sharded_bounded(&container, &[wal0, wal1]).unwrap();
        assert_eq!(rec.memory.healthy_shards(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
