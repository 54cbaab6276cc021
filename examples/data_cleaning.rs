//! Data cleaning and normalization with reprocessing (paper §5.1).
//!
//! The paper's flagship use case: user-generated content must be
//! cleaned (1) with low latency as new content arrives, and (2)
//! re-processed from scratch whenever the cleaning *algorithm* changes,
//! so that all data was cleaned by the same code. Before Liquid these
//! were two separate sub-systems; with Liquid they are one job plus
//! rewindability.
//!
//! This example runs cleaner v1 incrementally, then ships cleaner v2
//! (better normalization) and reprocesses the full history into a new
//! derived feed — the Kappa-style upgrade of §2.2, with lineage and
//! offset-manager annotations recording which version produced what.
//!
//! Run with: `cargo run --example data_cleaning`

use liquid::prelude::*;
use liquid_workloads::profiles::{ProfileUpdate, ProfileUpdateGen};

fn cleaner(version: &'static str, output: &'static str) -> impl FnMut(u32) -> Box<dyn StreamTask> {
    move |_| {
        Box::new(FnTask(move |m: &Message, ctx: &mut TaskContext<'_>| {
            let Some(update) = ProfileUpdate::decode(&m.value) else {
                return Ok(());
            };
            // v1 lower-cases; v2 also collapses whitespace and strips
            // the revision prefix — a realistic algorithm change.
            let cleaned = match version {
                "v1" => update.payload.to_lowercase(),
                _ => update
                    .payload
                    .to_lowercase()
                    .split_whitespace()
                    .collect::<Vec<_>>()
                    .join(" ")
                    .replace("headline ", ""),
            };
            ctx.send(
                output,
                Some(m.key.clone().unwrap_or_default()),
                Bytes::from(format!("{version}|{cleaned}")),
            )?;
            Ok(())
        }))
    }
}

fn main() -> liquid::Result<()> {
    let clock = SimClock::new(0);
    let liquid = Liquid::new(LiquidConfig::default(), clock.shared());
    liquid.create_source_feed("profiles-raw", FeedConfig::default())?;
    liquid.create_derived_feed(
        "profiles-clean",
        FeedConfig::default().retention(RetentionPolicy::compact()),
        Lineage::new("profile-cleaner", "v1", &["profiles-raw"]),
    )?;

    // Phase 1: v1 cleans 5,000 historical updates incrementally.
    let producer = liquid.producer("profiles-raw")?;
    let mut gen = ProfileUpdateGen::new(3, 1_000, 1.0);
    for u in gen.batch(5_000) {
        producer.send(Some(u.key()), u.encode())?;
    }
    let v1 = liquid.submit_job(
        JobConfig::new("profile-cleaner", &["profiles-raw"])
            .version("v1")
            .stateless()
            .checkpoint_every(500),
        ContainerRequest {
            cpu_per_tick: 100_000,
            memory_mb: 256,
        },
        cleaner("v1", "profiles-clean"),
    )?;
    let cleaned_v1 = liquid.run_until_idle(100)?;
    liquid.with_job(v1, |mj| mj.job_mut().checkpoint().unwrap())?;
    println!("v1 cleaned {cleaned_v1} updates (nearline path)");

    // New content keeps arriving; v1 handles just the delta.
    for u in gen.batch(500) {
        producer.send(Some(u.key()), u.encode())?;
    }
    let delta = liquid.run_until_idle(100)?;
    liquid.with_job(v1, |mj| mj.job_mut().checkpoint().unwrap())?;
    println!("v1 cleaned {delta} new updates incrementally");
    assert_eq!(delta, 500);

    // Phase 2: the algorithm changes. Reprocess *everything* with v2
    // into a fresh derived feed, in parallel with v1 (resource
    // isolation means they don't interfere; A/B testing per §5.1).
    liquid.create_derived_feed(
        "profiles-clean-v2",
        FeedConfig::default().retention(RetentionPolicy::compact()),
        Lineage::new("profile-cleaner", "v2", &["profiles-raw"]),
    )?;
    let _v2 = liquid.submit_job(
        JobConfig::new("profile-cleaner-v2", &["profiles-raw"])
            .version("v2")
            .stateless()
            .start_from(JobStart::Earliest),
        ContainerRequest {
            cpu_per_tick: 100_000,
            memory_mb: 256,
        },
        cleaner("v2", "profiles-clean-v2"),
    )?;
    let reprocessed = liquid.run_until_idle(100)?;
    println!("v2 reprocessed {reprocessed} updates from the beginning of the log");
    assert_eq!(reprocessed, 5_500);

    // Compare outputs: every v2 record is normalized with the new code.
    let v2_reader = liquid.reader_from_start("profiles-clean-v2", "qa")?;
    let v2_rows: Vec<String> = v2_reader
        .poll_batches()?
        .into_iter()
        .flat_map(|(_, batch)| batch.into_messages())
        .map(|m| String::from_utf8_lossy(&m.value).to_string())
        .collect();
    assert!(v2_rows.iter().all(|r| r.starts_with("v2|")));
    println!(
        "sample v2 output: {}",
        &v2_rows[0][..v2_rows[0].len().min(60)]
    );

    // Lineage records both derivations.
    let chain = liquid.lineage().provenance("profiles-clean-v2");
    println!(
        "lineage of profiles-clean-v2: job '{}' version {} over {:?}",
        chain[0].1.job, chain[0].1.version, chain[0].1.inputs
    );
    assert_eq!(chain[0].1.version, "v2");

    // The offset manager remembers which offsets each version covered —
    // back-ends can tell "cleaned by v1" from "cleaned by v2" (§4.2).
    let tp = TopicPartition::new("profiles-raw", 0);
    let v1_commit = liquid
        .cluster()
        .offsets()
        .last_commit_with("job-profile-cleaner", &tp, "version", "v1")
        .expect("v1 checkpointed");
    println!(
        "offset manager: v1 reached offset {} of profiles-raw",
        v1_commit.offset
    );
    assert_eq!(v1_commit.offset, 5_500);
    println!("data_cleaning OK");
    Ok(())
}
