//! The declarative Stream DSL: ETL chains without hand-written tasks.
//!
//! Rebuilds the motivating pipeline of the paper's introduction — clean,
//! normalize, aggregate — as three declared chains over the same
//! source-of-truth feed, all running as ordinary Liquid jobs (stateful
//! ones get changelogs and checkpoints automatically).
//!
//! Run with: `cargo run --example streams_dsl`

use liquid::messaging::{Cluster, ClusterConfig, Producer, TopicConfig, TopicPartition};
use liquid::prelude::*;
use liquid::processing::dsl::{Record, Stream};
use liquid_workloads::activity::{ActivityEvent, ActivityGen};

fn main() -> liquid::Result<()> {
    let clock = SimClock::new(0);
    let cluster = Cluster::new(ClusterConfig::with_brokers(1), clock.shared());
    for topic in ["activity", "clean", "actions-per-user", "page-views"] {
        cluster.create_topic(topic, TopicConfig::with_partitions(2))?;
    }

    // Source data: 10,000 skewed activity events (some garbage mixed in).
    let producer = Producer::new(&cluster, "activity")?;
    let mut gen = ActivityGen::new(77, 2_000, 500);
    for event in gen.batch(10_000) {
        producer.send(Some(event.key()), event.encode())?;
    }
    for _ in 0..50 {
        producer.send(None, Bytes::from_static(b"%%corrupted%%"))?;
    }

    // Chain 1: clean + normalize (drop garbage, uppercase the action).
    let mut clean = Stream::from("activity")
        .filter(|r| ActivityEvent::decode(&r.value).is_some())
        .map(|r| {
            let e = ActivityEvent::decode(&r.value).expect("filtered");
            Record {
                key: r.key,
                value: Bytes::from(format!(
                    "user={} action={} page={}",
                    e.user_id,
                    e.action.as_str().to_uppercase(),
                    e.page_id
                )),
                timestamp: r.timestamp,
            }
        })
        .to("clean")
        .into_job(&cluster, "dsl-clean")?;

    // Chain 2: actions per user (stateful count, keyed by user).
    let mut per_user = Stream::from("activity")
        .filter(|r| ActivityEvent::decode(&r.value).is_some())
        .count_by_key()
        .to("actions-per-user")
        .into_job(&cluster, "dsl-per-user")?;

    // Chain 3: views per page. Re-keying needs a *repartition hop*:
    // the input is partitioned by user, so counting in place would give
    // per-partition partials. Stage A re-keys views by page and routes
    // them through an intermediate feed (key-hash partitioning moves
    // each page to one partition); stage B counts there. This is the
    // repartition-topic pattern the dataflow decoupling of §3.2 makes
    // cheap.
    cluster.create_topic("views-by-page", TopicConfig::with_partitions(2))?;
    let mut rekey = Stream::from("activity")
        .flat_map(|r| match ActivityEvent::decode(&r.value) {
            Some(e) if e.action.as_str() == "view" => vec![Record {
                key: Some(Bytes::from(format!("page-{}", e.page_id))),
                value: r.value,
                timestamp: r.timestamp,
            }],
            _ => vec![],
        })
        .to("views-by-page")
        .into_job(&cluster, "dsl-rekey")?;
    let mut per_page = Stream::from("views-by-page")
        .count_by_key()
        .to("page-views")
        .into_job(&cluster, "dsl-per-page")?;

    // Pump all chains.
    loop {
        let n =
            clean.run_once()? + per_user.run_once()? + rekey.run_once()? + per_page.run_once()?;
        if n == 0 {
            break;
        }
    }

    let count = |topic: &str| -> usize {
        (0..2)
            .map(|p| {
                cluster
                    .fetch_batch(&TopicPartition::new(topic, p), 0, u64::MAX)
                    .map(|b| b.len())
                    .unwrap_or(0)
            })
            .sum()
    };
    println!(
        "clean feed:        {} records (garbage dropped)",
        count("clean")
    );
    println!(
        "actions-per-user:  {} running-count updates",
        count("actions-per-user")
    );
    println!(
        "page-views:        {} view-count updates",
        count("page-views")
    );
    assert_eq!(count("clean"), 10_000);
    assert_eq!(count("actions-per-user"), 10_000);
    assert!(count("page-views") > 0 && count("page-views") < 10_000);

    // Top pages from chain 3's state (aggregates are queryable live).
    let mut tops: Vec<(String, u64)> = Vec::new();
    for p in 0..2 {
        if let Some(store) = per_page.state(p) {
            for (k, v) in store.range(Some(b"dsl|count|"), Some(b"dsl|count~")) {
                let key = String::from_utf8_lossy(&k[b"dsl|count|".len()..]).to_string();
                // Counters are stored as u64 little-endian.
                let n = v.as_ref().try_into().map(u64::from_le_bytes).unwrap_or(0);
                tops.push((key, n));
            }
        }
    }
    tops.sort_by_key(|(_, n)| std::cmp::Reverse(*n));
    println!("top pages by views:");
    for (page, views) in tops.iter().take(5) {
        println!("  {page}: {views}");
    }
    assert!(tops[0].1 >= tops.last().unwrap().1);
    // Thanks to the repartition hop, each page has exactly one total.
    let mut names: Vec<&String> = tops.iter().map(|(p, _)| p).collect();
    names.sort();
    names.dedup();
    assert_eq!(names.len(), tops.len(), "one global count per page");
    let total_views: u64 = tops.iter().map(|(_, n)| n).sum();
    println!("total views: {total_views}");
    println!("streams_dsl OK");
    Ok(())
}
