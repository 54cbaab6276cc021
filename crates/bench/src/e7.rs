//! E7 — §3.2/§4.4: resource isolation (ETL-as-a-service).
//!
//! Two jobs share one processing node: a well-behaved job sized to its
//! input rate, and a noisy neighbour that demands 4x its quota every
//! tick. With container isolation the polite job's consumer lag stays
//! bounded; with isolation disabled the noisy job drains the node's
//! shared CPU pool first and the polite job starves.

use crate::report::{check, table_header, table_row};
use liquid::prelude::{
    ContainerRequest, FeedConfig, FnTask, JobConfig, Liquid, LiquidConfig, Message, SimClock,
    TaskContext,
};

const TICKS: u64 = 200;
const ARRIVALS_PER_TICK: u64 = 400;
/// Node CPU per tick; each message costs 1 unit.
const NODE_CPU: u64 = 1_000;

fn share_node(isolation: bool) -> (u64, u64, u64) {
    let clock = SimClock::new(0);
    let liquid = Liquid::new(
        LiquidConfig {
            nodes: vec![(NODE_CPU, 16_384)],
            ..LiquidConfig::default()
        },
        clock.shared(),
    );
    liquid.resources().set_isolation(isolation);
    liquid
        .create_source_feed("polite-in", FeedConfig::default())
        .unwrap();
    liquid
        .create_source_feed("noisy-in", FeedConfig::default())
        .unwrap();

    // Noisy job: 500 CPU quota but its input arrives at 4000/tick, so
    // it demands far more than its share — and, scheduled first, it
    // gets first crack at the node's pool each tick. Polite job: 500
    // quota, needs only 400/tick.
    let noisy = liquid
        .submit_job(
            JobConfig::new("noisy", &["noisy-in"]).stateless(),
            ContainerRequest {
                cpu_per_tick: 500,
                memory_mb: 256,
            },
            |_| Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(()))),
        )
        .unwrap();
    let polite = liquid
        .submit_job(
            JobConfig::new("polite", &["polite-in"]).stateless(),
            ContainerRequest {
                cpu_per_tick: 500,
                memory_mb: 256,
            },
            |_| Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(()))),
        )
        .unwrap();

    let polite_producer = liquid.producer("polite-in").unwrap();
    let noisy_producer = liquid.producer("noisy-in").unwrap();
    for _ in 0..TICKS {
        for i in 0..ARRIVALS_PER_TICK {
            polite_producer.send_value(format!("p{i}")).unwrap();
        }
        for i in 0..ARRIVALS_PER_TICK * 10 {
            noisy_producer.send_value(format!("n{i}")).unwrap();
        }
        clock.advance(1_000);
        liquid.run_tick().unwrap();
    }
    let (p50, p99) = liquid
        .with_job(polite, |mj| (mj.lag_stats().p50(), mj.lag_stats().p99()))
        .unwrap();
    let noisy_done = liquid.with_job(noisy, |mj| mj.job().processed()).unwrap();
    (p50, p99, noisy_done)
}

pub fn run() -> Result<(), String> {
    println!(
        "# E7: noisy-neighbour isolation ({TICKS} ticks, polite load {ARRIVALS_PER_TICK}/tick, \
         noisy load {}/tick, node cpu {NODE_CPU}/tick)",
        ARRIVALS_PER_TICK * 10
    );
    table_header(&[
        "isolation",
        "polite lag p50",
        "polite lag p99",
        "noisy processed",
    ]);
    let mut p99s = Vec::new();
    for (iso, label) in [(true, "on (containers)"), (false, "off (shared pool)")] {
        let (p50, p99, noisy) = share_node(iso);
        p99s.push(p99);
        table_row(&[
            label.to_string(),
            p50.to_string(),
            p99.to_string(),
            noisy.to_string(),
        ]);
    }
    println!();
    println!(
        "paper claim: container-based isolation guarantees each ETL job a\n\
         minimum service level; without it a resource-intensive job degrades\n\
         its neighbours (the polite job's lag explodes)."
    );
    let (on, off) = (p99s[0], p99s[1]);
    check(
        "with isolation the polite job's p99 lag is 0",
        on == 0,
        format!("p99 lag {on}"),
    )?;
    check(
        "without isolation the polite job's p99 lag is > 0",
        off > 0,
        format!("p99 lag {off}"),
    )
}
