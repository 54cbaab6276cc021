//! ETL-as-a-service: jobs executing under container resource quotas.
//!
//! The paper (§2.1, §3.2, §4.4): the data integration stack executes
//! ETL jobs centrally for many teams and must guarantee a minimum
//! service level per job — a resource-intensive job must not degrade
//! its neighbours. Each managed job runs inside a
//! [`liquid_yarn`] container; every scheduler tick it may process at
//! most as many messages as the CPU it is granted (1 message = 1 CPU
//! work unit), so with isolation enabled a noisy job is capped at its
//! quota while without isolation it drains the node's shared pool.

use std::sync::Arc;

use liquid_obs::stats::Histogram;
use liquid_processing::Job;
use liquid_yarn::{ContainerId, ResourceManager};

/// A job running under a resource container.
pub struct ManagedJob {
    /// Job name (from its config).
    pub name: String,
    job: Job,
    container: ContainerId,
    rm: Arc<ResourceManager>,
    /// Consumer lag observed after each tick (messages): the service
    /// metric the isolation experiment reports percentiles over.
    lag_history: Histogram,
    ticks: u64,
}

impl ManagedJob {
    pub(crate) fn new(job: Job, container: ContainerId, rm: Arc<ResourceManager>) -> Self {
        ManagedJob {
            name: job.config().name.clone(),
            job,
            container,
            rm,
            lag_history: Histogram::new(),
            ticks: 0,
        }
    }

    /// Runs one service tick: asks the container for as much CPU as the
    /// job has lag, processes that many messages, and records the
    /// post-tick lag. Returns messages processed.
    pub fn tick(&mut self) -> crate::Result<u64> {
        let want = self.job.lag()?;
        let granted = if self.rm.is_running(self.container) {
            self.rm.try_consume(self.container, want)?
        } else {
            0 // container still pending placement
        };
        let n = self.job.run_once_limited(granted)?;
        let lag_after = self.job.lag()?;
        self.lag_history.record(lag_after);
        self.ticks += 1;
        Ok(n)
    }

    /// The underlying job.
    pub fn job_mut(&mut self) -> &mut Job {
        &mut self.job
    }

    /// The underlying job (read access).
    pub fn job(&self) -> &Job {
        &self.job
    }

    /// This job's container.
    pub fn container(&self) -> ContainerId {
        self.container
    }

    /// Post-tick lag distribution.
    pub fn lag_stats(&self) -> &Histogram {
        &self.lag_history
    }

    /// Ticks executed.
    pub fn ticks(&self) -> u64 {
        self.ticks
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use liquid_messaging::{
        AckLevel, Cluster, ClusterConfig, Message, TopicConfig, TopicPartition,
    };
    use liquid_processing::{FnTask, JobConfig, TaskContext};
    use liquid_sim::clock::SimClock;
    use liquid_yarn::ContainerRequest;

    fn setup() -> (Cluster, Arc<ResourceManager>) {
        let c = Cluster::new(ClusterConfig::with_brokers(1), SimClock::new(0).shared());
        c.create_topic("in", TopicConfig::with_partitions(1))
            .unwrap();
        let rm = Arc::new(ResourceManager::new());
        rm.add_node(100, 4096);
        (c, rm)
    }

    fn noop_job(c: &Cluster, name: &str) -> Job {
        Job::new(c, JobConfig::new(name, &["in"]).stateless(), |_| {
            Box::new(FnTask(|_: &Message, _: &mut TaskContext<'_>| Ok(())))
        })
        .unwrap()
    }

    fn fill(c: &Cluster, n: u64) {
        let tp = TopicPartition::new("in", 0);
        for i in 0..n {
            c.produce_to(
                &tp,
                None,
                bytes::Bytes::from(format!("m{i}")),
                AckLevel::Leader,
            )
            .unwrap();
        }
    }

    #[test]
    fn tick_is_bounded_by_container_quota() {
        let (c, rm) = setup();
        fill(&c, 500);
        let container = rm
            .submit(
                "j",
                ContainerRequest {
                    cpu_per_tick: 50,
                    memory_mb: 128,
                },
            )
            .unwrap();
        let mut mj = ManagedJob::new(noop_job(&c, "j"), container, rm.clone());
        rm.tick();
        assert_eq!(mj.tick().unwrap(), 50, "quota caps throughput");
        assert_eq!(mj.tick().unwrap(), 0, "budget exhausted this tick");
        rm.tick();
        assert_eq!(mj.tick().unwrap(), 50);
        assert_eq!(mj.job().processed(), 100);
        assert!(mj.lag_stats().count() >= 3);
        assert_eq!(mj.ticks(), 3);
    }

    #[test]
    fn pending_container_processes_nothing() {
        let (c, rm) = setup();
        fill(&c, 10);
        // Node has 4096 MB; this container cannot place.
        let blocked = rm.submit(
            "big",
            ContainerRequest {
                cpu_per_tick: 10,
                memory_mb: 9000,
            },
        );
        assert!(blocked.is_err(), "unsatisfiable request rejected");
        // A placeable one that must wait behind another reservation.
        let hog = rm
            .submit(
                "hog",
                ContainerRequest {
                    cpu_per_tick: 10,
                    memory_mb: 4000,
                },
            )
            .unwrap();
        let waiting = rm
            .submit(
                "waiting",
                ContainerRequest {
                    cpu_per_tick: 10,
                    memory_mb: 4000,
                },
            )
            .unwrap();
        let mut mj = ManagedJob::new(noop_job(&c, "waiting"), waiting, rm.clone());
        rm.tick();
        assert_eq!(mj.tick().unwrap(), 0, "no container, no work");
        rm.release(hog).unwrap();
        rm.tick();
        assert_eq!(mj.tick().unwrap(), 10);
    }
}
