//! Reference model of one partition's §4.3 replication rules.
//!
//! Plain sequential semantics over a `Vec` log per replica: no locks,
//! no storage, no metrics. Each rule is stated once, in the method that
//! applies it, so a test can run `Cluster` or the partition core beside
//! this model on the same op stream and diff the two after every op.
//! Fault decision points are explicit: an op names the decision, by
//! count, that crashes it.
//!
//! The rules:
//! - **Produce** appends on the live leader. At acks=All every live ISR
//!   follower then copies up to the leader, in ISR order, and the high
//!   watermark (HW) rises to the lowest end among the leader and the
//!   followers it synced. At Leader/None the HW moves only when the
//!   leader is the whole ISR. A fetch fault leaves the batch on the
//!   leader, below the HW.
//! - **Dedup**: a sequence at or below the last one a producer appended
//!   is answered with that batch's base, appending nothing. A sequence
//!   is recorded only once its batch is on the leader.
//! - **Catch-up**: a follower keeps the longest prefix it shares with
//!   the leader and copies the rest.
//! - **Tick**: without a live leader, elect. Otherwise every live
//!   follower catches up (assignment order), the ISR becomes the leader
//!   plus the live followers at its end (sorted), and the HW rises to the
//!   ISR's lowest end.
//! - **Election**: the first assigned broker that is in the ISR, up, and
//!   whose log reaches the HW leads. Live replicas longer than it are
//!   truncated to its end. No candidate: no leader.
//! - **Kill** marks a broker down; it stays in the ISR. A partition it
//!   led elects. **Restart** marks it up and, unless it still leads,
//!   truncates its replica to the HW.

use std::collections::BTreeMap;

/// A record as the model sees it: `(key, value)`.
pub type Rec = (Option<Vec<u8>>, Vec<u8>);

/// Why a model op failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Fail {
    /// No live leader.
    Unavailable,
    /// An injected crash at the named fault site.
    Injected(&'static str),
}

/// Which decision point of an op crashes it: the `n`-th (1-based) of
/// its follower fetches, elections or leader appends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Fault {
    None,
    Fetch(u32),
    Election(u32),
    Append,
}

/// One partition: every replica's log, leader, ISR, HW and liveness.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Model {
    pub assignment: Vec<u32>,
    pub logs: BTreeMap<u32, Vec<Rec>>,
    pub leader: Option<u32>,
    pub isr: Vec<u32>,
    pub hw: u64,
    pub up: Vec<bool>,
    /// Per producer id: the last appended sequence and its base offset.
    pub seqs: BTreeMap<u64, (u64, u64)>,
}

/// The decision points one op has passed, and the one that crashes it.
struct Decisions {
    fault: Fault,
    fetches: u32,
    elections: u32,
}

impl Decisions {
    fn new(fault: Fault) -> Decisions {
        Decisions {
            fault,
            fetches: 0,
            elections: 0,
        }
    }

    /// Passes a fetch decision; `true` when it is the faulted one.
    fn fetch(&mut self) -> bool {
        self.fetches += 1;
        self.fault == Fault::Fetch(self.fetches)
    }

    /// Passes an election decision; `true` when it is the faulted one.
    fn election(&mut self) -> bool {
        self.elections += 1;
        self.fault == Fault::Election(self.elections)
    }
}

impl Model {
    /// `brokers` live brokers, the partition on `assignment`, every
    /// replica empty and in the ISR, the first assigned broker leading.
    pub fn new(brokers: u32, assignment: Vec<u32>) -> Model {
        Model {
            logs: assignment.iter().map(|&b| (b, Vec::new())).collect(),
            leader: assignment.first().copied(),
            isr: assignment.clone(),
            assignment,
            hw: 0,
            up: vec![true; brokers as usize],
            seqs: BTreeMap::new(),
        }
    }

    pub fn end(&self, b: u32) -> u64 {
        self.logs.get(&b).map_or(0, |l| l.len() as u64)
    }

    fn is_up(&self, b: u32) -> bool {
        self.up[b as usize]
    }

    fn live_leader(&self) -> Option<u32> {
        self.leader.filter(|&l| self.is_up(l))
    }

    /// The committed records: the leader's log below the HW.
    pub fn committed(&self) -> Vec<Rec> {
        let log = self.leader.and_then(|l| self.logs.get(&l));
        log.map_or(Vec::new(), |l| l[..self.hw as usize].to_vec())
    }

    /// Produces `batch`; returns its base offset.
    pub fn produce(
        &mut self,
        batch: Vec<Rec>,
        all: bool,
        dedup: Option<(u64, u64)>,
        fault: Fault,
    ) -> Result<u64, Fail> {
        let mut at = Decisions::new(fault);
        let leader = self.live_leader().ok_or(Fail::Unavailable)?;
        if let Some((id, seq)) = dedup {
            if let Some(&(last, base)) = self.seqs.get(&id) {
                if seq <= last {
                    return Ok(base);
                }
            }
        }
        if fault == Fault::Append {
            return Err(Fail::Injected("log.append"));
        }
        let base = self.end(leader);
        self.logs.entry(leader).or_default().extend(batch);
        if let Some((id, seq)) = dedup {
            self.seqs.insert(id, (seq, base));
        }
        let end = self.end(leader);
        if all {
            let mut min_end = end;
            for b in self.isr.clone() {
                if b == leader || !self.is_up(b) {
                    continue;
                }
                self.sync(leader, b, &mut at)?;
                min_end = min_end.min(self.end(b));
            }
            self.hw = self.hw.max(min_end);
        } else if self.isr == [leader] {
            self.hw = end;
        }
        Ok(base)
    }

    /// One follower fetch: the fault decision, then catch-up. Returns
    /// the records copied.
    fn sync(&mut self, leader: u32, follower: u32, at: &mut Decisions) -> Result<u64, Fail> {
        if at.fetch() {
            return Err(Fail::Injected("replication.fetch"));
        }
        let source = self.logs[&leader].clone();
        let log = self.logs.entry(follower).or_default();
        let shared = log.iter().zip(&source).take_while(|(a, b)| a == b).count();
        log.truncate(shared);
        log.extend_from_slice(&source[shared..]);
        Ok((source.len() - shared) as u64)
    }

    /// One replication round; returns messages copied.
    pub fn tick(&mut self, fault: Fault) -> Result<u64, Fail> {
        let mut at = Decisions::new(fault);
        let Some(leader) = self.live_leader() else {
            self.elect(&mut at)?;
            return Ok(0);
        };
        let mut copied = 0;
        for b in self.assignment.clone() {
            if b != leader && self.is_up(b) {
                copied += self.sync(leader, b, &mut at)?;
            }
        }
        let end = self.end(leader);
        let mut isr: Vec<u32> = (self.assignment.iter().copied())
            .filter(|&b| b == leader || (self.is_up(b) && self.end(b) == end))
            .collect();
        isr.sort_unstable();
        self.isr = isr;
        let min_end = self.isr.iter().map(|&b| self.end(b)).min().unwrap_or(end);
        self.hw = self.hw.max(min_end);
        Ok(copied)
    }

    /// Elects a leader, if a candidate exists.
    fn elect(&mut self, at: &mut Decisions) -> Result<(), Fail> {
        if at.election() {
            return Err(Fail::Injected("cluster.election"));
        }
        let hw = self.hw;
        let candidate = self
            .assignment
            .iter()
            .copied()
            .find(|&b| self.isr.contains(&b) && self.is_up(b) && self.end(b) >= hw);
        let Some(leader) = candidate else {
            return Ok(());
        };
        self.leader = Some(leader);
        let end = self.end(leader) as usize;
        for b in self.assignment.clone() {
            if b != leader && self.is_up(b) {
                self.logs.entry(b).or_default().truncate(end);
            }
        }
        Ok(())
    }

    /// Takes broker `b` down.
    pub fn kill(&mut self, b: u32) -> Result<(), Fail> {
        if !self.is_up(b) {
            return Ok(());
        }
        self.up[b as usize] = false;
        if self.leader == Some(b) {
            self.leader = None;
            self.elect(&mut Decisions::new(Fault::None))?;
        }
        Ok(())
    }

    /// Brings broker `b` back.
    pub fn restart(&mut self, b: u32) {
        if self.is_up(b) {
            return;
        }
        self.up[b as usize] = true;
        if self.assignment.contains(&b) && self.leader != Some(b) {
            let hw = self.hw as usize;
            self.logs.entry(b).or_default().truncate(hw);
        }
    }
}
