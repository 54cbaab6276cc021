//! Time-boxed windows over a workload's rounds.
//!
//! A window runs rounds until its deadline has passed *and* the round
//! that passed it ended on a maintenance boundary, so every window
//! holds whole maintenance cycles: a window cut mid-cycle counts the
//! cheap part of one cycle without the retention pass that pays for it
//! (a prototype without this varied 11 % run to run).
//!
//! Time is kept twice: in wall seconds, and in the reference seconds of
//! [`crate::speed`], which take the machine's drifting speed out.

use std::time::Instant;

use crate::span::Recorder;
use crate::speed::Speedometer;

/// What the window driver needs from a workload.
pub trait Rounds {
    /// One driver round. Returns the records that count towards the
    /// maintenance cadence (produced, or fetched when replaying).
    fn round(&mut self, rec: &mut Recorder) -> u64;
    /// Log maintenance (paper §4.1), run at every cadence boundary.
    fn maintain(&mut self, rec: &mut Recorder);
    /// Cadence: maintenance runs once this many records have passed.
    fn maintain_every(&self) -> u64;
}

/// Wall seconds since some fixed instant, and the machine's current
/// speed; the tests substitute a fake.
pub trait Clock {
    fn now(&mut self) -> f64;
    /// Speed relative to the reference machine; takes ~0.5 ms.
    fn speed(&mut self) -> f64;
}

pub struct WallClock<'a> {
    pub epoch: Instant,
    speedometer: &'a mut Speedometer,
}

impl WallClock<'_> {
    pub fn start(speedometer: &mut Speedometer) -> WallClock<'_> {
        WallClock {
            epoch: Instant::now(),
            speedometer,
        }
    }
}

impl Clock for WallClock<'_> {
    fn now(&mut self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    fn speed(&mut self) -> f64 {
        self.speedometer.probe()
    }
}

/// Wall seconds between two speed probes.
const PROBE_EVERY: f64 = 0.02;

/// A stretch of the window between two speed probes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stretch {
    /// Clock reading at which the stretch ended.
    pub end: f64,
    /// Mean of the speeds probed at its two ends.
    pub speed: f64,
}

#[derive(Debug, Default)]
pub struct Window {
    /// Wall seconds from the first round to the closing boundary, speed
    /// probes included: the time base of an open-loop schedule.
    pub elapsed: f64,
    /// The same with the speed probes excluded.
    pub seconds: f64,
    /// The same in reference seconds.
    pub reference_seconds: f64,
    pub rounds: u64,
    pub cycles: u64,
    /// Duration of every round in reference ns, maintenance excluded.
    pub round_ns: Vec<u64>,
    pub stretches: Vec<Stretch>,
}

impl Window {
    /// Speed of the stretch that was under way at clock reading `at`.
    pub fn speed_at(&self, at: f64) -> f64 {
        let i = self.stretches.partition_point(|s| s.end < at);
        let last = self.stretches.len().saturating_sub(1);
        self.stretches.get(i.min(last)).map_or(1.0, |s| s.speed)
    }

    /// Mean speed of the machine over the window.
    pub fn speed(&self) -> f64 {
        self.reference_seconds / self.seconds
    }
}

/// Runs rounds for at least `seconds`, with maintenance every `every`
/// records, closing at the first maintenance boundary after the
/// deadline. The only clock reads are one per round, one after each
/// maintenance pass, and the speed probes.
pub fn run(
    w: &mut dyn Rounds,
    rec: &mut Recorder,
    clock: &mut dyn Clock,
    seconds: f64,
    every: u64,
) -> Window {
    let mut out = Window {
        round_ns: Vec::with_capacity(1 << 16),
        ..Window::default()
    };
    let mut since_maintenance = 0u64;
    let mut speed = clock.speed();
    let start = clock.now();
    // Start of the current stretch, and the first round that is in it.
    let (mut stretch_start, mut stretch_round) = (start, 0);
    let mut t = start;
    loop {
        rec.next_round();
        let span = rec.begin("round");
        since_maintenance += w.round(rec);
        rec.end(span);
        let after = clock.now();
        out.round_ns.push(((after - t) * 1e9) as u64);
        out.rounds += 1;
        t = after;
        let boundary = since_maintenance >= every;
        if boundary {
            since_maintenance = 0;
            let span = rec.begin("maintenance");
            w.maintain(rec);
            rec.end(span);
            out.cycles += 1;
            t = clock.now();
        }
        let closing = boundary && t - start >= seconds;
        if closing || t - stretch_start >= PROBE_EVERY {
            let next_speed = clock.speed();
            let stretch = Stretch {
                end: t,
                speed: (speed + next_speed) / 2.0,
            };
            out.seconds += t - stretch_start;
            out.reference_seconds += (t - stretch_start) * stretch.speed;
            for ns in &mut out.round_ns[stretch_round..] {
                *ns = (*ns as f64 * stretch.speed) as u64;
            }
            out.stretches.push(stretch);
            if closing {
                out.elapsed = t - start;
                return out;
            }
            speed = next_speed;
            stretch_round = out.round_ns.len();
            t = clock.now();
            stretch_start = t;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::rc::Rc;

    /// Each round produces 100 records and takes 1 s of fake time;
    /// maintenance takes 0.5 s.
    struct Fake {
        time: Rc<Cell<f64>>,
        rounds: u64,
        maintained_at_round: Vec<u64>,
    }

    impl Rounds for Fake {
        fn round(&mut self, _: &mut Recorder) -> u64 {
            self.rounds += 1;
            self.time.set(self.time.get() + 1.0);
            100
        }
        fn maintain(&mut self, _: &mut Recorder) {
            self.maintained_at_round.push(self.rounds);
            self.time.set(self.time.get() + 0.5);
        }
        fn maintain_every(&self) -> u64 {
            400
        }
    }

    /// The machine runs at reference speed until t = 14.5, then twice
    /// as fast.
    struct FakeClock(Rc<Cell<f64>>);

    impl Clock for FakeClock {
        fn now(&mut self) -> f64 {
            self.0.get()
        }
        fn speed(&mut self) -> f64 {
            if self.0.get() < 14.5 {
                1.0
            } else {
                2.0
            }
        }
    }

    #[test]
    fn window_closes_on_the_first_maintenance_boundary_after_the_deadline() {
        let time = Rc::new(Cell::new(10.0));
        let mut fake = Fake {
            time: time.clone(),
            rounds: 0,
            maintained_at_round: Vec::new(),
        };
        // Deadline 6 s: falls inside the second cycle (4.5 s..9 s).
        let every = fake.maintain_every();
        let w = run(
            &mut fake,
            &mut Recorder::off(),
            &mut FakeClock(time),
            6.0,
            every,
        );
        assert_eq!(fake.maintained_at_round, [4, 8]);
        assert_eq!((w.rounds, w.cycles), (8, 2));
        assert_eq!((w.seconds, w.elapsed), (9.0, 9.0));
        // Every round ends a stretch here (1 s > the probe interval).
        // Rounds 1-3 ran at speed 1; round 4's stretch (with its
        // maintenance pass) ends on a probe of 2, so counts 1.5; the
        // rest ran at 2. Round durations exclude the maintenance pass.
        assert_eq!(w.reference_seconds, 3.0 + 1.5 * 1.5 + 2.0 * 4.5);
        let s = 1_000_000_000;
        assert_eq!(w.round_ns, [s, s, s, s * 3 / 2, 2 * s, 2 * s, 2 * s, 2 * s]);
        assert_eq!(w.speed_at(10.5), 1.0);
        assert_eq!(w.speed_at(14.2), 1.5);
        assert_eq!(w.speed_at(99.0), 2.0);
    }
}
