//! The event loop: machines, a calendar, and a deterministic drain.

use crate::calendar::{Calendar, EventKey};
use crate::time::SimTime;

/// A flow as a lightweight state machine.
///
/// A machine owns its per-flow state (RNG stream, Lindley accumulator,
/// counters) and reacts to events; it never owns a loop or the clock. The
/// shared `Ctx` is how a group of machines accumulates into common state
/// (a shard's delay histogram, for instance) without per-flow allocation;
/// machines that need nothing shared use `Ctx = ()`.
pub trait FlowMachine {
    /// Event payload. Per-event identity lives in the [`EventKey`], so
    /// simple machines use `()` here.
    type Event;
    /// Shared mutable context handed to every handler of the executor run.
    type Ctx;

    /// Seed the calendar with the flow's first event(s). Called once per
    /// machine, in flow-id order, before the drain starts.
    fn start(&mut self, sched: &mut Schedule<'_, Self::Event>, ctx: &mut Self::Ctx);

    /// Handle one event dispatched at `key.time`.
    fn on_event(
        &mut self,
        key: EventKey,
        event: Self::Event,
        sched: &mut Schedule<'_, Self::Event>,
        ctx: &mut Self::Ctx,
    );
}

/// A handler's window onto the calendar, scoped to its own flow.
///
/// Machines schedule follow-up events for **their own flow only** — cross-
/// flow interaction goes through the shared `Ctx`, which keeps every
/// calendar key within the executor's machine range by construction.
pub struct Schedule<'a, E> {
    calendar: &'a mut Calendar<E>,
    flow: u64,
    now: SimTime,
}

impl<E> Schedule<'_, E> {
    /// The dispatch time of the event being handled (or the clock origin
    /// during [`FlowMachine::start`]).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` for this flow at `time` with per-flow tiebreak
    /// `seq`. Scheduling into the past is clamped to `now` — the executor
    /// enforces causality, so the drain can never loop backwards on the
    /// clock.
    pub fn at(&mut self, time: SimTime, seq: u64, event: E) {
        let time = time.max(self.now);
        self.calendar.schedule(
            EventKey {
                time,
                flow: self.flow,
                seq,
            },
            event,
        );
    }
}

/// Drives a dense range of flows `[first_flow, first_flow + machines.len())`
/// through one calendar until it drains.
///
/// Flow ids are **global** (a fleet shard passes its range offset), so the
/// key order — and with it the dispatch sequence — is the same whether the
/// fleet runs on one calendar or many.
pub struct Executor<M: FlowMachine> {
    machines: Vec<M>,
    first_flow: u64,
    calendar: Calendar<M::Event>,
}

impl<M: FlowMachine> Executor<M> {
    /// Bind machines to the flow-id range starting at `first_flow`.
    pub fn new(machines: Vec<M>, first_flow: u64) -> Self {
        let capacity = machines.len();
        Executor {
            machines,
            first_flow,
            calendar: Calendar::with_capacity(capacity),
        }
    }

    /// Start every machine, then drain the calendar to empty. Returns the
    /// number of events dispatched by this run.
    pub fn run(&mut self, ctx: &mut M::Ctx) -> u64 {
        let before = self.calendar.dispatched();
        for (i, machine) in self.machines.iter_mut().enumerate() {
            let mut sched = Schedule {
                calendar: &mut self.calendar,
                flow: self.first_flow + i as u64,
                now: SimTime::ZERO,
            };
            machine.start(&mut sched, ctx);
        }
        while let Some((key, event)) = self.calendar.pop() {
            let idx = (key.flow - self.first_flow) as usize;
            let machine = self
                .machines
                .get_mut(idx)
                .expect("calendar key outside the executor's flow range");
            let mut sched = Schedule {
                calendar: &mut self.calendar,
                flow: key.flow,
                now: key.time,
            };
            machine.on_event(key, event, &mut sched, ctx);
        }
        self.calendar.dispatched() - before
    }

    /// Total events dispatched over the executor's lifetime.
    pub fn dispatched(&self) -> u64 {
        self.calendar.dispatched()
    }

    /// Recover the machines (their final states) after a run.
    pub fn into_machines(self) -> Vec<M> {
        self.machines
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A flow that emits `count` events paced `gap` seconds apart and logs
    /// each dispatch into the shared trace.
    struct Pacer {
        gap: f64,
        count: u64,
        done: u64,
    }

    impl FlowMachine for Pacer {
        type Event = ();
        type Ctx = Vec<(u64, u64, f64)>;

        fn start(&mut self, sched: &mut Schedule<'_, ()>, _ctx: &mut Self::Ctx) {
            if self.count > 0 {
                sched.at(SimTime::from_s(self.gap), 0, ());
            }
        }

        fn on_event(
            &mut self,
            key: EventKey,
            _event: (),
            sched: &mut Schedule<'_, ()>,
            ctx: &mut Self::Ctx,
        ) {
            ctx.push((key.flow, key.seq, key.time.as_s()));
            self.done += 1;
            if self.done < self.count {
                sched.at(SimTime::from_s(key.time.as_s() + self.gap), key.seq + 1, ());
            }
        }
    }

    #[test]
    fn drains_in_global_time_order() {
        let machines = vec![
            Pacer {
                gap: 0.3,
                count: 3,
                done: 0,
            },
            Pacer {
                gap: 0.5,
                count: 2,
                done: 0,
            },
        ];
        let mut exec = Executor::new(machines, 0);
        let mut trace = Vec::new();
        let dispatched = exec.run(&mut trace);
        assert_eq!(dispatched, 5);
        let times: Vec<f64> = trace.iter().map(|&(_, _, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_by(f64::total_cmp);
        assert_eq!(times, sorted, "dispatch must be in time order");
        // Per-flow seqs stay in order.
        for flow in 0..2 {
            let seqs: Vec<u64> = trace
                .iter()
                .filter(|&&(f, _, _)| f == flow)
                .map(|&(_, s, _)| s)
                .collect();
            assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn simultaneous_events_dispatch_in_flow_order() {
        // Same gap -> every event of a round collides on the clock; flow id
        // must break the tie.
        let machines = (0..4)
            .map(|_| Pacer {
                gap: 1.0,
                count: 2,
                done: 0,
            })
            .collect();
        let mut exec = Executor::new(machines, 10);
        let mut trace = Vec::new();
        exec.run(&mut trace);
        let flows: Vec<u64> = trace.iter().map(|&(f, _, _)| f).collect();
        assert_eq!(flows, [10, 11, 12, 13, 10, 11, 12, 13]);
    }

    #[test]
    fn offset_flow_range_matches_zero_based_run() {
        let run_with_offset = |offset: u64| {
            let machines = (0..3)
                .map(|i| Pacer {
                    gap: 0.1 * (i + 1) as f64,
                    count: 3,
                    done: 0,
                })
                .collect();
            let mut exec = Executor::new(machines, offset);
            let mut trace = Vec::new();
            exec.run(&mut trace);
            trace
                .into_iter()
                .map(|(f, s, t)| (f - offset, s, t.to_bits()))
                .collect::<Vec<_>>()
        };
        assert_eq!(run_with_offset(0), run_with_offset(1_000_000));
    }

    #[test]
    fn past_scheduling_is_clamped_to_now() {
        struct TimeTraveler {
            fired: bool,
        }
        impl FlowMachine for TimeTraveler {
            type Event = ();
            type Ctx = Vec<f64>;
            fn start(&mut self, sched: &mut Schedule<'_, ()>, _ctx: &mut Self::Ctx) {
                sched.at(SimTime::from_s(5.0), 0, ());
            }
            fn on_event(
                &mut self,
                key: EventKey,
                _event: (),
                sched: &mut Schedule<'_, ()>,
                ctx: &mut Self::Ctx,
            ) {
                ctx.push(key.time.as_s());
                if !self.fired {
                    self.fired = true;
                    // Try to schedule into the past; the executor clamps.
                    sched.at(SimTime::from_s(1.0), 1, ());
                }
            }
        }
        let mut exec = Executor::new(vec![TimeTraveler { fired: false }], 0);
        let mut times = Vec::new();
        exec.run(&mut times);
        assert_eq!(times, [5.0, 5.0]);
    }

    #[test]
    fn machines_are_recoverable_after_the_drain() {
        let mut exec = Executor::new(
            vec![Pacer {
                gap: 1.0,
                count: 4,
                done: 0,
            }],
            0,
        );
        let mut trace = Vec::new();
        exec.run(&mut trace);
        assert_eq!(exec.dispatched(), 4);
        let machines = exec.into_machines();
        assert_eq!(machines[0].done, 4);
    }
}
