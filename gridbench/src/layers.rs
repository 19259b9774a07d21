//! Outside-in tracing: a timing wrapper around the public actors.
//!
//! The traced run re-installs every node with [`World::install`] behind
//! [`Timed`], which forwards each `Actor` call to the real coordinator,
//! server or client and records, from outside:
//!
//! * host time and count per handler, per role and per `Msg::kind()`;
//! * the lifecycle stamps of every job, in virtual time, at four message
//!   boundaries: `Submit` arriving at a coordinator, `Assign` at a server,
//!   `TaskDone` at a coordinator, and the job's part of a `ResultsReply`
//!   at its client (`Msg::Batch` frames are unpacked).
//!
//! Nothing is recorded inside the program.  The simulator is
//! single-threaded, so the tallies live in a thread-local the wrappers
//! share; [`take`] drains them after each simulation.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

use rpcv_core::Msg;
use rpcv_simnet::{Actor, Ctx, DurableImage, NodeId, SimTime, TimerId, World};
use rpcv_xw::JobKey;

/// Which protocol actor a wrapper hosts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Coordinator,
    Server,
    Client,
}

impl Role {
    pub const ALL: [Role; 3] = [Role::Coordinator, Role::Server, Role::Client];

    pub fn name(self) -> &'static str {
        match self {
            Role::Coordinator => "coordinator",
            Role::Server => "server",
            Role::Client => "client",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// Handler calls and the host nanoseconds they took.
#[derive(Debug, Clone, Copy, Default)]
pub struct Busy {
    pub count: u64,
    pub nanos: u64,
}

impl Busy {
    fn add(&mut self, nanos: u64) {
        self.count += 1;
        self.nanos += nanos;
    }

    fn absorb(&mut self, other: Busy) {
        self.count += other.count;
        self.nanos += other.nanos;
    }
}

/// Lifecycle stamp slots, in protocol order.
pub const SUBMIT: usize = 0;
pub const ASSIGN: usize = 1;
pub const DONE: usize = 2;
pub const COLLECT: usize = 3;

/// Everything one traced simulation recorded.
#[derive(Debug, Default)]
pub struct Tally {
    /// Per role: `(Msg::kind(), busy)` in first-seen order.
    pub msgs: [Vec<(&'static str, Busy)>; 3],
    /// Per role: timer handlers, `on_start` included.
    pub timers: [Busy; 3],
    /// First virtual instant each job crossed each boundary.
    pub stamps: HashMap<JobKey, [Option<SimTime>; 4]>,
}

impl Tally {
    /// The kinds `role` received, each with its handler calls and time.
    pub fn msg_kinds(&self, role: Role) -> &[(&'static str, Busy)] {
        &self.msgs[role.index()]
    }

    /// `role`'s handling of one message kind.
    pub fn msg_busy(&self, role: Role, kind: &str) -> Busy {
        self.msg_kinds(role).iter().find(|(k, _)| *k == kind).map_or(Busy::default(), |x| x.1)
    }

    /// `role`'s handling of every message kind.
    pub fn msg_total(&self, role: Role) -> Busy {
        let mut total = Busy::default();
        for &(_, busy) in self.msg_kinds(role) {
            total.absorb(busy);
        }
        total
    }

    pub fn timer_busy(&self, role: Role) -> Busy {
        self.timers[role.index()]
    }

    /// Host nanoseconds spent in every handler of every role.
    pub fn handler_nanos(&self) -> u64 {
        Role::ALL.iter().map(|&r| self.timer_busy(r).nanos + self.msg_total(r).nanos).sum()
    }

    fn stamp(&mut self, job: JobKey, slot: usize, now: SimTime) {
        let s = self.stamps.entry(job).or_default();
        if s[slot].is_none() {
            s[slot] = Some(now);
        }
    }

    /// Stamps the lifecycle boundaries `msg` crosses on arrival at `role`.
    fn stamp_arrival(&mut self, role: Role, msg: &Msg, now: SimTime) {
        match (role, msg) {
            (Role::Coordinator, Msg::Submit { spec }) => self.stamp(spec.key, SUBMIT, now),
            (Role::Coordinator, Msg::SubmitBatch { specs }) => {
                for spec in specs {
                    self.stamp(spec.key, SUBMIT, now);
                }
            }
            (Role::Server, Msg::Assign { task, .. }) => self.stamp(task.job, ASSIGN, now),
            (Role::Coordinator, Msg::TaskDone { job, .. }) => self.stamp(*job, DONE, now),
            (Role::Client, Msg::ResultsReply { results }) => {
                for r in results {
                    self.stamp(r.job, COLLECT, now);
                }
            }
            (_, Msg::Batch { parts }) => {
                for part in parts {
                    self.stamp_arrival(role, part, now);
                }
            }
            _ => {}
        }
    }

    fn record_msg(&mut self, role: Role, kind: &'static str, nanos: u64) {
        let row = &mut self.msgs[role.index()];
        // `kind()` names come from one static table, so pointer equality
        // identifies the kind without comparing strings.
        match row.iter_mut().find(|(k, _)| std::ptr::eq(*k, kind)) {
            Some((_, busy)) => busy.add(nanos),
            None => {
                let mut busy = Busy::default();
                busy.add(nanos);
                row.push((kind, busy));
            }
        }
    }
}

thread_local! {
    static TALLY: RefCell<Tally> = RefCell::new(Tally::default());
}

/// Drains what the wrappers recorded since the last call.
pub fn take() -> Tally {
    TALLY.with(|t| std::mem::take(&mut *t.borrow_mut()))
}

fn elapsed_nanos(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// A protocol actor behind a stopwatch.
pub struct Timed {
    role: Role,
    inner: Box<dyn Actor<Msg> + Send>,
}

impl Timed {
    /// The wrapped actor, downcast to its concrete type.
    pub fn inner<T: 'static>(&self) -> Option<&T> {
        (self.inner.as_ref() as &dyn std::any::Any).downcast_ref::<T>()
    }

    pub fn inner_mut<T: 'static>(&mut self) -> Option<&mut T> {
        (self.inner.as_mut() as &mut dyn std::any::Any).downcast_mut::<T>()
    }
}

impl Actor<Msg> for Timed {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let t = Instant::now();
        self.inner.on_start(ctx);
        let nanos = elapsed_nanos(t);
        TALLY.with(|tally| tally.borrow_mut().timers[self.role.index()].add(nanos));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: NodeId, msg: Msg) {
        let kind = msg.kind();
        TALLY.with(|tally| tally.borrow_mut().stamp_arrival(self.role, &msg, ctx.now()));
        let t = Instant::now();
        self.inner.on_message(ctx, from, msg);
        let nanos = elapsed_nanos(t);
        TALLY.with(|tally| tally.borrow_mut().record_msg(self.role, kind, nanos));
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, id: TimerId, kind: u64) {
        let t = Instant::now();
        self.inner.on_timer(ctx, id, kind);
        let nanos = elapsed_nanos(t);
        TALLY.with(|tally| tally.borrow_mut().timers[self.role.index()].add(nanos));
    }

    fn on_crash(&mut self, now: SimTime) -> DurableImage {
        self.inner.on_crash(now)
    }
}

/// Re-installs `node` with `factory`'s actors wrapped in [`Timed`]; every
/// restart goes through the wrapper too.
pub fn install<F>(world: &mut World<Msg>, node: NodeId, role: Role, mut factory: F)
where
    F: FnMut(DurableImage) -> Box<dyn Actor<Msg> + Send> + Send + 'static,
{
    world.install(node, move |image| {
        Box::new(Timed { role, inner: factory(image) }) as Box<dyn Actor<Msg> + Send>
    });
}
