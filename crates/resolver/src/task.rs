//! Resolution task bookkeeping.

use dike_cache::{CacheKey, SlotIndex};
use dike_netsim::{Addr, SimTime};

/// A client (or downstream resolver) waiting on a resolution.
#[derive(Debug, Clone)]
pub(crate) struct Waiter {
    /// Where to send the final response.
    pub(crate) client: Addr,
    /// The message id the client used.
    pub(crate) msg_id: u16,
}

/// The upstream query currently in flight for a task.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Outstanding {
    /// Our message id on the upstream query.
    pub(crate) msg_id: u16,
    /// The server we asked.
    pub(crate) server: Addr,
    /// When we asked (for SRTT samples).
    pub(crate) sent_at: SimTime,
    /// The retry timer armed for this attempt.
    pub(crate) timer: dike_netsim::TimerId,
}

/// A TCP retry in flight after a truncated UDP answer (RFC 7766).
#[derive(Debug, Clone)]
pub(crate) struct TcpAttempt {
    /// The simulated connection handle.
    pub(crate) conn: dike_netsim::TcpConnId,
    /// The server being re-asked (the one that sent TC=1).
    pub(crate) server: Addr,
    /// When the connection was dialed (TCP RTT samples include the
    /// handshake — the honest cost of the fallback).
    pub(crate) sent_at: SimTime,
    /// The connect- or response-timeout timer currently armed.
    pub(crate) timer: dike_netsim::TimerId,
    /// The query to replay once the handshake completes; its id is the
    /// one the answer must carry.
    pub(crate) query: dike_wire::Message,
}

/// One in-flight resolution: a question being resolved on behalf of zero
/// or more waiters (zero for infrastructure queries).
#[derive(Debug)]
pub(crate) struct Task {
    /// This task's id in its [`Tasks`] table.
    pub(crate) id: u64,
    /// The question under resolution (the client's original question;
    /// CNAME chasing may move the *current* name past it).
    pub(crate) key: CacheKey,
    /// The name currently being resolved (differs from `key.name` once a
    /// CNAME has been followed).
    pub(crate) current_name: dike_wire::Name,
    /// CNAME records followed so far, in order (prefixed to the final
    /// answer, like real resolvers do).
    pub(crate) cname_chain: Vec<dike_wire::Record>,
    /// CNAMEs followed; bounded to stop loops.
    pub(crate) chase_depth: u8,
    /// Clients waiting for the answer.
    pub(crate) waiters: Vec<Waiter>,
    /// 0 = client-driven, 1 = infrastructure (NS address) query.
    /// Infrastructure tasks do not spawn further infrastructure tasks.
    pub(crate) depth: u8,
    /// Upstream sends so far.
    pub(crate) attempts: u32,
    /// Servers tried in the current round (reset when the candidate set
    /// changes after a referral).
    pub(crate) tried: Vec<Addr>,
    /// Current candidate servers.
    pub(crate) servers: Vec<Addr>,
    /// Label count of the zone the candidates serve — referral progress
    /// is "strictly deeper than this".
    pub(crate) zone_depth: usize,
    /// The cache generation at the task's last delegation walk; while
    /// the cache holds it, a retry keeps its servers without walking.
    pub(crate) walked_at: u64,
    /// The server the previous attempt went to, for counting
    /// server-selection switches across retries.
    pub(crate) last_server: Option<Addr>,
    /// The in-flight upstream query, if any.
    pub(crate) outstanding: Option<Outstanding>,
    /// The in-flight TCP retry, if any (mutually exclusive with
    /// `outstanding`: TC=1 clears the UDP attempt before dialing).
    pub(crate) tcp: Option<TcpAttempt>,
    /// Set while the task is parked waiting for a mandatory glue fetch
    /// (a glueless referral); a timer resumes it.
    pub(crate) awaiting_glue: bool,
    /// How many times this task has parked for glue. A permanently
    /// glueless referral (NS names that never resolve) would otherwise
    /// loop park → re-ask parent → park forever; the resolver caps this
    /// and fails the task with SERVFAIL.
    pub(crate) glue_waits: u32,
}

impl Task {
    /// Whether `msg` echoes the question this task is asking now. An
    /// answer that does not, over UDP or TCP, is dropped.
    pub(crate) fn is_echoed_by(&self, msg: &dike_wire::Message) -> bool {
        msg.question()
            .is_some_and(|q| q.name == self.current_name && q.qtype == self.key.rtype)
    }
}

/// A resolver's in-flight tasks: a slab of boxed tasks with a free
/// list, and an index from question to slot that compares `task.key`.
///
/// A task id is the task's slot in its low 32 bits and a serial in the
/// high 32, below 2^31, so an id has bit 63 clear (the resolver's
/// TCP-timer mark) and never equals `u64::MAX` (its flush timer). A
/// finished task's slot goes to a later task under a new serial, so a
/// timer or TCP connection left over from the old one finds no task.
#[derive(Debug, Default)]
pub(crate) struct Tasks {
    slots: Vec<Option<Box<Task>>>,
    free: Vec<u32>,
    by_key: SlotIndex,
    next_serial: u32,
}

impl Tasks {
    /// The slot of task `id`.
    pub(crate) fn slot(id: u64) -> u32 {
        id as u32
    }

    /// Tasks in flight.
    pub(crate) fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// The task with this id, if it is still in flight.
    pub(crate) fn get(&self, id: u64) -> Option<&Task> {
        let task = self.slots.get(Self::slot(id) as usize)?.as_deref()?;
        (task.id == id).then_some(task)
    }

    /// The task with this id, if it is still in flight.
    pub(crate) fn get_mut(&mut self, id: u64) -> Option<&mut Task> {
        let task = self
            .slots
            .get_mut(Self::slot(id) as usize)?
            .as_deref_mut()?;
        (task.id == id).then_some(task)
    }

    /// The task in `slot`, if any.
    pub(crate) fn at_slot_mut(&mut self, slot: u32) -> Option<&mut Task> {
        self.slots.get_mut(slot as usize)?.as_deref_mut()
    }

    /// The task resolving `key`, if any.
    pub(crate) fn find(&mut self, key: &CacheKey) -> Option<&mut Task> {
        let slots = &self.slots;
        let tag = SlotIndex::tag(&key.name, key.rtype);
        let slot = self.by_key.find(tag, |slot| {
            slots[slot as usize]
                .as_ref()
                .is_some_and(|task| task.key == *key)
        })?;
        self.at_slot_mut(slot)
    }

    /// Puts the task `make` builds for its id in a free slot, and
    /// returns the id. No task resolving the same key is in flight.
    pub(crate) fn insert(&mut self, make: impl FnOnce(u64) -> Task) -> u64 {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                u32::try_from(self.slots.len() - 1).expect("fewer than 2^32 tasks in flight")
            }
        };
        let id = u64::from(self.next_serial) << 32 | u64::from(slot);
        self.next_serial = (self.next_serial + 1) & (u32::MAX >> 1);
        let task = Box::new(make(id));
        let tag = SlotIndex::tag(&task.key.name, task.key.rtype);
        self.slots[slot as usize] = Some(task);
        self.by_key.insert(tag, slot, self.len());
        id
    }

    /// Takes task `id` out, if it is still in flight.
    pub(crate) fn remove(&mut self, id: u64) -> Option<Box<Task>> {
        let slot = Self::slot(id);
        let task = self
            .slots
            .get_mut(slot as usize)?
            .take_if(|task| task.id == id)?;
        self.by_key
            .remove(SlotIndex::tag(&task.key.name, task.key.rtype), slot);
        self.free.push(slot);
        Some(task)
    }

    /// Drops every task; the tables keep their sizes.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.free.clear();
        self.by_key.clear();
    }
}
