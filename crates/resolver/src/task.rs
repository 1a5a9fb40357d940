//! Resolution task bookkeeping.

use dike_cache::CacheKey;
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
