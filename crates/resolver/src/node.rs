//! The recursive resolver node.

use dike_cache::{CacheAnswer, CacheKey, NegativeKind, ResolverCache, TrustLevel};
use dike_netsim::{Addr, Context, Node, SimTime, TcpConnId, TimerToken};
use dike_telemetry::hash::FastMap;
use dike_telemetry::Histogram;
use dike_wire::{Message, Name, RData, Rcode, Record, RecordType};

use crate::config::{ResolverConfig, ResolverMode, TCP_CONNECT_TIMEOUT, TCP_RESPONSE_TIMEOUT};
use crate::selector::ServerSelector;
use crate::task::{Outstanding, Task, Tasks, TcpAttempt, Waiter};

/// Longest CNAME chain followed, from cache and upstream together. RFC
/// 1034 recommends limiting alias chains; 8 matches common resolver
/// defaults and stops loops.
const MAX_CHASE: u8 = 8;

/// How a task finishes: with the records that follow its CNAME chain, or
/// with a negative answer (RFC 2308) and its TTL.
enum Outcome {
    Records(Vec<Record>),
    Negative(NegativeKind, u32),
}

/// Running counters, readable after a run through a shared stats handle
/// or by borrowing the node back from the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResolverStats {
    /// Queries received from clients/downstreams.
    pub client_queries: u64,
    /// Client queries answered from a fresh cache entry.
    pub cache_hits: u64,
    /// Client queries answered from the negative cache.
    pub(crate) negative_hits: u64,
    /// Resolutions started (cache misses, deduplicated).
    pub resolutions: u64,
    /// Queries sent upstream (to authoritatives or forwarders).
    pub(crate) upstream_queries: u64,
    /// Upstream retries (sends beyond the first per task).
    pub retries: u64,
    /// Referrals followed.
    pub referrals: u64,
    /// Tasks that exhausted their retry budget.
    pub failures: u64,
    /// Answers served stale after a failed resolution.
    pub stale_served: u64,
    /// Client queries answered SERVFAIL from the failure cache
    /// (RFC 2308 §7) without starting a resolution.
    pub servfail_cache_hits: u64,
    /// Infrastructure (NS-address) tasks spawned.
    pub infra_tasks: u64,
    /// Full cache flushes performed (operator flush / restart model).
    pub flushes: u64,
    /// Client questions refused because the pending-task table was full
    /// (load shedding), and tasks given up because every upstream
    /// message id was in flight.
    pub shed: u64,
    /// Retries that went to a different server than the previous attempt
    /// (server-selection switches).
    pub(crate) server_switches: u64,
    /// Server-selection rounds restarted after forward progress (a
    /// referral adopted, a CNAME chased, a deeper delegation found) —
    /// the per-round backoff state resets and selection starts over.
    pub(crate) backoff_resets: u64,
    /// Truncated UDP answers retried over TCP (RFC 7766 fallback; zero
    /// unless [`ResolverConfig::tcp_fallback`] is set).
    pub tcp_fallbacks: u64,
    /// TCP retries that produced an answer.
    pub tcp_answers: u64,
    /// TCP retries that failed — connect or response timeout, refused
    /// handshake (RST), or the server closing mid-exchange. The task
    /// falls back to its UDP retry schedule.
    pub tcp_failures: u64,
    /// Referrals whose NS-address (infrastructure) fan-out was cut at
    /// [`ResolverConfig::max_fetch`] — the MaxFetch(k) NXNSAttack
    /// mitigation firing. Zero unless the knob is set.
    pub max_fetch_exceeded: u64,
    /// Tasks failed with SERVFAIL after exhausting their glue-wait
    /// budget: a referral whose NS names never resolved to any address
    /// (e.g. an NXNS-style permanently glueless delegation).
    pub glue_wait_exhausted: u64,
}

/// A recursive DNS resolver node (iterative or forwarding — see
/// [`ResolverConfig::iterative`] and [`ResolverConfig::forwarding`]).
pub struct RecursiveResolver {
    config: ResolverConfig,
    cache: ResolverCache,
    selector: ServerSelector,
    /// In-flight tasks, boxed: a slab grown for an attack's peak holds
    /// 8-byte slots, not whole tasks, and a finished task's memory goes
    /// back to the allocator.
    tasks: Tasks,
    /// RFC 2308 §7 failure cache: question → do-not-retry-before.
    failed_until: FastMap<CacheKey, SimTime>,
    /// The task slot of each UDP query in flight, by message id.
    by_msg_id: FastMap<u16, u32>,
    /// In-flight TCP retries: connection id → task id. TCP responses
    /// are matched by connection, not by `by_msg_id` (no spoofing on an
    /// established connection).
    tcp_by_conn: FastMap<u64, u64>,
    /// RFC 7873: server cookies learned from upstream responses, keyed
    /// by server address. Only populated when `use_cookies` is on.
    server_cookies: FastMap<Addr, dike_wire::Cookie>,
    next_msg_id: u16,
    stats: ResolverStats,
    /// Upstream retries (attempts beyond the first) per finished task —
    /// the paper's retry-amplification distribution (Fig. 10).
    retry_tally: RetryTally,
}

/// A histogram of retries per task that holds only the bins a retry can
/// reach. A task sends at most `max_attempts` times, so no sample
/// exceeds `max_attempts - 1`: 4 bins at the default 7, never more than
/// 33, where a [`Histogram`] carries 65 inline.
struct RetryTally {
    /// Samples per [`Histogram`] bin, from bin 0.
    bins: Box<[u64]>,
    sum: u64,
    min: u32,
    max: u32,
}

/// A sample's [`Histogram`] bin: 0 for 0, else `floor(log2(v)) + 1`.
fn log_bin(v: u32) -> usize {
    (u32::BITS - v.leading_zeros()) as usize
}

impl RetryTally {
    fn new(max_attempts: u32) -> Self {
        RetryTally {
            bins: vec![0; log_bin(max_attempts.saturating_sub(1)) + 1].into_boxed_slice(),
            sum: 0,
            min: u32::MAX,
            max: 0,
        }
    }

    fn observe(&mut self, retries: u32) {
        self.bins[log_bin(retries)] += 1;
        self.sum = self.sum.saturating_add(u64::from(retries));
        self.min = self.min.min(retries);
        self.max = self.max.max(retries);
    }

    /// The equal [`Histogram`], built on the stack.
    fn histogram(&self) -> Histogram {
        Histogram::from_bins(&self.bins, self.sum, self.min.into(), self.max.into())
    }
}

impl RecursiveResolver {
    /// A resolver with the given configuration.
    pub fn new(config: ResolverConfig) -> Self {
        RecursiveResolver {
            cache: ResolverCache::new(config.cache),
            retry_tally: RetryTally::new(config.retry.max_attempts),
            config,
            selector: ServerSelector::new(),
            tasks: Tasks::default(),
            failed_until: FastMap::default(),
            by_msg_id: FastMap::default(),
            tcp_by_conn: FastMap::default(),
            server_cookies: FastMap::default(),
            next_msg_id: 1,
            stats: ResolverStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> ResolverStats {
        self.stats
    }

    /// The configuration in force.
    pub fn config(&self) -> &ResolverConfig {
        &self.config
    }

    /// Resolutions currently in flight.
    pub fn in_flight(&self) -> usize {
        self.tasks.len()
    }

    /// Walks cached CNAMEs from `name` and answers the question at the
    /// end: the alias records followed, the final name, and the cache's
    /// answer there — `Fresh`, `Negative` or `Miss`. Each name is read
    /// once for `qtype` and, when that misses, once for a CNAME.
    fn follow_cached_cnames(
        &mut self,
        now: SimTime,
        name: &Name,
        qtype: RecordType,
        min_trust: TrustLevel,
    ) -> (Vec<Record>, Name, CacheAnswer) {
        let mut chain = Vec::new();
        let mut current = name.clone();
        for chased in 0..=MAX_CHASE {
            let answer = self.cache.lookup_min_trust(now, &current, qtype, min_trust);
            let done = !matches!(answer, CacheAnswer::Miss);
            if done || qtype == RecordType::CNAME || chased == MAX_CHASE {
                return (chain, current, answer);
            }
            let CacheAnswer::Fresh(cnames) =
                self.cache
                    .lookup_min_trust(now, &current, RecordType::CNAME, min_trust)
            else {
                break;
            };
            let Some(RData::Cname(target)) = cnames.rdata().next().cloned() else {
                break;
            };
            chain.extend(cnames.into_records());
            current = target;
        }
        (chain, current, CacheAnswer::Miss)
    }

    /// The lowest trust a client answer may come from. RFC 2181 data
    /// ranking: referral (glue) data steers resolution but is not
    /// returned to clients — unless this resolver is one of the sloppy
    /// minority that does (Table 5's "parent" rows).
    fn client_trust(&self) -> TrustLevel {
        if self.config.answer_from_glue {
            TrustLevel::Glue
        } else {
            TrustLevel::Authoritative
        }
    }

    /// A message id no UDP query in flight holds, so responses map
    /// unambiguously; `None` when all 65,535 are taken. `max_pending`
    /// does not bound this (it is a `usize`, and infrastructure tasks
    /// bypass it), so the id space is checked here.
    fn alloc_msg_id(&mut self) -> Option<u16> {
        if self.by_msg_id.len() >= usize::from(u16::MAX) {
            return None;
        }
        loop {
            let id = self.next_msg_id;
            self.next_msg_id = self.next_msg_id.wrapping_add(1).max(1);
            if !self.by_msg_id.contains_key(&id) {
                return Some(id);
            }
        }
    }

    // ------------------------------------------------------------------
    // Client side
    // ------------------------------------------------------------------

    fn handle_client_query(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message) {
        self.stats.client_queries += 1;
        let Some(q) = msg.question() else {
            ctx.send(src, &Message::error_response(msg, Rcode::FormErr));
            return;
        };
        let now = ctx.now();
        // RFC 2308 §7: a recently failed question gets an immediate
        // SERVFAIL instead of another futile round of upstream retries.
        let key = CacheKey::new(q.name.clone(), q.qtype);
        if let Some(&until) = self.failed_until.get(&key) {
            if now < until {
                self.stats.servfail_cache_hits += 1;
                ctx.send(src, &Message::error_response(msg, Rcode::ServFail));
                return;
            }
            self.failed_until.remove(&key);
        }
        // Follow cached aliases first, so a hit on `www -> web -> A` is
        // served entirely from cache with the chain in the answer.
        let (chain, final_name, answer) =
            self.follow_cached_cnames(now, &q.name, q.qtype, self.client_trust());
        match answer {
            CacheAnswer::Fresh(records) => {
                self.stats.cache_hits += 1;
                let mut answers = chain;
                answers.extend(records.into_records());
                ctx.send(src, &client_response(msg, Rcode::NoError, answers));
            }
            CacheAnswer::Negative(kind) => {
                self.stats.negative_hits += 1;
                ctx.send(src, &client_response(msg, negative_rcode(kind), chain));
            }
            _ => {
                // Load shedding: a full pending table answers SERVFAIL
                // immediately instead of joining the retry storm
                // (BIND's recursive-clients behaviour).
                let would_join = self.tasks.find(&key).is_some();
                if !would_join && self.tasks.len() >= self.config.max_pending {
                    self.stats.shed += 1;
                    ctx.send(src, &Message::error_response(msg, Rcode::ServFail));
                    return;
                }
                // Start (or join) a resolution; any cached chain prefix
                // is carried into the task so the final answer includes
                // it and iteration starts at the chain's end.
                let waiter = Waiter {
                    client: src,
                    msg_id: msg.id,
                };
                self.start_or_join(ctx, key, final_name, chain, Some(waiter), 0);
            }
        }
    }

    // ------------------------------------------------------------------
    // Task lifecycle
    // ------------------------------------------------------------------

    /// Starts resolving `key` at `current_name`, past the CNAME `chain`
    /// already followed, or joins the resolution of `key` in flight. A
    /// new task has no servers yet: `send_next` finds them.
    fn start_or_join(
        &mut self,
        ctx: &mut Context<'_>,
        key: CacheKey,
        current_name: Name,
        chain: Vec<Record>,
        waiter: Option<Waiter>,
        depth: u8,
    ) {
        if let Some(task) = self.tasks.find(&key) {
            task.waiters.extend(waiter);
            return; // join the in-flight resolution
        }
        self.stats.resolutions += 1;
        if depth > 0 {
            self.stats.infra_tasks += 1;
        }
        let id = self.tasks.insert(|id| Task {
            id,
            key,
            current_name,
            chase_depth: chain.len() as u8,
            cname_chain: chain,
            waiters: waiter.into_iter().collect(),
            depth,
            attempts: 0,
            tried: Vec::new(),
            servers: Vec::new(),
            zone_depth: 0,
            walked_at: 0,
            last_server: None,
            outstanding: None,
            tcp: None,
            awaiting_glue: false,
            glue_waits: 0,
        });
        self.send_next(ctx, id);
    }

    /// The servers to ask about `name`, and the label count of the zone
    /// they serve: for forwarding mode, the configured upstreams; for
    /// iterative mode, the deepest cached delegation covering `name`
    /// (falling back to the root hints).
    fn closest_servers(&mut self, now: SimTime, name: &Name) -> (Vec<Addr>, usize) {
        let cache = &mut self.cache;
        match &self.config.mode {
            ResolverMode::Forwarding { upstreams } => (upstreams.clone(), 0),
            ResolverMode::Iterative { roots } => {
                for zone in name.self_and_ancestors() {
                    if zone.is_root() {
                        break;
                    }
                    let CacheAnswer::Fresh(ns_records) = cache.lookup(now, &zone, RecordType::NS)
                    else {
                        continue;
                    };
                    let mut addrs = Vec::new();
                    for target in ns_records.rdata().filter_map(RData::target_name) {
                        if let CacheAnswer::Fresh(a_records) =
                            cache.lookup(now, target, RecordType::A)
                        {
                            addrs.extend(a_records.rdata().filter_map(v4_addr));
                        }
                    }
                    if !addrs.is_empty() {
                        addrs.sort();
                        addrs.dedup();
                        return (addrs, zone.label_count());
                    }
                }
                (roots.clone(), 0)
            }
        }
    }

    fn send_next(&mut self, ctx: &mut Context<'_>, tid: u64) {
        let Some(task) = self.tasks.get(tid) else {
            return;
        };
        if !self.config.retry.allows_retry(task.attempts) {
            self.fail_task(ctx, tid);
            return;
        }
        // The task's servers come from the deepest cached delegation for
        // its current name. A new task, or one that just followed a CNAME,
        // has none yet. A retry adopts a strictly deeper delegation: an
        // infrastructure query may have filled in a glueless referral's
        // missing NS address since the last attempt. Only an NS or A
        // insert can deepen the walk's answer, so a retry walks again only
        // once the cache generation has moved.
        let current_name = task.current_name.clone();
        let generation = self.cache.generation();
        if task.servers.is_empty() || task.walked_at != generation {
            let (servers, zone_depth) = self.closest_servers(ctx.now(), &current_name);
            let task = self.tasks.get_mut(tid).expect("task exists");
            task.walked_at = generation;
            if task.servers.is_empty() || zone_depth > task.zone_depth {
                if !task.servers.is_empty() {
                    self.stats.backoff_resets += 1;
                }
                task.servers = servers;
                task.zone_depth = zone_depth;
                task.tried.clear();
            }
        }
        let task = self.tasks.get_mut(tid).expect("task exists");
        let picked = match self.config.selection {
            crate::config::SelectionPolicy::SrttBased => {
                self.selector.pick(&task.servers, &task.tried, ctx.rng())
            }
            crate::config::SelectionPolicy::Random => {
                ServerSelector::pick_uniform(&task.servers, &task.tried, ctx.rng())
            }
        };
        let Some(server) = picked else {
            self.fail_task(ctx, tid);
            return;
        };
        let qtype = task.key.rtype;
        let Some(query) = self.upstream_query(ctx.self_addr(), server, current_name, qtype) else {
            self.shed_task(ctx, tid);
            return;
        };
        let task = self.tasks.get_mut(tid).expect("task exists");
        if task.last_server.is_some_and(|prev| prev != server) {
            self.stats.server_switches += 1;
        }
        task.last_server = Some(server);
        let attempt = task.attempts;
        task.attempts += 1;
        task.tried.push(server);
        if task.tried.len() >= task.servers.len() {
            // Everyone has been tried this round; allow re-tries.
            task.tried.clear();
        }
        self.stats.upstream_queries += 1;
        if attempt > 0 {
            self.stats.retries += 1;
        }
        let timeout = self.config.retry.timeout_for(attempt);
        let timer = ctx.set_timer(timeout, TimerToken(tid));
        self.tasks.get_mut(tid).expect("task exists").outstanding = Some(Outstanding {
            msg_id: query.id,
            server,
            sent_at: ctx.now(),
            timer,
        });
        self.by_msg_id.insert(query.id, Tasks::slot(tid));
        ctx.send(server, &query);
    }

    /// The query for `name`/`qtype` to `server`, over UDP or TCP alike:
    /// a fresh message id, recursion desired only when forwarding, EDNS,
    /// and, when cookies are on, this resolver's cookie for `server` —
    /// the learned full cookie once a response has supplied the server
    /// half, otherwise the deterministic client-only one (RFC 7873 §6).
    /// `None` when no message id is free.
    fn upstream_query(
        &mut self,
        self_addr: Addr,
        server: Addr,
        name: Name,
        qtype: RecordType,
    ) -> Option<Message> {
        let msg_id = self.alloc_msg_id()?;
        let mut query = match self.config.mode {
            ResolverMode::Forwarding { .. } => Message::query(msg_id, name, qtype),
            ResolverMode::Iterative { .. } => Message::iterative_query(msg_id, name, qtype),
        }
        .with_edns(dike_wire::EDNS_UDP_PAYLOAD);
        if self.config.use_cookies {
            let cookie = self
                .server_cookies
                .get(&server)
                .cloned()
                .unwrap_or_else(|| {
                    let client = dike_wire::cookie::client_cookie_for(self_addr.0, server.0);
                    dike_wire::Cookie::client_only(client)
                });
            dike_wire::cookie::set_cookie(&mut query, dike_wire::EDNS_UDP_PAYLOAD, &cookie);
        }
        Some(query)
    }

    /// Gives task `tid` up for want of a free message id: its waiters get
    /// SERVFAIL at once, counted in `shed` like a refusal at a full
    /// pending table, and nothing enters the failure cache.
    fn shed_task(&mut self, ctx: &mut Context<'_>, tid: u64) {
        let Some(task) = self.remove_task(tid) else {
            return;
        };
        self.stats.shed += 1;
        for w in &task.waiters {
            let resp = waiter_response(w, &task.key, Rcode::ServFail, Vec::new());
            ctx.send(w.client, &resp);
        }
    }

    fn fail_task(&mut self, ctx: &mut Context<'_>, tid: u64) {
        let Some(task) = self.remove_task(tid) else {
            return;
        };
        self.stats.failures += 1;
        let now = ctx.now();
        if self.config.servfail_ttl > dike_netsim::SimDuration::ZERO {
            // An expired entry answers nothing, and a question nobody asks
            // again would never meet its expiry at a lookup: drop the
            // expired ones before the table grows.
            if self.failed_until.len() == self.failed_until.capacity() {
                self.failed_until.retain(|_, &mut until| now < until);
            }
            self.failed_until
                .insert(task.key.clone(), now + self.config.servfail_ttl);
        }
        for w in &task.waiters {
            let resp = self
                .stale_response(now, w, &task.key)
                .unwrap_or_else(|| waiter_response(w, &task.key, Rcode::ServFail, Vec::new()));
            ctx.send(w.client, &resp);
        }
    }

    /// Serve-stale (RFC 8767; paper §5.3): the answer the cache still
    /// holds for `key` once resolution has failed or stalled — an expired
    /// entry, or a fresh one — at the client trust floor. `None` when it
    /// holds nothing to serve.
    fn stale_response(&mut self, now: SimTime, w: &Waiter, key: &CacheKey) -> Option<Message> {
        let floor = self.client_trust();
        match self.cache.lookup_stale(now, &key.name, key.rtype, floor) {
            CacheAnswer::Stale(records) | CacheAnswer::Fresh(records) => {
                self.stats.stale_served += 1;
                Some(waiter_response(
                    w,
                    key,
                    Rcode::NoError,
                    records.into_records(),
                ))
            }
            _ => None,
        }
    }

    /// Finishes task `tid` with `outcome`: caches it, then answers every
    /// waiter.
    fn complete_task(&mut self, ctx: &mut Context<'_>, tid: u64, outcome: Outcome) {
        let Some(task) = self.remove_task(tid) else {
            return;
        };
        let now = ctx.now();
        let (rcode, answers) = match outcome {
            Outcome::Records(records) => {
                // The client's answer section: the CNAME chain in order,
                // then the final records. Each (name, type) group is its
                // own RRset.
                let answer = || task.cname_chain.iter().chain(&records);
                for rrset in rrsets(answer()) {
                    self.cache.insert(now, rrset);
                }
                // A TTL-rewriting resolver rewrites what it *returns*,
                // too: the client sees the clamped TTL (how the paper
                // detects EC2-style cappers in Table 2's "TTL altered"
                // rows).
                let clamp = |r: &Record| r.with_ttl(self.config.cache.clamp_ttl(r.ttl));
                (Rcode::NoError, answer().map(clamp).collect())
            }
            Outcome::Negative(kind, neg_ttl) => {
                let (name, rtype) = (task.key.name.clone(), task.key.rtype);
                self.cache.insert_negative(now, name, rtype, kind, neg_ttl);
                (negative_rcode(kind), Vec::new())
            }
        };
        for w in &task.waiters {
            ctx.send(
                w.client,
                &waiter_response(w, &task.key, rcode, answers.clone()),
            );
        }
    }

    /// RFC 8767's client-response behaviour: once the first upstream
    /// attempt has timed out, clients waiting on this task are answered
    /// from stale data where available, while resolution continues in
    /// the background. Waiters without stale data keep waiting.
    fn serve_stale_to_waiters(&mut self, ctx: &mut Context<'_>, tid: u64) {
        let Some(task) = self.tasks.get_mut(tid) else {
            return;
        };
        if task.waiters.is_empty() {
            return;
        }
        let key = task.key.clone();
        let waiters = std::mem::take(&mut task.waiters);
        let mut kept = Vec::new();
        for w in waiters {
            match self.stale_response(ctx.now(), &w, &key) {
                Some(resp) => ctx.send(w.client, &resp),
                None => kept.push(w),
            }
        }
        self.tasks.get_mut(tid).expect("task exists").waiters = kept;
    }

    /// Learns the server half of a cookie from an upstream response —
    /// including slipped TC=1 responses, whose completed cookie is what
    /// lets the *retry* sail past the rate limiter.
    fn learn_cookie(&mut self, self_addr: Addr, server: Addr, msg: &Message) {
        if !self.config.use_cookies {
            return;
        }
        if let Some(c) = dike_wire::cookie::cookie_of(msg) {
            // Only believe a full cookie echoing our own client half.
            if c.is_full()
                && c.client == dike_wire::cookie::client_cookie_for(self_addr.0, server.0)
            {
                self.server_cookies.insert(server, c);
            }
        }
    }

    fn remove_task(&mut self, tid: u64) -> Option<Box<Task>> {
        let task = self.tasks.remove(tid)?;
        if let Some(out) = &task.outstanding {
            self.by_msg_id.remove(&out.msg_id);
        }
        if let Some(t) = &task.tcp {
            // The connection itself is closed by whichever path cleared
            // the attempt; this is only the map hygiene backstop.
            self.tcp_by_conn.remove(&t.conn.0);
        }
        // Every finished task contributes its retry count (sends beyond
        // the first) to the distribution, successes and failures alike.
        self.retry_tally.observe(task.attempts.saturating_sub(1));
        Some(task)
    }

    // ------------------------------------------------------------------
    // Upstream responses
    // ------------------------------------------------------------------

    fn handle_upstream_response(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message) {
        let Some(&slot) = self.by_msg_id.get(&msg.id) else {
            return; // late or unsolicited; drop
        };
        let Some(task) = self.tasks.at_slot_mut(slot) else {
            return;
        };
        let tid = task.id;
        let Some(out) = task.outstanding else {
            return;
        };
        // Anti-spoofing: from the server we asked, echoing our question.
        if out.msg_id != msg.id || out.server != src || !task.is_echoed_by(msg) {
            return;
        }
        // Accept: clear outstanding state and the retry timer.
        ctx.cancel_timer(out.timer);
        self.by_msg_id.remove(&msg.id);
        let rtt = ctx.now() - out.sent_at;
        self.selector.record_success(src, rtt);
        let task = self.tasks.get_mut(tid).expect("task vanished");
        task.outstanding = None;

        self.learn_cookie(ctx.self_addr(), src, msg);

        if msg.truncated {
            if self.config.tcp_fallback {
                // RFC 7766: re-ask the same server over TCP. The TCP
                // attempt has its own timeouts and does not consume a
                // UDP attempt from the retry budget.
                self.start_tcp_retry(ctx, tid, src);
                return;
            }
            // TC without TCP fallback (the paper measures UDP only):
            // retry another server and hope for a smaller answer path.
            self.send_next(ctx, tid);
            return;
        }

        self.process_upstream_answer(ctx, tid, src, msg);
    }

    /// The post-transport part of upstream-response handling, shared by
    /// the UDP and TCP paths: rcode triage, referral chasing, negative
    /// caching, CNAME chasing, completion.
    fn process_upstream_answer(
        &mut self,
        ctx: &mut Context<'_>,
        tid: u64,
        src: Addr,
        msg: &Message,
    ) {
        if !msg.rcode.is_conclusive() {
            // SERVFAIL/REFUSED: treat like a dead server and move on.
            self.send_next(ctx, tid);
            return;
        }

        if msg.is_referral() {
            self.handle_referral(ctx, tid, src, msg);
            return;
        }

        // Negative answer?
        if msg.answers.is_empty() {
            if msg.rcode == Rcode::NxDomain || msg.authoritative || msg.recursion_available {
                let kind = if msg.rcode == Rcode::NxDomain {
                    NegativeKind::NxDomain
                } else {
                    NegativeKind::NoData
                };
                let neg_ttl = msg.negative_ttl().unwrap_or(60);
                self.complete_task(ctx, tid, Outcome::Negative(kind, neg_ttl));
            } else {
                // An empty, non-authoritative, non-referral answer is
                // lame delegation; try elsewhere.
                self.send_next(ctx, tid);
            }
            return;
        }

        // Positive answer. Three cases: records of the queried type
        // (done), a CNAME at the current name (chase it, possibly across
        // zones), or junk (try another server).
        let task = self.tasks.get(tid).expect("task vanished");
        let of_type = |rtype| msg.answers.iter().filter(move |r| r.rtype() == rtype);
        if of_type(task.key.rtype).next().is_some() {
            // The responder may have chased CNAMEs in-zone; keep any it
            // included, ahead of the final records, so the client sees
            // the full chain.
            let records = of_type(RecordType::CNAME)
                .chain(of_type(task.key.rtype))
                .cloned()
                .collect();
            self.complete_task(ctx, tid, Outcome::Records(records));
            return;
        }

        let cname = msg
            .answers
            .iter()
            .find(|r| r.rtype() == RecordType::CNAME && r.name == task.current_name)
            .cloned();
        if let Some(cname_rec) = cname {
            self.chase_cname(ctx, tid, cname_rec);
            return;
        }
        self.send_next(ctx, tid);
    }

    // ------------------------------------------------------------------
    // TCP fallback (RFC 7766)
    // ------------------------------------------------------------------

    /// Dials `server` over TCP to re-ask the task's current question
    /// after a truncated UDP answer. The connect timer doubles as the
    /// cleanup path for SYNs the server silently drops.
    fn start_tcp_retry(&mut self, ctx: &mut Context<'_>, tid: u64, server: Addr) {
        let Some(task) = self.tasks.get(tid) else {
            return;
        };
        let (name, qtype) = (task.current_name.clone(), task.key.rtype);
        let Some(query) = self.upstream_query(ctx.self_addr(), server, name, qtype) else {
            self.shed_task(ctx, tid);
            return;
        };
        self.stats.tcp_fallbacks += 1;
        let conn = ctx.tcp_connect(server);
        let timer = ctx.set_timer(TCP_CONNECT_TIMEOUT, TimerToken(tid | TCP_TOKEN_BIT));
        self.tcp_by_conn.insert(conn.0, tid);
        self.tasks.get_mut(tid).expect("task exists").tcp = Some(TcpAttempt {
            conn,
            server,
            sent_at: ctx.now(),
            timer,
            query,
        });
    }

    /// The task whose TCP attempt rides on `conn`. A map entry that has
    /// outlived its task or attempt is dropped.
    fn tcp_task(&mut self, conn: TcpConnId) -> Option<u64> {
        let &tid = self.tcp_by_conn.get(&conn.0)?;
        let live = self.tasks.get(tid).and_then(|t| t.tcp.as_ref());
        if live.is_some_and(|att| att.conn == conn) {
            return Some(tid);
        }
        self.tcp_by_conn.remove(&conn.0);
        None
    }

    /// Takes task `tid`'s TCP attempt off the task and the connection map.
    fn take_tcp(&mut self, tid: u64) -> Option<TcpAttempt> {
        let att = self.tasks.get_mut(tid)?.tcp.take()?;
        self.tcp_by_conn.remove(&att.conn.0);
        Some(att)
    }

    /// A TCP attempt failed — a timeout, a refused handshake, or the
    /// server hanging up: resume the UDP retry schedule.
    fn tcp_failed(&mut self, ctx: &mut Context<'_>, tid: u64, server: Addr) {
        self.stats.tcp_failures += 1;
        self.selector.record_timeout(server);
        self.send_next(ctx, tid);
    }

    /// A TCP attempt's connect or response timer fired: abandon the
    /// connection and resume the UDP retry schedule.
    fn on_tcp_timeout(&mut self, ctx: &mut Context<'_>, tid: u64) {
        let Some(att) = self.take_tcp(tid) else {
            return; // stale timer from a finished attempt
        };
        // Our own close: covers both a SYN that never completed (the
        // simulator never times out SYNs — the dialer owns cleanup) and
        // an established connection whose answer never came.
        ctx.tcp_close(att.conn);
        self.tcp_failed(ctx, tid, att.server);
    }

    /// Follows a CNAME, possibly into a different zone: caches the alias,
    /// moves the task's current name to the target, and restarts server
    /// selection from the deepest cached delegation for the new name.
    fn chase_cname(&mut self, ctx: &mut Context<'_>, tid: u64, cname_rec: Record) {
        let now = ctx.now();
        let Some(task) = self.tasks.get_mut(tid) else {
            return;
        };
        let RData::Cname(target) = cname_rec.rdata.clone() else {
            self.send_next(ctx, tid);
            return;
        };
        if task.chase_depth >= MAX_CHASE {
            self.fail_task(ctx, tid);
            return;
        }
        task.chase_depth += 1;
        task.cname_chain.push(cname_rec.clone());
        self.stats.backoff_resets += 1;
        let qtype = task.key.rtype;
        // Cache the alias itself so later queries skip the hop.
        self.cache.insert(now, vec![cname_rec]);
        // The target (or a further alias chain ending in the target) may
        // already be cached.
        let (more_chain, final_name, answer) =
            self.follow_cached_cnames(now, &target, qtype, TrustLevel::Authoritative);
        let task = self.tasks.get_mut(tid).expect("task vanished");
        task.cname_chain.extend(more_chain);
        task.current_name = final_name;
        match answer {
            CacheAnswer::Fresh(records) => {
                self.complete_task(ctx, tid, Outcome::Records(records.into_records()));
            }
            // Resolve the new name from scratch: `send_next` finds its
            // deepest cached delegation.
            _ => {
                task.servers.clear();
                self.send_next(ctx, tid);
            }
        }
    }

    /// Parks a glueless-referral task until its glue fetch has had a
    /// moment to complete, then resumes via the task's timer token.
    ///
    /// Bounded: a referral whose NS names never resolve would otherwise
    /// loop park → re-ask parent → park forever (the parent keeps
    /// handing back the same glueless delegation, so the retry budget
    /// never advances). After `MAX_GLUE_WAITS` parks the task fails
    /// with SERVFAIL and `glue_wait_exhausted` counts it.
    fn park_for_glue(&mut self, ctx: &mut Context<'_>, tid: u64) {
        /// ≈ 750 ms of glue waiting at 250 ms per park — enough for any
        /// resolvable NS name to land, several client-visible seconds
        /// short of a downstream timeout.
        const MAX_GLUE_WAITS: u32 = 3;
        let Some(task) = self.tasks.get_mut(tid) else {
            return;
        };
        if task.glue_waits >= MAX_GLUE_WAITS {
            self.stats.glue_wait_exhausted += 1;
            self.fail_task(ctx, tid);
            return;
        }
        task.glue_waits += 1;
        task.awaiting_glue = true;
        ctx.set_timer(dike_netsim::SimDuration::from_millis(250), TimerToken(tid));
    }

    fn handle_referral(&mut self, ctx: &mut Context<'_>, tid: u64, _src: Addr, msg: &Message) {
        let now = ctx.now();
        let (ns_owner, ns_records): (Name, Vec<Record>) = {
            let Some(first_ns) = msg.authorities.iter().find(|r| r.rtype() == RecordType::NS)
            else {
                self.send_next(ctx, tid);
                return;
            };
            let owner = first_ns.name.clone();
            let records = msg
                .authorities
                .iter()
                .filter(|r| r.rtype() == RecordType::NS && r.name == owner)
                .cloned()
                .collect();
            (owner, records)
        };

        let Some(task) = self.tasks.get_mut(tid) else {
            return;
        };
        // Bailiwick / progress check: the referred zone must contain the
        // query name and be strictly deeper than where we already are.
        if !task.current_name.is_subdomain_of(&ns_owner)
            || ns_owner.label_count() <= task.zone_depth
        {
            self.send_next(ctx, tid);
            return;
        }
        self.stats.referrals += 1;

        let ns_names: Vec<Name> = {
            let mut names: Vec<Name> = ns_records
                .iter()
                .filter_map(|r| r.rdata.target_name().cloned())
                .collect();
            // A referral listing the same NS name twice must not double
            // its infrastructure fan-out (free amplification for a
            // malicious zone).
            names.sort();
            names.dedup();
            names
        };

        // Glue must sit inside the referred zone AND belong to a name
        // some NS record actually delegates to. Without the membership
        // check, any in-bailiwick A/AAAA additional could steer
        // `task.servers` toward addresses no NS record ever named.
        let glue: Vec<Record> = msg
            .additionals
            .iter()
            .filter(|r| {
                matches!(r.rdata, RData::A(_) | RData::Aaaa(_))
                    && r.name.is_subdomain_of(&ns_owner)
                    && ns_names.contains(&r.name)
            })
            .cloned()
            .collect();

        let depth = task.depth;

        // Cache the delegation and its glue with referral (glue) trust,
        // so authoritative data the resolver already holds wins
        // (RFC 2181 §5.4.1, paper Appendix A).
        self.cache.insert_ranked(now, ns_records, TrustLevel::Glue);
        // Group glue per (owner, type) so each RRset caches coherently.
        for rrset in rrsets(&glue) {
            self.cache.insert_ranked(now, rrset, TrustLevel::Glue);
        }

        // New candidate set from the glue.
        let mut addrs: Vec<Addr> = glue.iter().filter_map(|g| v4_addr(&g.rdata)).collect();
        addrs.sort();
        addrs.dedup();
        let glueless = addrs.is_empty();
        let task = self.tasks.get_mut(tid).expect("task vanished");
        if !glueless {
            task.servers = addrs;
            task.zone_depth = ns_owner.label_count();
            task.tried.clear();
            self.stats.backoff_resets += 1;
        }
        // else: glueless referral — the mandatory infra queries below
        // fetch the missing NS addresses; the task parks briefly instead
        // of burning its retry budget re-asking the parent.

        // Infrastructure queries for the NS names. Names the referral
        // provided no usable glue for MUST be resolved (glueless
        // referral, e.g. NS names hosted in another zone); names with
        // glue are re-validated per the software profile (A always when
        // enabled; AAAA probing is what generates the negative-answer
        // traffic of Fig. 10). Depth-limited to avoid infra-of-infra
        // recursion.
        if depth == 0 {
            let glued: std::collections::HashSet<&Name> = glue.iter().map(|g| &g.name).collect();
            let mut infra: Vec<(Name, RecordType)> = ns_names
                .iter()
                .flat_map(|n| {
                    let mut v = Vec::new();
                    if self.config.infra_a || !glued.contains(n) {
                        v.push((n.clone(), RecordType::A));
                    }
                    if self.config.infra_aaaa {
                        v.push((n.clone(), RecordType::AAAA));
                    }
                    v
                })
                .collect();
            // MaxFetch(k), the NXNSAttack mitigation: at most k
            // NS-address fetches per referral. A benign delegation
            // (2–3 NS names) never reaches the cap; a malicious
            // fan-out-N one is cut here instead of flooding the zone
            // hosting its NS names.
            if let Some(k) = self.config.max_fetch {
                if infra.len() > k as usize {
                    infra.truncate(k as usize);
                    self.stats.max_fetch_exceeded += 1;
                }
            }
            for (name, rtype) in infra {
                // Glue-trust data steers resolution but does not satisfy
                // the infrastructure lookup: real resolvers re-validate
                // glue against the child zone (hardened glue), which is
                // what puts A-for-NS / AAAA-for-NS queries on the wire
                // (Fig. 10).
                let fresh = self
                    .cache
                    .lookup_min_trust(now, &name, rtype, TrustLevel::Authoritative)
                    .is_usable_fresh();
                if !fresh {
                    let key = CacheKey::new(name.clone(), rtype);
                    self.start_or_join(ctx, key, name, Vec::new(), None, 1);
                }
            }
        }

        if glueless {
            self.park_for_glue(ctx, tid);
        } else {
            self.send_next(ctx, tid);
        }
    }
}

/// Builds a response to a client query message.
fn client_response(query: &Message, rcode: Rcode, answers: Vec<Record>) -> Message {
    let mut resp = Message::response_to(query);
    resp.recursion_available = true;
    resp.rcode = rcode;
    resp.answers = answers;
    resp
}

/// Builds a response for a waiter recorded on a task.
fn waiter_response(w: &Waiter, key: &CacheKey, rcode: Rcode, answers: Vec<Record>) -> Message {
    let mut resp = Message::query(w.msg_id, key.name.clone(), key.rtype);
    resp.is_response = true;
    resp.recursion_available = true;
    resp.rcode = rcode;
    resp.answers = answers;
    resp
}

fn v4_addr(rdata: &RData) -> Option<Addr> {
    match rdata {
        RData::A(v4) => Some(Addr(u32::from(*v4))),
        _ => None,
    }
}

/// Splits `records` into RRsets, one per `(owner, type)`, in order of
/// first appearance. That is the order they are cached in, which is the
/// LRU order, so it must not depend on a hash seed.
fn rrsets<'a>(records: impl IntoIterator<Item = &'a Record>) -> Vec<Vec<Record>> {
    let mut groups: Vec<Vec<Record>> = Vec::new();
    for r in records {
        match groups
            .iter_mut()
            .find(|g| g[0].rtype() == r.rtype() && g[0].name == r.name)
        {
            Some(group) => group.push(r.clone()),
            None => groups.push(vec![r.clone()]),
        }
    }
    groups
}

/// The client rcode of a negative answer.
fn negative_rcode(kind: NegativeKind) -> Rcode {
    match kind {
        NegativeKind::NxDomain => Rcode::NxDomain,
        NegativeKind::NoData => Rcode::NoError,
    }
}

impl RecursiveResolver {
    /// Dumps the cache (Appendix A.3's `rndc dumpdb` analogue).
    pub fn dump_cache(&self, now: SimTime) -> Vec<(CacheKey, u32, TrustLevel)> {
        self.cache.dump(now)
    }
}

/// Timer token reserved for the periodic cache flush; resolution-task
/// timers use the task id, which never reaches this (see [`Tasks`]).
const FLUSH_TOKEN: u64 = u64::MAX;

/// High-bit marker distinguishing TCP-attempt timers from UDP retry
/// timers (a task id has bit 63 clear, see [`Tasks`]).
/// `FLUSH_TOKEN` has this bit set too, so it must be checked first.
const TCP_TOKEN_BIT: u64 = 1 << 63;

impl Node for RecursiveResolver {
    fn as_any(&self) -> Option<&dyn std::any::Any> {
        Some(self)
    }

    fn on_start(&mut self, ctx: &mut Context<'_>) {
        if let Some(interval) = self.config.flush_interval {
            ctx.set_timer(interval, TimerToken(FLUSH_TOKEN));
        }
    }

    fn on_restart(&mut self, cold_cache: bool) {
        // A crash loses every in-flight resolution: waiting clients never
        // hear back (their own retry timers cover it) and the old life's
        // retry timers are suppressed by the simulator, so the task table
        // must not survive into the new life.
        self.tasks.clear();
        self.by_msg_id.clear();
        // In-flight TCP retries die with the process; the simulator
        // resets the connections themselves on the crash.
        self.tcp_by_conn.clear();
        self.server_cookies.clear();
        self.failed_until.clear();
        // Learned server quality (SRTT) is process state too.
        self.selector = ServerSelector::new();
        if cold_cache {
            self.cache.flush();
            self.stats.flushes += 1;
        }
        // A warm restart models fast process supervision with a
        // disk-backed or shared cache (the paper's cache-survival axis).
    }

    fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, _wire_len: usize) {
        if msg.is_response {
            self.handle_upstream_response(ctx, src, msg);
        } else {
            self.handle_client_query(ctx, src, msg);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
        if token.0 == FLUSH_TOKEN {
            self.cache.flush();
            self.failed_until.clear();
            self.stats.flushes += 1;
            if let Some(interval) = self.config.flush_interval {
                ctx.set_timer(interval, TimerToken(FLUSH_TOKEN));
            }
            return;
        }
        if token.0 & TCP_TOKEN_BIT != 0 {
            self.on_tcp_timeout(ctx, token.0 & !TCP_TOKEN_BIT);
            return;
        }
        let tid = token.0;
        let Some(task) = self.tasks.get_mut(tid) else {
            return; // task already finished
        };
        if task.awaiting_glue {
            // Resume after a glue-fetch pause; the deeper-delegation
            // check in send_next picks up any addresses the infra
            // queries cached meanwhile.
            task.awaiting_glue = false;
            self.send_next(ctx, tid);
            return;
        }
        let Some(out) = task.outstanding.take() else {
            return; // stale timer from a superseded attempt
        };
        self.by_msg_id.remove(&out.msg_id);
        self.selector.record_timeout(out.server);
        // The first timeout doubles as RFC 8767's client-response timer:
        // answer waiting clients from stale data if the cache allows it,
        // then keep resolving in the background.
        self.serve_stale_to_waiters(ctx, tid);
        self.send_next(ctx, tid);
    }

    fn on_tcp_connected(&mut self, ctx: &mut Context<'_>, conn: TcpConnId, _peer: Addr) {
        let Some(tid) = self.tcp_task(conn) else {
            // The task finished or gave up before the handshake landed;
            // we still own the connection, so close it.
            ctx.tcp_close(conn);
            return;
        };
        let att = self.tasks.get_mut(tid).and_then(|t| t.tcp.as_mut());
        let att = att.expect("tcp_task found the attempt");
        // Handshake complete: swap the connect timer for the response
        // timer and put the query on the wire.
        ctx.cancel_timer(att.timer);
        att.timer = ctx.set_timer(TCP_RESPONSE_TIMEOUT, TimerToken(tid | TCP_TOKEN_BIT));
        ctx.tcp_send(conn, &att.query);
    }

    fn on_tcp_message(
        &mut self,
        ctx: &mut Context<'_>,
        conn: TcpConnId,
        _peer: Addr,
        msg: &Message,
        _wire_len: usize,
    ) {
        let Some(tid) = self.tcp_task(conn) else {
            return;
        };
        let task = self.tasks.get(tid).expect("tcp_task found the task");
        let asked = task.tcp.as_ref().map(|att| att.query.id);
        if asked != Some(msg.id) || !msg.is_response || !task.is_echoed_by(msg) {
            return;
        }
        let att = self.take_tcp(tid).expect("tcp_task found the attempt");
        ctx.cancel_timer(att.timer);
        // One query per connection: answer in hand, hang up.
        ctx.tcp_close(conn);
        self.stats.tcp_answers += 1;
        let rtt = ctx.now() - att.sent_at;
        self.selector.record_success(att.server, rtt);
        self.learn_cookie(ctx.self_addr(), att.server, msg);
        if msg.truncated {
            // Truncation over TCP is nonsense; treat the server as
            // broken and resume UDP retries elsewhere.
            self.send_next(ctx, tid);
            return;
        }
        self.process_upstream_answer(ctx, tid, att.server, msg);
    }

    fn on_tcp_closed(&mut self, ctx: &mut Context<'_>, conn: TcpConnId, _reset: bool) {
        // The peer hung up (RST on a refused handshake, a crash, an idle
        // reap, or a close before the answer). Our own closes never land
        // here — the initiator gets no callback.
        let Some(tid) = self.tcp_task(conn) else {
            return;
        };
        let att = self.take_tcp(tid).expect("tcp_task found the attempt");
        ctx.cancel_timer(att.timer);
        self.tcp_failed(ctx, tid, att.server);
    }

    fn publish_metrics(&self, out: &mut dike_telemetry::NodePublisher<'_>) {
        let s = &self.stats;
        out.counter("resolver", "client_queries", s.client_queries);
        out.counter("resolver", "cache_hits", s.cache_hits);
        out.counter("resolver", "negative_hits", s.negative_hits);
        out.counter("resolver", "resolutions", s.resolutions);
        out.counter("resolver", "upstream_queries", s.upstream_queries);
        out.counter("resolver", "retries", s.retries);
        out.counter("resolver", "referrals", s.referrals);
        out.counter("resolver", "servfails", s.failures);
        out.counter("resolver", "stale_served", s.stale_served);
        out.counter("resolver", "servfail_cache_hits", s.servfail_cache_hits);
        out.counter("resolver", "infra_tasks", s.infra_tasks);
        out.counter("resolver", "flushes", s.flushes);
        out.counter("resolver", "shed", s.shed);
        out.counter("resolver", "server_switches", s.server_switches);
        out.counter("resolver", "backoff_resets", s.backoff_resets);
        // Published only when the fallback is configured, so UDP-only
        // runs keep their exact metric shape.
        if self.config.tcp_fallback {
            out.counter("resolver", "tcp_fallbacks", s.tcp_fallbacks);
            out.counter("resolver", "tcp_answers", s.tcp_answers);
            out.counter("resolver", "tcp_failures", s.tcp_failures);
        }
        if self.config.max_fetch.is_some() {
            out.counter("resolver", "max_fetch_exceeded", s.max_fetch_exceeded);
        }
        out.counter("resolver", "glue_wait_exhausted", s.glue_wait_exhausted);
        out.gauge("resolver", "in_flight_tasks", self.tasks.len() as f64);
        out.histogram(
            "resolver",
            "retries_per_task",
            &self.retry_tally.histogram(),
        );
        let c = self.cache.stats();
        out.counter("cache", "hits", c.hits);
        out.counter("cache", "misses", c.misses);
        out.counter("cache", "expired", c.expired);
        out.counter("cache", "evictions", c.evictions);
        out.counter("cache", "insertions", c.insertions);
        out.counter("cache", "stale_served", c.stale_served);
        out.counter("cache", "flushes", c.flushes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dike_netsim::{SimDuration, Simulator};

    /// Every resolver of a topology holds one of these for the whole
    /// run (6,749 of them in the benchmark's Experiment H), so its size
    /// is bytes per resolver node. An inline 65-bin `Histogram` is 552.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn resolver_layout_stays_small() {
        assert!(
            std::mem::size_of::<RecursiveResolver>() <= 700,
            "RecursiveResolver is {} bytes",
            std::mem::size_of::<RecursiveResolver>()
        );
    }

    #[test]
    fn the_retry_tally_publishes_the_observed_histogram() {
        for max_attempts in [0, 1, 2, 3, 7, 8, 100, u32::MAX] {
            let mut tally = RetryTally::new(max_attempts);
            let mut want = Histogram::new();
            assert_eq!(tally.histogram(), want);
            let top = max_attempts.saturating_sub(1);
            for retries in (0..top.min(300)).chain([top, 0, top / 2]) {
                tally.observe(retries);
                want.observe(u64::from(retries));
            }
            assert_eq!(tally.histogram(), want, "max_attempts {max_attempts}");
        }
        assert_eq!(RetryTally::new(7).bins.len(), 4);
        assert_eq!(RetryTally::new(u32::MAX).bins.len(), 33);
    }

    /// A root that never answers: every question fails.
    struct Silent;

    impl Node for Silent {
        fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}
        fn on_timer(&mut self, _: &mut Context<'_>, _: TimerToken) {}
    }

    /// Asks a new question every `gap`, `n` in all.
    struct Asker {
        resolver: Addr,
        gap: SimDuration,
        n: u16,
        asked: u16,
    }

    impl Node for Asker {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(self.gap, TimerToken(0));
        }
        fn on_datagram(&mut self, _: &mut Context<'_>, _: Addr, _: &Message, _: usize) {}
        fn on_timer(&mut self, ctx: &mut Context<'_>, _: TimerToken) {
            self.asked += 1;
            let name = Name::parse(&format!("q{}.test", self.asked)).expect("a valid name");
            ctx.send(
                self.resolver,
                &Message::query(self.asked, name, RecordType::A),
            );
            if self.asked < self.n {
                ctx.set_timer(self.gap, TimerToken(0));
            }
        }
    }

    /// A thousand questions fail, each after the last one's failure
    /// entry has expired, and none is asked again: the failure cache
    /// must not keep them all.
    #[test]
    fn the_failure_cache_forgets_questions_nobody_asks_again() {
        let mut sim = Simulator::new(52);
        let (_, root) = sim.add_node(Box::new(Silent));
        let mut cfg = crate::profiles::bind_like(vec![root]);
        cfg.servfail_ttl = SimDuration::from_secs(2);
        let (id, resolver) = sim.add_node(Box::new(RecursiveResolver::new(cfg)));
        sim.add_node(Box::new(Asker {
            resolver,
            gap: SimDuration::from_secs(3),
            n: 1_000,
            asked: 0,
        }));
        sim.run_until_idle();
        let r = sim
            .node(id)
            .and_then(|n| n.as_any())
            .and_then(|n| n.downcast_ref::<RecursiveResolver>())
            .expect("the resolver node");
        assert_eq!(r.stats().failures, 1_000);
        // A table never shrinks, so its capacity now bounds every size
        // it had during the run.
        let capacity = r.failed_until.capacity();
        assert!(capacity <= 8, "{capacity} failure entries held");
    }

    /// Drives a resolver's task table at set instants: at 1 s it starts
    /// task A, and at 1.1 s it fails A, whose retry timer (1.8 s) stays
    /// queued, and starts task B in A's slot (its timer: 1.9 s).
    struct SlotReuse {
        r: RecursiveResolver,
        a: u64,
        b: u64,
        b_msg_id: u16,
    }

    const START_A: u64 = FLUSH_TOKEN - 1;
    const FAIL_A_START_B: u64 = FLUSH_TOKEN - 2;

    fn question(name: &str) -> CacheKey {
        CacheKey::new(Name::parse(name).expect("a valid name"), RecordType::A)
    }

    impl Node for SlotReuse {
        fn as_any(&self) -> Option<&dyn std::any::Any> {
            Some(self)
        }
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(1_000), TimerToken(START_A));
            ctx.set_timer(SimDuration::from_millis(1_100), TimerToken(FAIL_A_START_B));
        }
        fn on_datagram(&mut self, ctx: &mut Context<'_>, src: Addr, msg: &Message, len: usize) {
            self.r.on_datagram(ctx, src, msg, len);
        }
        fn on_timer(&mut self, ctx: &mut Context<'_>, token: TimerToken) {
            let start = |r: &mut RecursiveResolver, ctx: &mut Context<'_>, key: CacheKey| {
                let name = key.name.clone();
                r.start_or_join(ctx, key.clone(), name, Vec::new(), None, 0);
                r.tasks.find(&key).expect("the task").id
            };
            match token.0 {
                START_A => self.a = start(&mut self.r, ctx, question("a.test")),
                FAIL_A_START_B => {
                    self.r.fail_task(ctx, self.a);
                    self.b = start(&mut self.r, ctx, question("b.test"));
                    let b = self.r.tasks.get(self.b).expect("task B");
                    self.b_msg_id = b.outstanding.expect("B's query").msg_id;
                }
                _ => self.r.on_timer(ctx, token),
            }
        }
    }

    /// A's retry timer fires at 1.8 s, after B took A's slot: it must
    /// find no task, and B keeps its one attempt and its query.
    #[test]
    fn a_finished_tasks_timer_never_reaches_the_task_in_its_slot() {
        let mut sim = Simulator::new(53);
        let (_, root) = sim.add_node(Box::new(Silent));
        let r = RecursiveResolver::new(crate::profiles::bind_like(vec![root]));
        let (id, _) = sim.add_node(Box::new(SlotReuse {
            r,
            a: 0,
            b: 0,
            b_msg_id: 0,
        }));
        sim.run_until(SimDuration::from_millis(1_850).after_zero());
        let h = sim
            .node(id)
            .and_then(|n| n.as_any())
            .and_then(|n| n.downcast_ref::<SlotReuse>())
            .expect("the harness");
        assert_eq!(Tasks::slot(h.a), Tasks::slot(h.b), "B reuses A's slot");
        assert_ne!(h.a, h.b);
        assert!(h.r.tasks.get(h.a).is_none());
        let b = h.r.tasks.get(h.b).expect("B in flight");
        assert_eq!(b.attempts, 1);
        assert_eq!(b.outstanding.map(|o| o.msg_id), Some(h.b_msg_id));
        assert_eq!(h.r.by_msg_id.len(), 1);
        assert_eq!(h.r.stats().retries, 0);
    }
}
