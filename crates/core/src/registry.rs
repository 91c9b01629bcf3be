//! Named resident sessions with LRU eviction under a memory budget.
//!
//! A long-running daemon keeps one session per tenant resident so deltas
//! and re-mines stay warm, but "many tenants" and "bounded memory" pull
//! in opposite directions. [`SessionRegistry`] resolves that the way the
//! ROADMAP's storage-engine reference does: keep everything resident
//! until a budget says otherwise, then *evict* idle sessions in
//! least-recently-used order (the eviction callback gets a last look,
//! e.g. to checkpoint a durable session so re-open is warm). The
//! registry never compacts: every session compacts its own arena as it
//! absorbs deltas, so none rests above
//! [`MiningSession::COMPACT_ABOVE`](crate::MiningSession::COMPACT_ABOVE).
//!
//! The registry is policy, not mechanism: it never blocks on a busy
//! session. Sessions are handed out as `Arc<Mutex<S>>`, a request holds
//! the inner lock for its whole operation, and budget enforcement uses
//! `try_lock` + `Arc::strong_count == 1` so a tenant that is mid-mine is
//! simply skipped this round and reconsidered the next.
//!
//! Byte accounting goes through [`ResidentFootprint`], an *estimate* of
//! resident size (posting arena + adjacency + label payloads — the terms
//! that actually dominate). The registry caches each session's last
//! observed estimate so `approx_bytes` stays callable while sessions are
//! locked by in-flight requests.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// How much memory a resident session holds, as seen by
/// [`SessionRegistry::enforce_budget`].
pub trait ResidentFootprint {
    /// Estimated resident bytes (heap payloads that scale with the
    /// graph; fixed-size headers are noise at eviction granularity).
    fn approx_bytes(&self) -> usize;
}

/// The name is already resident; returned by [`SessionRegistry::insert`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AlreadyResident;

impl std::fmt::Display for AlreadyResident {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "a session with this name is already resident")
    }
}

impl std::error::Error for AlreadyResident {}

/// What one [`SessionRegistry::enforce_budget`] pass did.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PressureOutcome {
    /// Estimated resident bytes entering the pass.
    pub bytes_before: usize,
    /// Estimated resident bytes after eviction.
    pub bytes_after: usize,
    /// Sessions evicted, least-recently-used first.
    pub evicted: Vec<String>,
    /// Sessions that were over-budget candidates but busy (locked or
    /// checked out by a request) and therefore left alone this round.
    pub skipped_busy: usize,
}

impl PressureOutcome {
    /// Whether the pass got the estimate under the budget it was given.
    pub fn under_budget(&self, budget: usize) -> bool {
        self.bytes_after <= budget
    }
}

struct Entry<S> {
    session: Arc<Mutex<S>>,
    /// Monotonic recency stamp; smallest = least recently used.
    last_used: u64,
    /// Last observed [`ResidentFootprint::approx_bytes`]; serves the
    /// total while the session itself is locked by a request.
    cached_bytes: usize,
}

/// Name → resident session map with LRU recency and budgeted reclaim.
/// See the [module docs](self).
pub struct SessionRegistry<S> {
    entries: HashMap<String, Entry<S>>,
    clock: u64,
}

impl<S> Default for SessionRegistry<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S> SessionRegistry<S> {
    pub fn new() -> Self {
        Self {
            entries: HashMap::new(),
            clock: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// Resident session names, sorted (stable output for stats/tests).
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.entries.keys().cloned().collect();
        names.sort();
        names
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Removes a session from residency and returns its handle (the
    /// caller may still hold clones; the registry just forgets it).
    pub fn remove(&mut self, name: &str) -> Option<Arc<Mutex<S>>> {
        self.entries.remove(name).map(|e| e.session)
    }
}

impl<S: ResidentFootprint> SessionRegistry<S> {
    /// Makes `session` resident under `name` and returns the shared
    /// handle. Fails if the name is taken — residency is the identity,
    /// silently replacing a live tenant would orphan its requests.
    pub fn insert(&mut self, name: &str, session: S) -> Result<Arc<Mutex<S>>, AlreadyResident> {
        if self.entries.contains_key(name) {
            return Err(AlreadyResident);
        }
        let stamp = self.tick();
        let cached_bytes = session.approx_bytes();
        let handle = Arc::new(Mutex::new(session));
        self.entries.insert(
            name.to_string(),
            Entry {
                session: Arc::clone(&handle),
                last_used: stamp,
                cached_bytes,
            },
        );
        Ok(handle)
    }

    /// Hands out the session for a request, bumping its recency. The
    /// caller locks the returned mutex for the duration of the work.
    pub fn checkout(&mut self, name: &str) -> Option<Arc<Mutex<S>>> {
        let stamp = self.tick();
        let entry = self.entries.get_mut(name)?;
        entry.last_used = stamp;
        Some(Arc::clone(&entry.session))
    }

    /// Like [`Self::checkout`] without the recency bump — for stats
    /// endpoints that should not keep an idle session hot.
    pub fn peek(&self, name: &str) -> Option<Arc<Mutex<S>>> {
        self.entries.get(name).map(|e| Arc::clone(&e.session))
    }

    /// Total estimated resident bytes, refreshing the per-session cache
    /// where the session lock is free (busy sessions keep their last
    /// observation — mining does not shrink a footprint anyway).
    pub fn approx_bytes(&mut self) -> usize {
        for entry in self.entries.values_mut() {
            if let Ok(s) = entry.session.try_lock() {
                entry.cached_bytes = s.approx_bytes();
            }
        }
        self.entries.values().map(|e| e.cached_bytes).sum()
    }

    /// Brings the estimated footprint under `budget` if it can, by
    /// evicting idle sessions LRU-first. `on_evict` runs under the
    /// session lock before the entry is dropped (checkpoint-to-store
    /// lives there); returning `false` vetoes this eviction (e.g. the
    /// checkpoint failed and dropping the session would lose data).
    ///
    /// Busy sessions — lock held, or a request still holds the `Arc`
    /// from [`Self::checkout`] — are never touched, so a pass over a
    /// fully busy registry is a no-op that reports `skipped_busy`.
    pub fn enforce_budget(
        &mut self,
        budget: usize,
        mut on_evict: impl FnMut(&str, &mut S) -> bool,
    ) -> PressureOutcome {
        let mut out = PressureOutcome {
            bytes_before: self.approx_bytes(),
            ..PressureOutcome::default()
        };
        out.bytes_after = out.bytes_before;
        if out.bytes_before <= budget {
            return out;
        }

        let mut names: Vec<String> = self.entries.keys().cloned().collect();
        names.sort_by_key(|n| self.entries[n].last_used);
        for name in &names {
            if out.bytes_after <= budget {
                break;
            }
            let entry = self.entries.get_mut(name).expect("name just listed");
            // Only the registry may hold the handle: a request that
            // checked the session out but has not locked it yet must
            // not see its tenant vanish underneath it.
            if Arc::strong_count(&entry.session) != 1 {
                out.skipped_busy += 1;
                continue;
            }
            let evict = match entry.session.try_lock() {
                Ok(mut s) => on_evict(name, &mut s),
                Err(_) => {
                    out.skipped_busy += 1;
                    continue;
                }
            };
            if !evict {
                continue;
            }
            let freed = entry.cached_bytes;
            self.entries.remove(name);
            out.bytes_after = out.bytes_after.saturating_sub(freed);
            out.evicted.push(name.clone());
        }
        out
    }
}

impl<S> std::fmt::Debug for SessionRegistry<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SessionRegistry")
            .field("len", &self.entries.len())
            .field("clock", &self.clock)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake session holding `.0` bytes of payload.
    struct Fake(usize);

    impl ResidentFootprint for Fake {
        fn approx_bytes(&self) -> usize {
            self.0
        }
    }

    #[test]
    fn insert_checkout_remove_roundtrip() {
        let mut reg = SessionRegistry::new();
        assert!(reg.is_empty());
        reg.insert("a", Fake(100)).unwrap();
        assert!(reg.insert("a", Fake(1)).is_err());
        assert!(reg.contains("a"));
        assert_eq!(reg.names(), vec!["a".to_string()]);
        assert!(reg.checkout("a").is_some());
        assert!(reg.checkout("missing").is_none());
        assert!(reg.remove("a").is_some());
        assert!(reg.is_empty());
    }

    #[test]
    fn under_budget_pass_is_a_noop() {
        let mut reg = SessionRegistry::new();
        reg.insert("a", Fake(100)).unwrap();
        let out = reg.enforce_budget(1000, |_, _| panic!("must not evict"));
        assert_eq!(out.bytes_before, 100);
        assert_eq!(out.bytes_after, 100);
        assert!(out.evicted.is_empty());
        assert!(reg.contains("a"));
    }

    #[test]
    fn evicts_least_recently_used_first() {
        let mut reg = SessionRegistry::new();
        reg.insert("old", Fake(400)).unwrap();
        reg.insert("mid", Fake(400)).unwrap();
        reg.insert("hot", Fake(400)).unwrap();
        drop(reg.checkout("old")); // bump: "mid" is now the LRU
        let mut seen = Vec::new();
        let out = reg.enforce_budget(900, |name, _| {
            seen.push(name.to_string());
            true
        });
        assert_eq!(out.evicted, vec!["mid".to_string()]);
        assert_eq!(seen, out.evicted);
        assert_eq!(out.bytes_after, 800);
        assert!(reg.contains("old") && reg.contains("hot"));
    }

    #[test]
    fn busy_sessions_are_skipped_not_blocked_on() {
        let mut reg = SessionRegistry::new();
        reg.insert("busy", Fake(500)).unwrap();
        reg.insert("idle", Fake(500)).unwrap();
        // A request holds the handle (and the lock) mid-operation.
        let handle = reg.checkout("busy").unwrap();
        let _guard = handle.lock().unwrap();
        let out = reg.enforce_budget(400, |_, _| true);
        assert_eq!(out.evicted, vec!["idle".to_string()]);
        assert_eq!(out.skipped_busy, 1);
        assert!(reg.contains("busy") && !reg.contains("idle"));
        // Still over budget, but nothing else was evictable.
        assert!(!out.under_budget(400));
    }

    #[test]
    fn checked_out_but_unlocked_sessions_are_not_evicted() {
        let mut reg = SessionRegistry::new();
        reg.insert("held", Fake(500)).unwrap();
        // The request hasn't locked yet — strong_count alone protects it.
        let _handle = reg.checkout("held").unwrap();
        let out = reg.enforce_budget(0, |_, _| true);
        assert!(out.evicted.is_empty());
        assert_eq!(out.skipped_busy, 1);
        assert!(reg.contains("held"));
    }

    #[test]
    fn eviction_veto_keeps_the_session_resident() {
        let mut reg = SessionRegistry::new();
        reg.insert("precious", Fake(500)).unwrap();
        reg.insert("plain", Fake(500)).unwrap();
        let out = reg.enforce_budget(0, |name, _| name != "precious");
        assert_eq!(out.evicted, vec!["plain".to_string()]);
        assert!(reg.contains("precious"));
    }

    #[test]
    fn approx_bytes_refreshes_idle_and_keeps_cache_for_busy() {
        let mut reg = SessionRegistry::new();
        let handle = reg.insert("a", Fake(100)).unwrap();
        handle.lock().unwrap().0 = 900;
        assert_eq!(reg.approx_bytes(), 900);
        let guard = handle.lock().unwrap();
        // Locked: the stale cache serves the total instead of blocking.
        assert_eq!(reg.approx_bytes(), 900);
        drop(guard);
    }
}
