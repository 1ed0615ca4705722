//! Bounded admission queue with explicit load-shedding policy.
//!
//! The serving loop admits every arrival through an [`AdmissionQueue`]
//! before it can be coalesced into a batch. Two protections happen at the
//! admission edge, *before* any device work:
//!
//! * **deadline check** — if the device is already booked past the
//!   request's deadline, it provably cannot be served in time and is
//!   dropped as deadline-missed immediately (no queue slot wasted);
//! * **capacity check** — when the queue is full, the configured
//!   [`ShedPolicy`] decides who pays: the incoming request
//!   ([`RejectNewest`](ShedPolicy::RejectNewest)) or the oldest queued one
//!   ([`ShedOldest`](ShedPolicy::ShedOldest)).
//!
//! Both outcomes are recorded per-request so the final report can prove
//! exact accounting: `offered = completed + shed + deadline_missed`.

use crate::TrainError;
use buffalo_graph::NodeId;
use std::collections::VecDeque;

/// Who gets dropped when the admission queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShedPolicy {
    /// The incoming request bounces; queued requests keep their slots.
    /// This is the default: requests already admitted have waited longest
    /// and are closest to their deadlines — dropping them wastes the wait.
    #[default]
    RejectNewest,
    /// The oldest queued request is evicted to make room for the incoming
    /// one. Prefer this when fresher queries are worth more than stale
    /// ones (the stale ones were about to miss their deadlines anyway).
    ShedOldest,
}

impl ShedPolicy {
    /// Parses a policy name as used by `--shed-policy`.
    ///
    /// # Errors
    ///
    /// [`TrainError::InvalidConfig`] on anything but `reject-newest` /
    /// `shed-oldest`.
    pub fn parse(s: &str) -> Result<Self, TrainError> {
        match s.trim() {
            "reject-newest" => Ok(ShedPolicy::RejectNewest),
            "shed-oldest" => Ok(ShedPolicy::ShedOldest),
            other => Err(TrainError::InvalidConfig(format!(
                "unknown shed policy `{other}` (expected `reject-newest` or `shed-oldest`)"
            ))),
        }
    }

    /// The canonical flag spelling.
    pub(crate) fn as_str(&self) -> &'static str {
        match self {
            ShedPolicy::RejectNewest => "reject-newest",
            ShedPolicy::ShedOldest => "shed-oldest",
        }
    }
}

impl std::fmt::Display for ShedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One request sitting in the admission queue.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueueEntry {
    /// Position in the trace.
    pub index: usize,
    /// The queried node.
    pub node: NodeId,
    /// Simulated arrival time, seconds.
    pub arrival: f64,
}

/// What the admission edge decided for one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request took a queue slot.
    Admitted,
    /// The request (or, under [`ShedPolicy::ShedOldest`], a queued
    /// victim) was shed for capacity.
    Shed,
    /// The request provably could not meet its deadline and was dropped
    /// before queueing.
    DeadlineMissed,
}

/// Bounded FIFO of admitted-but-not-yet-dispatched requests, plus the
/// ledgers of everything dropped at the edge.
#[derive(Debug)]
pub struct AdmissionQueue {
    queue: VecDeque<QueueEntry>,
    depth: usize,
    policy: ShedPolicy,
    /// Trace indices shed for capacity, in drop order.
    pub shed: Vec<usize>,
    /// Trace indices dropped because their deadline was unmeetable or
    /// expired before dispatch, in drop order.
    pub missed: Vec<usize>,
}

impl AdmissionQueue {
    /// An empty queue holding at most `depth` requests (`usize::MAX` for
    /// effectively unbounded).
    pub(crate) fn new(depth: usize, policy: ShedPolicy) -> Self {
        AdmissionQueue {
            queue: VecDeque::new(),
            depth,
            policy,
            shed: Vec::new(),
            missed: Vec::new(),
        }
    }

    /// Whether no request is queued.
    pub(crate) fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// The queued entries in arrival order (front = oldest).
    pub(crate) fn entries(&self) -> impl Iterator<Item = &QueueEntry> + '_ {
        self.queue.iter()
    }

    /// Offers one arrival to the queue. `device_free` is when the device
    /// finishes its current work — if that is already past the entry's
    /// deadline the request is dropped as missed (it cannot possibly
    /// dispatch in time). Otherwise capacity is enforced per the policy.
    pub(crate) fn offer(
        &mut self,
        entry: QueueEntry,
        device_free: f64,
        deadline: Option<f64>,
    ) -> Admission {
        if let Some(d) = deadline {
            if device_free > entry.arrival + d {
                self.missed.push(entry.index);
                return Admission::DeadlineMissed;
            }
        }
        if self.queue.len() >= self.depth {
            match self.policy {
                ShedPolicy::RejectNewest => {
                    self.shed.push(entry.index);
                    return Admission::Shed;
                }
                ShedPolicy::ShedOldest => {
                    if let Some(victim) = self.queue.pop_front() {
                        self.shed.push(victim.index);
                    }
                }
            }
        }
        self.queue.push_back(entry);
        Admission::Admitted
    }

    /// Pops the oldest `n` queued entries for dispatch.
    pub(crate) fn take_front(&mut self, n: usize) -> Vec<QueueEntry> {
        let n = n.min(self.queue.len());
        self.queue.drain(..n).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(index: usize, arrival: f64) -> QueueEntry {
        QueueEntry {
            index,
            node: index as NodeId,
            arrival,
        }
    }

    #[test]
    fn policy_parses_and_round_trips() {
        for p in [ShedPolicy::RejectNewest, ShedPolicy::ShedOldest] {
            assert_eq!(ShedPolicy::parse(p.as_str()).unwrap(), p);
            assert_eq!(p.to_string(), p.as_str());
        }
        assert!(matches!(
            ShedPolicy::parse("drop-all"),
            Err(TrainError::InvalidConfig(_))
        ));
    }

    #[test]
    fn reject_newest_bounces_the_arrival() {
        let mut q = AdmissionQueue::new(2, ShedPolicy::RejectNewest);
        assert_eq!(q.offer(e(0, 0.0), 0.0, None), Admission::Admitted);
        assert_eq!(q.offer(e(1, 0.1), 0.0, None), Admission::Admitted);
        assert_eq!(q.offer(e(2, 0.2), 0.0, None), Admission::Shed);
        assert_eq!(q.shed, vec![2]);
        let kept: Vec<usize> = q.entries().map(|x| x.index).collect();
        assert_eq!(kept, vec![0, 1], "queued requests keep their slots");
    }

    #[test]
    fn shed_oldest_evicts_the_front() {
        let mut q = AdmissionQueue::new(2, ShedPolicy::ShedOldest);
        q.offer(e(0, 0.0), 0.0, None);
        q.offer(e(1, 0.1), 0.0, None);
        assert_eq!(q.offer(e(2, 0.2), 0.0, None), Admission::Admitted);
        assert_eq!(q.shed, vec![0], "oldest pays");
        let kept: Vec<usize> = q.entries().map(|x| x.index).collect();
        assert_eq!(kept, vec![1, 2]);
    }

    #[test]
    fn unmeetable_deadline_is_missed_before_queueing() {
        let mut q = AdmissionQueue::new(8, ShedPolicy::RejectNewest);
        // Device busy until t=1.0; a request arriving at 0.2 with a 0.5 s
        // deadline (absolute 0.7) cannot dispatch before 1.0.
        assert_eq!(
            q.offer(e(0, 0.2), 1.0, Some(0.5)),
            Admission::DeadlineMissed
        );
        assert_eq!(q.missed, vec![0]);
        assert!(q.is_empty());
        // A meetable one queues.
        assert_eq!(q.offer(e(1, 0.9), 1.0, Some(0.5)), Admission::Admitted);
        assert_eq!(q.entries().count(), 1);
    }

    #[test]
    fn take_front_pops_in_arrival_order() {
        let mut q = AdmissionQueue::new(8, ShedPolicy::RejectNewest);
        for i in 0..5 {
            q.offer(e(i, i as f64), 0.0, None);
        }
        let got = q.take_front(3);
        assert_eq!(
            got.iter().map(|x| x.index).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(q.entries().count(), 2);
        let rest = q.take_front(99);
        assert_eq!(rest.len(), 2);
        assert!(q.is_empty());
    }
}
