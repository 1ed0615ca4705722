//! Seeded request traces: deterministic Poisson arrival generation and
//! the `FaultPlan`-style spec parser behind `--trace`.

use crate::TrainError;
use buffalo_graph::NodeId;

/// One inference query: a node whose class is wanted, arriving at a
/// simulated time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Request {
    /// Simulated arrival time, seconds from trace start (non-decreasing
    /// within a trace).
    pub arrival: f64,
    /// The dataset node being queried.
    pub node: NodeId,
}

/// A seeded, deterministic request trace.
#[derive(Debug, Clone)]
pub struct RequestTrace {
    /// The requests, in arrival order.
    pub requests: Vec<Request>,
    /// The seed the trace was generated from (also seeds per-request
    /// neighborhood sampling during replay).
    pub seed: u64,
}

/// SplitMix64 step — the same generator discipline `FaultPlan` uses, so a
/// seed pins the whole trace.
pub(crate) fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Uniform draw in (0, 1] from one SplitMix64 output (never 0, so
/// `-ln(u)` is finite).
pub(crate) fn unit_open(z: u64) -> f64 {
    ((z >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

impl RequestTrace {
    /// Generates `n` requests as a Poisson process with mean arrival rate
    /// `rate_hz`, querying nodes uniformly in `[0, num_nodes)`.
    ///
    /// # Errors
    ///
    /// [`TrainError::InvalidConfig`] when `n == 0`, `rate_hz` is not
    /// positive/finite, `num_nodes == 0`, or `n` requests do not fit in
    /// memory.
    pub fn poisson(
        n: usize,
        rate_hz: f64,
        num_nodes: usize,
        seed: u64,
    ) -> Result<Self, TrainError> {
        if n == 0 {
            return Err(TrainError::InvalidConfig(
                "trace needs at least one request".into(),
            ));
        }
        if !(rate_hz.is_finite() && rate_hz > 0.0) {
            return Err(TrainError::InvalidConfig(format!(
                "arrival rate must be positive and finite, got {rate_hz}"
            )));
        }
        if num_nodes == 0 {
            return Err(TrainError::InvalidConfig(
                "cannot draw queries from an empty node set".into(),
            ));
        }
        let mut state = seed;
        let mut t = 0.0f64;
        let mut requests = Vec::new();
        requests.try_reserve_exact(n).map_err(|e| {
            TrainError::InvalidConfig(format!("a trace of {n} requests does not fit: {e}"))
        })?;
        for _ in 0..n {
            t += -unit_open(splitmix64(&mut state)).ln() / rate_hz;
            let node = (splitmix64(&mut state) % num_nodes as u64) as NodeId;
            requests.push(Request { arrival: t, node });
        }
        Ok(RequestTrace { requests, seed })
    }

    /// Parses a trace spec, `FaultPlan`-style:
    /// `poisson:n=256,rate=128,seed=7` (every key optional; defaults
    /// `n=256`, `rate=64`, `seed=7`). `num_nodes` bounds the node draw.
    ///
    /// # Errors
    ///
    /// [`TrainError::InvalidConfig`] on an unknown kind/key, an
    /// unparseable value, or parameters [`Self::poisson`] rejects.
    pub fn parse(spec: &str, num_nodes: usize) -> Result<Self, TrainError> {
        let (kind, body) = match spec.split_once(':') {
            Some((k, b)) => (k.trim(), b.trim()),
            None => (spec.trim(), ""),
        };
        if kind != "poisson" {
            return Err(TrainError::InvalidConfig(format!(
                "unknown trace kind `{kind}` (expected `poisson`)"
            )));
        }
        let mut n = 256usize;
        let mut rate = 64.0f64;
        let mut seed = 7u64;
        for kv in body.split(',').filter(|s| !s.trim().is_empty()) {
            let (key, value) = kv.split_once('=').ok_or_else(|| {
                TrainError::InvalidConfig(format!("trace clause `{kv}` is not key=value"))
            })?;
            let (key, value) = (key.trim(), value.trim());
            let bad = |k: &str, v: &str| TrainError::InvalidConfig(format!("bad trace {k} `{v}`"));
            match key {
                "n" => n = value.parse().map_err(|_| bad(key, value))?,
                "rate" => rate = value.parse().map_err(|_| bad(key, value))?,
                "seed" => seed = value.parse().map_err(|_| bad(key, value))?,
                other => {
                    return Err(TrainError::InvalidConfig(format!(
                        "unknown trace key `{other}`"
                    )))
                }
            }
        }
        RequestTrace::poisson(n, rate, num_nodes, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn trace_generation_is_seeded_and_ordered() {
        let a = RequestTrace::poisson(64, 100.0, 1000, 5).unwrap();
        let b = RequestTrace::poisson(64, 100.0, 1000, 5).unwrap();
        let c = RequestTrace::poisson(64, 100.0, 1000, 6).unwrap();
        assert_eq!(a.requests, b.requests, "same seed, same trace");
        assert_ne!(a.requests, c.requests, "different seed, different trace");
        assert!(a.requests.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.requests.iter().all(|r| (r.node as usize) < 1000));
    }

    #[test]
    fn trace_spec_parses_and_rejects() {
        let t = RequestTrace::parse("poisson:n=32,rate=10,seed=3", 500).unwrap();
        assert_eq!(t.requests.len(), 32);
        assert_eq!(t.seed, 3);
        assert!(
            RequestTrace::parse("poisson", 500).is_ok(),
            "defaults apply"
        );
        assert!(RequestTrace::parse("uniform:n=3", 500).is_err());
        assert!(RequestTrace::parse("poisson:n=zero", 500).is_err());
        assert!(RequestTrace::parse("poisson:n=4,burst=2", 500).is_err());
        assert!(RequestTrace::parse("poisson:n=0", 500).is_err());
        assert!(RequestTrace::parse("poisson:rate=-1", 500).is_err());
    }

    /// Malformed-spec suite in the style of the `lose:` plan parser tests:
    /// every rejection is a structured `InvalidConfig` whose message names
    /// the offending clause, never a panic or a silent default.
    #[test]
    fn malformed_specs_are_rejected_with_context() {
        let msg = |spec: &str| match RequestTrace::parse(spec, 500) {
            Err(TrainError::InvalidConfig(m)) => m,
            other => panic!("`{spec}` should be InvalidConfig, got {other:?}"),
        };
        // Bad counts.
        assert!(msg("poisson:n=-3").contains("bad trace n"));
        assert!(msg("poisson:n=1e4").contains("bad trace n"));
        assert!(msg("poisson:n=0").contains("at least one request"));
        // Bad rates.
        assert!(msg("poisson:rate=abc").contains("bad trace rate"));
        assert!(msg("poisson:rate=0").contains("positive and finite"));
        assert!(msg("poisson:rate=inf").contains("positive and finite"));
        assert!(msg("poisson:rate=nan").contains("positive and finite"));
        // Bad seeds.
        assert!(msg("poisson:seed=-1").contains("bad trace seed"));
        assert!(msg("poisson:seed=7.5").contains("bad trace seed"));
        // Trailing garbage and malformed clauses.
        assert!(msg("poisson:n=4,junk").contains("not key=value"));
        assert!(msg("poisson:n=4,=5").contains("unknown trace key"));
        assert!(msg("poisson:n=4,rate").contains("not key=value"));
        assert!(msg("poisson:burst=2").contains("unknown trace key"));
        assert!(msg("uniform:n=4").contains("unknown trace kind"));
        assert!(msg("").contains("unknown trace kind"));
        // Out-of-range node draws are impossible by construction (draws
        // are mod num_nodes) — but an empty node set is rejected.
        assert!(matches!(
            RequestTrace::parse("poisson:n=4", 0),
            Err(TrainError::InvalidConfig(m)) if m.contains("empty node set")
        ));
        // Trailing commas are tolerated (empty clauses are skipped).
        assert!(RequestTrace::parse("poisson:n=4,", 500).is_ok());
        assert_eq!(
            RequestTrace::parse("poisson:n=4,", 500)
                .unwrap()
                .requests
                .len(),
            4
        );
    }

    #[test]
    fn a_trace_too_large_to_hold_is_an_error() {
        let err = RequestTrace::parse("poisson:n=100000000000000", 500).unwrap_err();
        assert!(err.to_string().contains("does not fit"), "{err}");
    }

    /// Spec text from pieces whose counts end in a separator, so `n` is
    /// either small or far too large to hold — never a legitimately huge
    /// trace.
    const SPEC_PIECES: [&str; 14] = [
        "poisson",
        "uniform",
        ":",
        "n=",
        "rate=",
        "seed=",
        "4,",
        "64,",
        "0,",
        "-1,",
        "1e3,",
        "100000000000000,",
        "=",
        " ",
    ];

    proptest! {
        /// A spec, arbitrary or assembled from the pieces above, parses or
        /// is rejected; it never panics or aborts.
        #[test]
        fn trace_spec_parsing_is_total(
            raw in vec(0u16..256, 0..256),
            pieces in vec(0usize..SPEC_PIECES.len(), 0..24),
            num_nodes in 0usize..4,
        ) {
            let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            let _ = RequestTrace::parse(&String::from_utf8_lossy(&raw), num_nodes);
            let spec: String = pieces.iter().map(|&i| SPEC_PIECES[i]).collect();
            if let Ok(trace) = RequestTrace::parse(&spec, num_nodes) {
                prop_assert!(trace.requests.len() <= 256);
            }
        }
    }
}
