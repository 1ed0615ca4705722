//! Deterministic fault injection over the simulated device.
//!
//! A [`FaultPlan`] describes *when* allocations misbehave — transient
//! alloc failures on specific allocation indices or with a seeded
//! probability, and mid-run budget shrink/restore events simulating
//! fragmentation or a co-tenant process. Every member of a
//! [`DevicePool`](crate::DevicePool) replays the plan on each of its
//! `alloc` calls.

/// A scheduled budget change: at the `at_alloc`-th allocation call
/// (1-based, counted across the device's lifetime), the budget becomes
/// `factor ×` the device's original budget. `factor = 1.0` restores it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetEvent {
    /// Allocation index (1-based) at which the change takes effect.
    pub at_alloc: u64,
    /// Multiplier applied to the original budget.
    pub factor: f64,
}

/// A scheduled crash of the process-equivalent in the middle of a
/// checkpoint write: at the `at_save`-th snapshot save (1-based, counted
/// across the writer's lifetime), the writer stops after `after_bytes`
/// bytes (half the snapshot when `None`) and the training run dies.
///
/// With `torn = false` (the default) the partial write lands in the
/// writer's *temp* file — the torn bytes are exactly what an atomic
/// rename protocol promises to keep invisible. With `torn = true` the
/// partial write lands at the *final* snapshot path, simulating a
/// filesystem that made a rename visible without the data (no journal,
/// lost fsync), so resume must detect the corruption via the integrity
/// footer and fall back to an older snapshot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrashPoint {
    /// Snapshot save index (1-based) at which the crash fires.
    pub at_save: u64,
    /// Bytes written before dying; half the snapshot when `None`.
    pub after_bytes: Option<u64>,
    /// Whether the partial write is visible at the final snapshot path.
    pub torn: bool,
}

impl CrashPoint {
    /// Whether the crash fires at the given (1-based) save index.
    pub fn fires(&self, save_index: u64) -> bool {
        self.at_save == save_index
    }
}

/// A scheduled whole-device loss: from the `at_alloc`-th allocation call
/// (1-based) on device `device` onward, *every* allocation on that device
/// fails permanently with [`OomError::device_lost`] set — the simulated
/// equivalent of a GPU falling off the bus mid-epoch. Unlike a transient
/// fault, retrying is pointless; the executor must fail over to a
/// surviving device.
///
/// [`OomError::device_lost`]: crate::OomError::device_lost
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceLoss {
    /// Index of the device (within a pool) that is lost.
    pub device: usize,
    /// Allocation index (1-based, per-device) at which the loss fires.
    pub at_alloc: u64,
}

/// A deterministic fault schedule.
///
/// Build one directly, with the convenience constructors, or by parsing a
/// CLI spec (see [`FaultPlan::parse`]).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed for the probabilistic transient-fault stream.
    pub seed: u64,
    /// Probability in `[0, 1)` that any given allocation fails with an
    /// injected transient fault.
    pub transient_prob: f64,
    /// Specific allocation indices (1-based) that fail with an injected
    /// transient fault, regardless of `transient_prob`.
    pub fail_nth: Vec<u64>,
    /// Scheduled budget shrink/restore events, sorted by `at_alloc`.
    pub budget_events: Vec<BudgetEvent>,
    /// Scheduled mid-checkpoint-write crash, consumed by the checkpoint
    /// writer rather than the device (allocations never see it).
    pub crash: Option<CrashPoint>,
    /// Scheduled whole-device losses, sorted by `(device, at_alloc)`.
    /// Each entry names a device index; it only ever fires on the pool
    /// member with that index, so a loss naming an index outside the
    /// pool never fires at all.
    pub device_loss: Vec<DeviceLoss>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        FaultPlan {
            seed: 0,
            transient_prob: 0.0,
            fail_nth: Vec::new(),
            budget_events: Vec::new(),
            crash: None,
            device_loss: Vec::new(),
        }
    }

    /// The earliest allocation index at which device `device` is lost,
    /// or `None` if the plan never loses it.
    pub(crate) fn lost_at(&self, device: usize) -> Option<u64> {
        self.device_loss
            .iter()
            .filter(|l| l.device == device)
            .map(|l| l.at_alloc)
            .min()
    }

    /// Parses a CLI fault spec. Clauses are separated by `;`:
    ///
    /// * `transient:p=0.1,seed=7` — probabilistic transient failures;
    /// * `transient:nth=5,nth=12` — fail exactly the 5th and 12th allocs;
    /// * `shrink:at=10,factor=0.5,restore=30` — halve the budget at the
    ///   10th alloc, restore it at the 30th (`restore` optional);
    /// * `crash:at=3,bytes=64,torn=1` — kill the run during the 3rd
    ///   checkpoint save, 64 bytes into the write (`bytes` and `torn`
    ///   optional; see [`CrashPoint`]);
    /// * `lose:1,40` — permanently lose device 1 at its 40th allocation
    ///   (positional: `lose:device,at_alloc`; see [`DeviceLoss`]).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending clause or key.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::none();
        for clause in spec.split(';').filter(|c| !c.trim().is_empty()) {
            let (kind, params) = clause
                .split_once(':')
                .ok_or_else(|| format!("fault clause `{clause}` needs `kind:key=value,...`"))?;
            if kind.trim() == "lose" {
                // Positional clause: `lose:device,at_alloc`.
                let vals: Vec<&str> = params
                    .split(',')
                    .map(str::trim)
                    .filter(|p| !p.is_empty())
                    .collect();
                let [device, at] = vals[..] else {
                    return Err(format!(
                        "lose clause needs `lose:device,at_alloc`, got `{clause}`"
                    ));
                };
                let device: usize = parse_num("device", device)?;
                let at_alloc: u64 = parse_num("at_alloc", at)?;
                if at_alloc == 0 {
                    return Err("lose at_alloc is 1-based; 0 never fires".into());
                }
                plan.device_loss.push(DeviceLoss { device, at_alloc });
                continue;
            }
            let mut pairs = Vec::new();
            for kv in params.split(',').filter(|p| !p.trim().is_empty()) {
                let (k, v) = kv
                    .split_once('=')
                    .ok_or_else(|| format!("bad fault parameter `{kv}` (want key=value)"))?;
                pairs.push((k.trim(), v.trim()));
            }
            match kind.trim() {
                "transient" => {
                    for (k, v) in pairs {
                        match k {
                            "p" => {
                                plan.transient_prob = parse_num(k, v)?;
                                if !(0.0..1.0).contains(&plan.transient_prob) {
                                    return Err(format!("transient p must be in [0,1): `{v}`"));
                                }
                            }
                            "seed" => plan.seed = parse_num(k, v)?,
                            "nth" => plan.fail_nth.push(parse_num(k, v)?),
                            other => return Err(format!("unknown transient key `{other}`")),
                        }
                    }
                }
                "shrink" => {
                    let (mut at, mut factor, mut restore) = (None, None, None);
                    for (k, v) in pairs {
                        match k {
                            "at" => at = Some(parse_num(k, v)?),
                            "factor" => factor = Some(parse_num(k, v)?),
                            "restore" => restore = Some(parse_num(k, v)?),
                            other => return Err(format!("unknown shrink key `{other}`")),
                        }
                    }
                    let at: u64 = at.ok_or("shrink clause needs at=N")?;
                    let factor: f64 = factor.ok_or("shrink clause needs factor=F")?;
                    if !(0.0..=1.0).contains(&factor) {
                        return Err(format!("shrink factor must be in [0,1]: {factor}"));
                    }
                    plan.budget_events.push(BudgetEvent {
                        at_alloc: at,
                        factor,
                    });
                    if let Some(r) = restore {
                        plan.budget_events.push(BudgetEvent {
                            at_alloc: r,
                            factor: 1.0,
                        });
                    }
                }
                "crash" => {
                    let (mut at, mut bytes, mut torn) = (None, None, false);
                    for (k, v) in pairs {
                        match k {
                            "at" => at = Some(parse_num(k, v)?),
                            "bytes" => bytes = Some(parse_num(k, v)?),
                            "torn" => {
                                torn = match v {
                                    "1" | "true" => true,
                                    "0" | "false" => false,
                                    other => {
                                        return Err(format!("crash torn must be 0|1: `{other}`"))
                                    }
                                }
                            }
                            other => return Err(format!("unknown crash key `{other}`")),
                        }
                    }
                    let at: u64 = at.ok_or("crash clause needs at=N")?;
                    if at == 0 {
                        return Err("crash at=N is 1-based; 0 never fires".into());
                    }
                    plan.crash = Some(CrashPoint {
                        at_save: at,
                        after_bytes: bytes,
                        torn,
                    });
                }
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        plan.fail_nth.sort_unstable();
        plan.budget_events.sort_by_key(|e| e.at_alloc);
        plan.device_loss.sort_by_key(|l| (l.device, l.at_alloc));
        Ok(plan)
    }
}

fn parse_num<T: std::str::FromStr>(key: &str, v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("bad fault value {key}={v}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(FaultPlan::parse("transient").is_err());
        assert!(FaultPlan::parse("transient:p=2.0").is_err());
        assert!(FaultPlan::parse("transient:bogus=1").is_err());
        assert!(FaultPlan::parse("shrink:factor=0.5").is_err());
        assert!(FaultPlan::parse("shrink:at=3,factor=1.5").is_err());
        assert!(FaultPlan::parse("meteor:at=1").is_err());
        assert!(FaultPlan::parse("transient:p").is_err());
    }

    #[test]
    fn parse_crash_clause() {
        let plan = FaultPlan::parse("crash:at=3,bytes=64,torn=1").unwrap();
        assert_eq!(
            plan.crash,
            Some(CrashPoint {
                at_save: 3,
                after_bytes: Some(64),
                torn: true
            })
        );
        assert!(plan.crash.unwrap().fires(3));
        assert!(!plan.crash.unwrap().fires(2));

        let plan = FaultPlan::parse("crash:at=1").unwrap();
        assert_eq!(
            plan.crash,
            Some(CrashPoint {
                at_save: 1,
                after_bytes: None,
                torn: false
            })
        );

        assert!(FaultPlan::parse("crash:bytes=10").is_err());
        assert!(FaultPlan::parse("crash:at=0").is_err());
        assert!(FaultPlan::parse("crash:at=1,torn=2").is_err());
        assert!(FaultPlan::parse("crash:at=1,bogus=1").is_err());
    }

    #[test]
    fn parse_lose_clause_roundtrips() {
        let plan = FaultPlan::parse("lose:1,40").unwrap();
        assert_eq!(
            plan.device_loss,
            vec![DeviceLoss {
                device: 1,
                at_alloc: 40
            }]
        );
        assert_eq!(plan.lost_at(1), Some(40));
        assert_eq!(plan.lost_at(0), None);
        // Multiple losses sort by (device, at_alloc); the earliest wins.
        let plan = FaultPlan::parse("lose:2,9;lose:0,5;lose:2,3").unwrap();
        assert_eq!(plan.lost_at(2), Some(3));
        assert_eq!(plan.lost_at(0), Some(5));
        // Combines with the other clauses.
        let plan = FaultPlan::parse("transient:p=0.1,seed=7;lose:1,4").unwrap();
        assert_eq!(plan.seed, 7);
        assert_eq!(plan.lost_at(1), Some(4));
    }

    #[test]
    fn parse_rejects_malformed_lose_specs() {
        // No params, a single param, 0-based at_alloc, negative or
        // non-numeric indices, too many params.
        assert!(FaultPlan::parse("lose:").is_err());
        assert!(FaultPlan::parse("lose:0").is_err());
        assert!(FaultPlan::parse("lose:1,0").is_err());
        assert!(FaultPlan::parse("lose:-1,5").is_err());
        assert!(FaultPlan::parse("lose:1,-5").is_err());
        assert!(FaultPlan::parse("lose:one,5").is_err());
        assert!(FaultPlan::parse("lose:1,2,3").is_err());
    }

    #[test]
    fn parse_combines_clauses() {
        let plan = FaultPlan::parse("transient:p=0.1,seed=7;shrink:at=10,factor=0.25").unwrap();
        assert_eq!(plan.seed, 7);
        assert!((plan.transient_prob - 0.1).abs() < 1e-12);
        assert_eq!(
            plan.budget_events,
            vec![BudgetEvent {
                at_alloc: 10,
                factor: 0.25
            }]
        );
    }

    /// Each clause kind with its keys and a value each accepts (`lose`'s
    /// keys are positional, so empty), then an unknown kind.
    const CLAUSES: [(&str, [(&str, &str); 3]); 5] = [
        ("transient", [("p", "0.25"), ("seed", "7"), ("nth", "5")]),
        (
            "shrink",
            [("at", "10"), ("factor", "0.5"), ("restore", "30")],
        ),
        ("crash", [("at", "3"), ("bytes", "64"), ("torn", "1")]),
        ("lose", [("", "1"), ("", "40"), ("", "2")]),
        ("meteor", [("at", "1"), ("p", "0.5"), ("", "1")]),
    ];
    /// Values out of some key's range or type: the range edges, past
    /// `u64::MAX`, and text that is no number at all.
    const EDGES: [&str; 12] = [
        "0",
        "1",
        "-1",
        "nan",
        "1e400",
        "true",
        "18446744073709551615",
        "18446744073709551616",
        " 2 ",
        "",
        "=",
        "\u{e9}",
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]
        /// A spec, arbitrary or assembled from the vocabulary above as
        /// `kind:key=value,...;...`, parses or is rejected; it never
        /// panics, and what parses holds the plan's documented ranges and
        /// orders. An assembled parameter is one of its kind's keys or
        /// `bogus`, with the value that key accepts three times in four
        /// and an edge value otherwise.
        #[test]
        fn fault_spec_parsing_is_total(
            raw in vec(0u16..256, 0..256),
            clauses in vec((0..CLAUSES.len(), vec((0usize..4, 0..4 * EDGES.len()), 0..4)), 0..4),
        ) {
            let raw: Vec<u8> = raw.into_iter().map(|b| b as u8).collect();
            let _ = FaultPlan::parse(&String::from_utf8_lossy(&raw));
            let clause = |(kind, params): &(usize, Vec<(usize, usize)>)| {
                let (kind, keys) = CLAUSES[*kind];
                let params: Vec<String> = params
                    .iter()
                    .map(|&(k, v)| {
                        let (key, accepted) = keys.get(k).copied().unwrap_or(("bogus", "1"));
                        let value = EDGES.get(v).copied().unwrap_or(accepted);
                        match key {
                            "" => value.to_owned(),
                            key => format!("{key}={value}"),
                        }
                    })
                    .collect();
                format!("{kind}:{}", params.join(","))
            };
            let spec = clauses.iter().map(clause).collect::<Vec<_>>().join(";");
            if let Ok(plan) = FaultPlan::parse(&spec) {
                prop_assert!((0.0..1.0).contains(&plan.transient_prob));
                prop_assert!(plan.fail_nth.windows(2).all(|w| w[0] <= w[1]));
                prop_assert!(plan.budget_events.windows(2).all(|w| w[0].at_alloc <= w[1].at_alloc));
                prop_assert!(plan.budget_events.iter().all(|e| (0.0..=1.0).contains(&e.factor)));
                prop_assert!(plan.crash.is_none_or(|c| c.at_save >= 1));
                prop_assert!(plan.device_loss.iter().all(|l| l.at_alloc >= 1));
                let key = |l: &DeviceLoss| (l.device, l.at_alloc);
                prop_assert!(plan.device_loss.windows(2).all(|w| key(&w[0]) <= key(&w[1])));
            }
        }
    }
}
