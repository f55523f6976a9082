//! Deterministic fault injection for the simulated network.
//!
//! The paper's premise is that the tuner keeps picking the *right*
//! algorithm as runtime conditions shift; this module supplies the shifted
//! conditions. A [`FaultConfig`] describes a degraded cluster — control and
//! eager messages that get lost or duplicated, per-delivery delay jitter,
//! straggler ranks whose compute runs slow, and periodic NIC "brownout"
//! windows during which every delivery pays an extra penalty. A
//! [`FaultModel`] instantiates that description for one `World`, scaled by
//! the platform's [`netmodel::FaultProfile`] (commodity Ethernet is far
//! lossier than a BlueGene torus) and driven exclusively by
//! [`simcore::rng::SplitMix64`] so identical seeds give byte-identical
//! timelines.
//!
//! Two hard guarantees mirror `simcore::trace`:
//!
//! * **Off is free and byte-identical.** When the configuration is off
//!   (the default), `World` holds no model at all — every injection site is
//!   one `Option::is_none` branch, no RNG is consumed, no extra events are
//!   scheduled, and figure output is bit-for-bit what an unfaulted build
//!   produces (enforced by `scripts/verify.sh`).
//! * **Faults never hang the event loop.** Lost rendezvous handshakes are
//!   recovered by timeout-driven retransmission with exponential backoff
//!   (see `World`), and an exhausted retry budget surfaces as the typed
//!   `SimError::Timeout` instead of a deadlocked queue.
//!
//! Configuration reaches a `World` through the `NBC_FAULTS` environment
//! variable (read once per process), a programmatic [`set_override`] (the
//! `--faults` CLI flag, tests), or directly via `World::set_faults`.

use netmodel::FaultProfile;
use simcore::rng::SplitMix64;
use simcore::SimTime;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, OnceLock};

/// Env var selecting the process-wide fault configuration. Accepts the same
/// specs as [`FaultConfig::parse`]: unset/`""`/`"off"`/`"0"`/`"false"`
/// disable; `"light[:SEED]"` / `"heavy[:SEED]"` pick presets; a
/// comma-separated `k=v` list sets individual knobs.
pub const ENV_VAR: &str = "NBC_FAULTS";

/// Complete description of an injected fault regime. All rates are
/// platform-neutral; a platform's [`FaultProfile`] scales them at
/// [`FaultModel`] construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Master seed for every fault decision in a run.
    pub seed: u64,
    /// Probability that a control message (RTS/CTS) or eager payload is
    /// lost in flight.
    pub drop_prob: f64,
    /// Probability that a delivered control/eager message is duplicated.
    pub dup_prob: f64,
    /// Relative delivery-delay jitter: each delivery is delayed by up to
    /// `jitter × flight_time`, uniformly.
    pub jitter: f64,
    /// Fraction of ranks that are stragglers.
    pub slow_frac: f64,
    /// Compute-duration multiplier applied to straggler ranks.
    pub slow_factor: f64,
    /// Length of each periodic NIC brownout window (`ZERO` disables).
    pub brownout_len: SimTime,
    /// Period at which brownout windows recur.
    pub brownout_period: SimTime,
    /// Extra delivery delay paid while a brownout window is active.
    pub brownout_delay: SimTime,
    /// Base rendezvous/eager retransmit timeout; doubles on every retry.
    pub retry_timeout: SimTime,
    /// Retransmissions allowed before the send fails with
    /// `SimError::Timeout`.
    pub max_retries: u32,
    /// Arm the retry/timeout machinery even when every perturbation rate
    /// is zero (timeout-only experiments).
    pub arm_timeouts: bool,
}

impl FaultConfig {
    /// The do-nothing configuration (the default).
    pub fn off() -> FaultConfig {
        FaultConfig {
            seed: 0,
            drop_prob: 0.0,
            dup_prob: 0.0,
            jitter: 0.0,
            slow_frac: 0.0,
            slow_factor: 1.0,
            brownout_len: SimTime::ZERO,
            brownout_period: SimTime::ZERO,
            brownout_delay: SimTime::ZERO,
            retry_timeout: SimTime::from_millis(2),
            max_retries: 6,
            arm_timeouts: false,
        }
    }

    /// Mild degradation: rare drops, small jitter, a few 1.3× stragglers.
    pub fn light(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_prob: 0.002,
            dup_prob: 0.002,
            jitter: 0.05,
            slow_frac: 0.1,
            slow_factor: 1.3,
            arm_timeouts: true,
            ..FaultConfig::off()
        }
    }

    /// Heavy degradation: percent-level loss, fat jitter tails, a quarter
    /// of the ranks running at half speed, periodic NIC brownouts.
    pub fn heavy(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            drop_prob: 0.02,
            dup_prob: 0.01,
            jitter: 0.2,
            slow_frac: 0.25,
            slow_factor: 2.0,
            brownout_len: SimTime::from_millis(1),
            brownout_period: SimTime::from_millis(10),
            brownout_delay: SimTime::from_micros(200),
            arm_timeouts: true,
            ..FaultConfig::off()
        }
    }

    /// True when this configuration perturbs nothing and arms nothing — a
    /// `World` built under it carries no fault model at all.
    pub fn is_off(&self) -> bool {
        self.drop_prob == 0.0
            && self.dup_prob == 0.0
            && self.jitter == 0.0
            && (self.slow_frac == 0.0 || self.slow_factor == 1.0)
            && self.brownout_len == SimTime::ZERO
            && !self.arm_timeouts
    }

    /// Parse a spec string (the `NBC_FAULTS` / `--faults` syntax):
    ///
    /// * `off` (also `0`, `false`, empty) — no faults;
    /// * `light` / `heavy`, optionally `light:SEED`;
    /// * a comma-separated `k=v` list over an `off` base (plus an optional
    ///   leading preset): `seed=N`, `drop=P`, `dup=P`, `jitter=F`,
    ///   `slow=FRACxFACTOR`, `timeout_us=N`, `retries=N`, `brownout_us=N`,
    ///   `brownout_period_us=N`, `brownout_delay_us=N`.
    ///
    /// Any `k=v` list arms the timeout machinery.
    pub fn parse(spec: &str) -> Result<FaultConfig, String> {
        fn preset(word: &str) -> Option<fn(u64) -> FaultConfig> {
            match word {
                "light" => Some(FaultConfig::light),
                "heavy" => Some(FaultConfig::heavy),
                _ => None,
            }
        }
        let spec = spec.trim();
        if matches!(spec, "" | "off" | "0" | "false") {
            return Ok(FaultConfig::off());
        }
        // Bare preset, optionally with a seed: "light", "heavy:1234".
        if let Some(make) = preset(spec) {
            return Ok(make(1));
        }
        if let Some((word, seed)) = spec.split_once(':') {
            if let Some(make) = preset(word) {
                let seed: u64 = seed
                    .parse()
                    .map_err(|_| format!("bad seed in fault spec '{spec}'"))?;
                return Ok(make(seed));
            }
        }
        // k=v list, optionally starting from a preset token.
        let mut cfg = FaultConfig {
            arm_timeouts: true,
            ..FaultConfig::off()
        };
        for tok in spec.split(',') {
            let tok = tok.trim();
            if tok.is_empty() {
                continue;
            }
            if let Some(make) = preset(tok) {
                cfg = make(cfg.seed.max(1));
                continue;
            }
            let (k, v) = tok
                .split_once('=')
                .ok_or_else(|| format!("expected k=v, got '{tok}'"))?;
            let fval = || -> Result<f64, String> {
                v.parse::<f64>()
                    .map_err(|_| format!("bad number '{v}' for '{k}'"))
            };
            let uval = || -> Result<u64, String> {
                v.parse::<u64>()
                    .map_err(|_| format!("bad integer '{v}' for '{k}'"))
            };
            match k {
                "seed" => cfg.seed = uval()?,
                "drop" => cfg.drop_prob = fval()?,
                "dup" => cfg.dup_prob = fval()?,
                "jitter" => cfg.jitter = fval()?,
                "slow" => {
                    let (frac, factor) = v
                        .split_once('x')
                        .ok_or_else(|| format!("slow wants FRACxFACTOR, got '{v}'"))?;
                    cfg.slow_frac = frac
                        .parse()
                        .map_err(|_| format!("bad slow fraction '{frac}'"))?;
                    cfg.slow_factor = factor
                        .parse()
                        .map_err(|_| format!("bad slow factor '{factor}'"))?;
                }
                "timeout_us" => cfg.retry_timeout = SimTime::from_micros(uval()?),
                "retries" => cfg.max_retries = uval()? as u32,
                "brownout_us" => cfg.brownout_len = SimTime::from_micros(uval()?),
                "brownout_period_us" => cfg.brownout_period = SimTime::from_micros(uval()?),
                "brownout_delay_us" => cfg.brownout_delay = SimTime::from_micros(uval()?),
                other => return Err(format!("unknown fault knob '{other}'")),
            }
        }
        if !(0.0..=1.0).contains(&cfg.drop_prob) || !(0.0..=1.0).contains(&cfg.dup_prob) {
            return Err("drop/dup probabilities must be in [0,1]".into());
        }
        if cfg.drop_prob >= 1.0 && cfg.max_retries == u32::MAX {
            return Err("drop=1 with unbounded retries would never terminate".into());
        }
        Ok(cfg)
    }

    /// Stable one-token description of this configuration, used to key
    /// memoized simulation results (a faulted run must never satisfy an
    /// unfaulted lookup, and vice versa).
    pub fn describe(&self) -> String {
        if self.is_off() {
            return "off".into();
        }
        format!(
            "s{}/d{}/u{}/j{}/sl{}x{}/b{}@{}+{}/t{}/r{}",
            self.seed,
            self.drop_prob,
            self.dup_prob,
            self.jitter,
            self.slow_frac,
            self.slow_factor,
            self.brownout_len.as_nanos(),
            self.brownout_period.as_nanos(),
            self.brownout_delay.as_nanos(),
            self.retry_timeout.as_nanos(),
            self.max_retries
        )
    }
}

// 0 = follow the environment, 1 = forced off; the forced-on config itself
// lives in OVERRIDE_CFG. (Same shape as simcore::trace's enable override.)
static OVERRIDE_STATE: AtomicU8 = AtomicU8::new(0);
static ENV_CFG: OnceLock<FaultConfig> = OnceLock::new();

fn override_cfg() -> &'static Mutex<Option<FaultConfig>> {
    static C: OnceLock<Mutex<Option<FaultConfig>>> = OnceLock::new();
    C.get_or_init(|| Mutex::new(None))
}

fn env_cfg() -> FaultConfig {
    *ENV_CFG.get_or_init(|| {
        let spec = std::env::var(ENV_VAR).unwrap_or_default();
        FaultConfig::parse(&spec).unwrap_or_else(|e| {
            eprintln!("{ENV_VAR}: {e}; faults disabled");
            FaultConfig::off()
        })
    })
}

/// Override the process-wide fault configuration: `Some(cfg)` forces `cfg`
/// (the `--faults` flag, ablation sweeps), `None` forces faults *off*
/// regardless of the environment. Use [`clear_override`] to follow
/// `NBC_FAULTS` again.
pub fn set_override(cfg: Option<FaultConfig>) {
    *override_cfg().lock().unwrap_or_else(|e| e.into_inner()) = cfg;
    OVERRIDE_STATE.store(1, Ordering::Relaxed);
}

/// Drop any [`set_override`] and follow the environment again.
pub fn clear_override() {
    OVERRIDE_STATE.store(0, Ordering::Relaxed);
    *override_cfg().lock().unwrap_or_else(|e| e.into_inner()) = None;
}

/// The fault configuration new `World`s pick up: the programmatic override
/// if one is set, else the `NBC_FAULTS` environment (read once), else off.
pub fn current() -> FaultConfig {
    if OVERRIDE_STATE.load(Ordering::Relaxed) == 1 {
        return override_cfg()
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .unwrap_or_else(FaultConfig::off);
    }
    env_cfg()
}

/// Per-`World` fault state: the effective (profile-scaled) rates, one
/// dedicated RNG stream *per rank*, and the straggler assignment. Built
/// once per world; `None` when the configuration is off.
///
/// Every draw is made by the rank acting at that moment (the sender of
/// the transmission being perturbed), from that rank's own stream, so a
/// rank's fault timeline depends only on the order of its own events, not
/// on how other ranks' events interleave with them.
#[derive(Debug)]
pub struct FaultModel {
    cfg: FaultConfig,
    rngs: Vec<SplitMix64>,
    /// Per-rank compute-duration multiplier (1.0 for healthy ranks).
    slow: Vec<f64>,
    drop_p: f64,
    dup_p: f64,
    jitter: f64,
    brownout_delay: SimTime,
}

impl FaultModel {
    /// Instantiate `cfg` for a world of `nranks` ranks on a platform with
    /// fault profile `profile`. Returns `None` when the configuration is
    /// off — callers hold an `Option<FaultModel>` and every injection site
    /// costs one branch in the healthy case.
    pub fn new(cfg: &FaultConfig, profile: &FaultProfile, nranks: usize) -> Option<FaultModel> {
        if cfg.is_off() {
            return None;
        }
        // Straggler assignment draws from a stream split off the master
        // seed so it is independent of per-delivery decisions.
        let mut pick = SplitMix64::split(cfg.seed, 0x57AA);
        let slow = (0..nranks)
            .map(|_| {
                if cfg.slow_frac > 0.0 && pick.next_f64() < cfg.slow_frac {
                    cfg.slow_factor
                } else {
                    1.0
                }
            })
            .collect();
        // Each rank's per-delivery decisions come from its own stream, split
        // off the master seed with a salt disjoint from the straggler
        // stream's 0x57AA.
        let rngs = (0..nranks)
            .map(|r| SplitMix64::split(cfg.seed, 0xFA17_0000 + r as u64))
            .collect();
        Some(FaultModel {
            cfg: *cfg,
            rngs,
            slow,
            drop_p: (cfg.drop_prob * profile.drop_scale).clamp(0.0, 1.0),
            dup_p: (cfg.dup_prob * profile.dup_scale).clamp(0.0, 1.0),
            jitter: (cfg.jitter * profile.jitter_scale).max(0.0),
            brownout_delay: cfg.brownout_delay.scale(profile.brownout_scale),
        })
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &FaultConfig {
        &self.cfg
    }

    /// Decide whether one control/eager delivery sent by `rank` is lost.
    pub fn drop_event(&mut self, rank: usize) -> bool {
        self.drop_p > 0.0 && self.rngs[rank].next_f64() < self.drop_p
    }

    /// Decide whether one delivered message sent by `rank` is duplicated.
    pub fn duplicate_event(&mut self, rank: usize) -> bool {
        self.dup_p > 0.0 && self.rngs[rank].next_f64() < self.dup_p
    }

    /// Relative jitter for one transmission by `rank`: a fraction of the
    /// flight time, drawn at send time and applied by the receiver once the
    /// actual flight time is known (`extra_delay`). Zero — and no RNG draw —
    /// when jitter is not configured.
    pub fn jitter_frac(&mut self, rank: usize) -> f64 {
        if self.jitter > 0.0 {
            self.jitter * self.rngs[rank].next_f64()
        } else {
            0.0
        }
    }

    /// Extra delay for a delivery that would arrive at `arrival` after being
    /// posted at `posted`, with the transmission's pre-drawn `jitter_frac`:
    /// proportional jitter plus the brownout penalty when the arrival lands
    /// in a window. Pure — consumes no randomness.
    pub fn extra_delay(&self, jfrac: f64, posted: SimTime, arrival: SimTime) -> SimTime {
        let mut extra = SimTime::ZERO;
        if jfrac > 0.0 {
            let flight = arrival.saturating_sub(posted);
            extra += flight.scale(jfrac);
        }
        if self.in_brownout(arrival) {
            extra += self.brownout_delay;
        }
        extra
    }

    /// Does simulated time `t` fall inside a NIC brownout window?
    pub fn in_brownout(&self, t: SimTime) -> bool {
        let len = self.cfg.brownout_len.as_nanos();
        let period = self.cfg.brownout_period.as_nanos();
        len > 0 && period > 0 && (t.as_nanos() % period) < len
    }

    /// Short lag separating a duplicate delivery from the original, drawn
    /// from the sending `rank`'s stream.
    pub fn dup_lag(&mut self, rank: usize) -> SimTime {
        SimTime::from_nanos(500 + (self.rngs[rank].next_f64() * 2_000.0) as u64)
    }

    /// Compute-duration multiplier for rank `r` (1.0 unless straggler).
    pub fn rank_factor(&self, r: usize) -> f64 {
        self.slow.get(r).copied().unwrap_or(1.0)
    }

    /// When a send first transmitted at attempt `attempts` should next be
    /// retried: exponential backoff, `retry_timeout × 2^attempts`, with the
    /// exponent capped so the deadline can never overflow simulated time.
    pub fn retry_deadline(&self, now: SimTime, attempts: u32) -> SimTime {
        let backoff = self.backoff(attempts);
        // Never reach SimTime::MAX — the event queue treats it as the
        // overflow sentinel and refuses to schedule there.
        SimTime::from_nanos(
            now.as_nanos()
                .saturating_add(backoff.as_nanos())
                .min(u64::MAX - 1),
        )
    }

    /// The backoff interval preceding retry number `attempts + 1`.
    pub fn backoff(&self, attempts: u32) -> SimTime {
        SimTime::from_nanos(
            self.cfg
                .retry_timeout
                .as_nanos()
                .saturating_mul(1u64 << attempts.min(16)),
        )
    }

    /// Retransmissions allowed before the send times out.
    pub fn max_retries(&self) -> u32 {
        self.cfg.max_retries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_is_off() {
        assert!(FaultConfig::off().is_off());
        assert!(FaultModel::new(&FaultConfig::off(), &FaultProfile::NEUTRAL, 8).is_none());
        assert_eq!(FaultConfig::off().describe(), "off");
    }

    #[test]
    fn presets_are_active() {
        assert!(!FaultConfig::light(1).is_off());
        assert!(!FaultConfig::heavy(1).is_off());
        assert_ne!(FaultConfig::light(1).describe(), "off");
    }

    #[test]
    fn parse_round_trips_presets_and_kv() {
        assert!(FaultConfig::parse("off").unwrap().is_off());
        assert!(FaultConfig::parse("").unwrap().is_off());
        assert_eq!(
            FaultConfig::parse("light:7").unwrap(),
            FaultConfig::light(7)
        );
        assert_eq!(FaultConfig::parse("heavy").unwrap(), FaultConfig::heavy(1));
        let cfg =
            FaultConfig::parse("seed=3,drop=0.5,slow=0.2x1.5,timeout_us=100,retries=2").unwrap();
        assert_eq!(cfg.seed, 3);
        assert_eq!(cfg.drop_prob, 0.5);
        assert_eq!(cfg.slow_frac, 0.2);
        assert_eq!(cfg.slow_factor, 1.5);
        assert_eq!(cfg.retry_timeout, SimTime::from_micros(100));
        assert_eq!(cfg.max_retries, 2);
        assert!(cfg.arm_timeouts);
        assert!(FaultConfig::parse("drop=2.0").is_err());
        assert!(FaultConfig::parse("nonsense").is_err());
        assert!(FaultConfig::parse("light:notanumber").is_err());
    }

    #[test]
    fn same_seed_same_decisions() {
        let cfg = FaultConfig::heavy(42);
        let mk = || FaultModel::new(&cfg, &FaultProfile::NEUTRAL, 16).unwrap();
        let (mut a, mut b) = (mk(), mk());
        for i in 0..200 {
            let rank = i % 16;
            assert_eq!(a.drop_event(rank), b.drop_event(rank));
            let (fa, fb) = (a.jitter_frac(rank), b.jitter_frac(rank));
            assert_eq!(fa, fb);
            assert_eq!(
                a.extra_delay(fa, SimTime::ZERO, SimTime::from_micros(10)),
                b.extra_delay(fb, SimTime::ZERO, SimTime::from_micros(10))
            );
        }
        assert_eq!(a.slow, b.slow);
    }

    #[test]
    fn rank_streams_are_independent() {
        // Draw order across ranks must not matter: rank 5's sequence is the
        // same whether or not other ranks drew in between.
        let cfg = FaultConfig::heavy(9);
        let mk = || FaultModel::new(&cfg, &FaultProfile::NEUTRAL, 8).unwrap();
        let (mut a, mut b) = (mk(), mk());
        let seq_a: Vec<bool> = (0..50).map(|_| a.drop_event(5)).collect();
        let seq_b: Vec<bool> = (0..50)
            .map(|i| {
                b.drop_event(i % 4); // interleave draws on other ranks
                b.drop_event(5)
            })
            .collect();
        assert_eq!(seq_a, seq_b);
    }

    #[test]
    fn profile_scales_rates() {
        let cfg = FaultConfig::light(1);
        let lossy = FaultProfile {
            drop_scale: 100.0,
            ..FaultProfile::NEUTRAL
        };
        let m = FaultModel::new(&cfg, &lossy, 4).unwrap();
        assert_eq!(m.drop_p, (0.002f64 * 100.0).clamp(0.0, 1.0));
    }

    #[test]
    fn backoff_doubles_and_saturates() {
        let cfg = FaultConfig {
            retry_timeout: SimTime::from_micros(100),
            arm_timeouts: true,
            ..FaultConfig::off()
        };
        let m = FaultModel::new(&cfg, &FaultProfile::NEUTRAL, 2).unwrap();
        assert_eq!(m.backoff(0), SimTime::from_micros(100));
        assert_eq!(m.backoff(1), SimTime::from_micros(200));
        assert_eq!(m.backoff(3), SimTime::from_micros(800));
        // Huge attempt counts must not overflow or hit the queue sentinel.
        let d = m.retry_deadline(SimTime::from_nanos(u64::MAX - 10), u32::MAX);
        assert!(d.as_nanos() < u64::MAX);
    }

    #[test]
    fn brownout_windows_repeat() {
        let cfg = FaultConfig {
            brownout_len: SimTime::from_micros(10),
            brownout_period: SimTime::from_micros(100),
            brownout_delay: SimTime::from_micros(5),
            arm_timeouts: true,
            ..FaultConfig::off()
        };
        let m = FaultModel::new(&cfg, &FaultProfile::NEUTRAL, 2).unwrap();
        assert!(m.in_brownout(SimTime::from_micros(5)));
        assert!(!m.in_brownout(SimTime::from_micros(50)));
        assert!(m.in_brownout(SimTime::from_micros(105)));
    }
}
