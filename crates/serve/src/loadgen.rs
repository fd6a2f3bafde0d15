//! Deterministic open-loop load generation.
//!
//! Tenants issue Poisson request streams (exponential inter-arrivals) at
//! configured rates against configured model families. The merged stream
//! is a pure function of the seed, so any run — 100 requests or 100k —
//! replays identically.
//!
//! One generator draws every stream ([`LoadPlan::generate_shaped`]):
//! the homogeneous one ([`LoadPlan::generate`]) and the non-homogeneous
//! [`ArrivalPattern`]s — diurnal curves, periodic bursts, a one-off
//! flash crowd, and an adversarial quota-exhaust pattern — which are
//! Lewis–Shedler thinnings of a homogeneous process at the pattern's
//! peak rate, so they stay pure functions of the seed too.

use crate::request::{Request, TenantId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Time-varying arrival shape for [`LoadPlan::generate_shaped`].
///
/// Every pattern is a deterministic rate-multiplier curve `m(t)` applied
/// to each tenant's contracted `rate_rps`. Arrivals are drawn by
/// Lewis–Shedler thinning: candidates come from a homogeneous Poisson
/// process at the pattern's *peak* rate and each is accepted with
/// probability `m(t) / peak`, which yields an exact non-homogeneous
/// Poisson process while remaining a pure function of the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalPattern {
    /// Homogeneous Poisson at the contracted rate — the stream
    /// [`LoadPlan::generate`] draws. Nothing is thinned, so no thinning
    /// variate is drawn.
    Poisson,
    /// Sinusoidal day/night curve:
    /// `m(t) = 1 + amplitude · sin(2πt / period_us)`.
    /// `amplitude` is clamped to `[0, 1]` so the rate never goes
    /// negative; the time-average rate stays the contracted rate.
    Diurnal {
        /// One full day/night cycle, microseconds.
        period_us: u64,
        /// Peak deviation from the contracted rate, `0..=1`.
        amplitude: f64,
    },
    /// Periodic bursts: `m(t) = height` during the first `width_us` of
    /// every `period_us` window, `1` elsewhere.
    Bursts {
        /// Burst repetition period, microseconds.
        period_us: u64,
        /// Burst width, microseconds (clamped to the period).
        width_us: u64,
        /// Rate multiplier inside a burst (≥ 1 to be a burst).
        height: f64,
    },
    /// One flash crowd: baseline `1`, linear ramp to `peak` over
    /// `ramp_us` starting at `at_us`, hold at `peak` for `hold_us`,
    /// linear decay back to baseline over `decay_us`.
    FlashCrowd {
        /// When the crowd starts arriving, microseconds.
        at_us: u64,
        /// Ramp-up duration, microseconds.
        ramp_us: u64,
        /// Time spent at the peak, microseconds.
        hold_us: u64,
        /// Decay-back duration, microseconds.
        decay_us: u64,
        /// Rate multiplier at the top of the crowd.
        peak: f64,
    },
    /// Adversarial quota burn: each tenant offers `multiplier ×` its
    /// contracted rate from `t = 0` until its *expected* cumulative
    /// volume reaches `prepaid_queries`, then keeps hammering at the
    /// contracted rate — so virtually every post-exhaustion arrival is
    /// a guaranteed `QuotaExhausted` denial, stressing the gateway's
    /// cheapest shed path and the meter's audit chain.
    QuotaExhaust {
        /// Burn-phase rate multiplier (≥ 1).
        multiplier: f64,
    },
}

impl ArrivalPattern {
    /// Peak of `m(t)` over the run — the homogeneous rate the thinning
    /// candidates are drawn at. Always ≥ a small positive floor.
    fn peak_multiplier(&self) -> f64 {
        let peak = match *self {
            ArrivalPattern::Poisson => 1.0,
            ArrivalPattern::Diurnal { amplitude, .. } => 1.0 + amplitude.clamp(0.0, 1.0),
            ArrivalPattern::Bursts { height, .. } => height.max(1.0),
            ArrivalPattern::FlashCrowd { peak, .. } => peak.max(1.0),
            ArrivalPattern::QuotaExhaust { multiplier } => multiplier.max(1.0),
        };
        peak.max(f64::EPSILON)
    }

    /// Rate multiplier at simulated time `t_us` for `tenant` (only
    /// `QuotaExhaust` is tenant-dependent: its burn window ends when the
    /// tenant's prepaid volume is expected spent).
    fn multiplier(&self, t_us: f64, tenant: &TenantSpec) -> f64 {
        match *self {
            ArrivalPattern::Poisson => 1.0,
            ArrivalPattern::Diurnal {
                period_us,
                amplitude,
            } => {
                if period_us == 0 {
                    return 1.0;
                }
                let amplitude = amplitude.clamp(0.0, 1.0);
                let phase = std::f64::consts::TAU * (t_us / period_us as f64);
                1.0 + amplitude * phase.sin()
            }
            ArrivalPattern::Bursts {
                period_us,
                width_us,
                height,
            } => {
                if period_us == 0 {
                    return 1.0;
                }
                let into = t_us % period_us as f64;
                if into < width_us.min(period_us) as f64 {
                    height.max(1.0)
                } else {
                    1.0
                }
            }
            ArrivalPattern::FlashCrowd {
                at_us,
                ramp_us,
                hold_us,
                decay_us,
                peak,
            } => {
                let peak = peak.max(1.0);
                let start = at_us as f64;
                let top = start + ramp_us as f64;
                let fall = top + hold_us as f64;
                let end = fall + decay_us as f64;
                if t_us < start || t_us >= end {
                    1.0
                } else if t_us < top {
                    // Linear ramp; ramp_us > 0 here since t ∈ [start, top).
                    1.0 + (peak - 1.0) * ((t_us - start) / ramp_us as f64)
                } else if t_us < fall {
                    peak
                } else {
                    peak - (peak - 1.0) * ((t_us - fall) / decay_us as f64)
                }
            }
            ArrivalPattern::QuotaExhaust { multiplier } => {
                let multiplier = multiplier.max(1.0);
                // Expected burn window: prepaid volume at multiplier× rate.
                let burn_rps = tenant.rate_rps * multiplier;
                let window_us = if burn_rps > 0.0 {
                    tenant.prepaid_queries as f64 / burn_rps * 1e6
                } else {
                    0.0
                };
                if t_us < window_us {
                    multiplier
                } else {
                    1.0
                }
            }
        }
    }
}

/// One tenant's traffic contract.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant id.
    pub id: TenantId,
    /// Mean request rate, requests per simulated second.
    pub rate_rps: f64,
    /// Model family this tenant queries.
    pub model: String,
    /// Prepaid queries purchased up front.
    pub prepaid_queries: u64,
    /// Per-request latency SLO in microseconds.
    pub deadline_us: u64,
}

/// A whole run's traffic description.
#[derive(Debug, Clone)]
pub struct LoadPlan {
    /// The tenants and their rates.
    pub tenants: Vec<TenantSpec>,
    /// Stream duration in simulated microseconds.
    pub duration_us: u64,
    /// Master seed.
    pub seed: u64,
    /// Feature dimension to synthesize per request (0 = no payload; the
    /// sim then uses the virtual cost model only).
    pub feature_dim: usize,
}

impl LoadPlan {
    /// Materialize the merged, arrival-ordered request stream:
    /// [`LoadPlan::generate_shaped`] under [`ArrivalPattern::Poisson`].
    #[must_use]
    pub fn generate(&self) -> Vec<Request> {
        self.generate_shaped(&ArrivalPattern::Poisson)
    }

    /// Materialize a *shaped* (non-homogeneous Poisson) request stream.
    ///
    /// Candidates are drawn per tenant at the pattern's peak rate and
    /// thinned by `m(t) / peak` (Lewis–Shedler), so the accepted stream
    /// is an exact non-homogeneous Poisson process with intensity
    /// `rate_rps · m(t)`. Deterministic: same plan + pattern ⇒ identical
    /// stream.
    #[must_use]
    pub fn generate_shaped(&self, pattern: &ArrivalPattern) -> Vec<Request> {
        let peak = pattern.peak_multiplier();
        // The homogeneous pattern keeps every candidate, and must keep it
        // *without* drawing the thinning variate: one extra draw per
        // candidate would shift everything the tenant's generator yields
        // after it, and every seeded stream in the repository (goldens,
        // experiments, benchmark workloads) is pinned to the sequence
        // without it.
        let thinned = !matches!(pattern, ArrivalPattern::Poisson);
        let mut requests = Vec::new();
        for (ti, tenant) in self.tenants.iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(self.seed ^ (0x9e37_79b9 * (ti as u64 + 1)));
            if tenant.rate_rps <= 0.0 {
                continue;
            }
            let mean_gap_us = 1e6 / (tenant.rate_rps * peak);
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival.
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                t += -u.ln() * mean_gap_us;
                if t >= self.duration_us as f64 {
                    break;
                }
                // Thin the candidate: keep with probability m(t)/peak.
                if thinned && rng.gen_range(0.0..1.0) >= pattern.multiplier(t, tenant) / peak {
                    continue;
                }
                let features = if self.feature_dim == 0 {
                    None
                } else {
                    Some(
                        (0..self.feature_dim)
                            .map(|_| rng.gen_range(-1.0f32..1.0))
                            .collect(),
                    )
                };
                requests.push(Request {
                    id: 0, // assigned after the merge sort
                    tenant: tenant.id,
                    model: tenant.model.clone(),
                    arrival_us: t as u64,
                    deadline_us: tenant.deadline_us,
                    features,
                });
            }
        }
        // Merge: order by (arrival, tenant) — deterministic even when two
        // tenants collide on a microsecond.
        requests.sort_by_key(|r| (r.arrival_us, r.tenant));
        for (i, r) in requests.iter_mut().enumerate() {
            r.id = i as u64;
        }
        requests
    }

    /// Total offered load in requests per second.
    #[must_use]
    pub fn offered_rps(&self) -> f64 {
        self.tenants.iter().map(|t| t.rate_rps).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> LoadPlan {
        LoadPlan {
            tenants: vec![
                TenantSpec {
                    id: 1,
                    rate_rps: 500.0,
                    model: "a".into(),
                    prepaid_queries: 10_000,
                    deadline_us: 50_000,
                },
                TenantSpec {
                    id: 2,
                    rate_rps: 250.0,
                    model: "b".into(),
                    prepaid_queries: 10_000,
                    deadline_us: 50_000,
                },
            ],
            duration_us: 2_000_000,
            seed,
            feature_dim: 0,
        }
    }

    #[test]
    fn same_seed_same_stream() {
        let a = plan(7).generate();
        let b = plan(7).generate();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.arrival_us, x.tenant, x.id),
                (y.arrival_us, y.tenant, y.id)
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = plan(7).generate();
        let b = plan(8).generate();
        assert_ne!(
            a.iter().map(|r| r.arrival_us).collect::<Vec<_>>(),
            b.iter().map(|r| r.arrival_us).collect::<Vec<_>>()
        );
    }

    #[test]
    fn rate_is_roughly_honored() {
        let stream = plan(3).generate();
        // 750 rps over 2 s → ~1500 requests; Poisson noise ±20%.
        assert!(
            (1200..1800).contains(&stream.len()),
            "got {} requests",
            stream.len()
        );
        let t1 = stream.iter().filter(|r| r.tenant == 1).count();
        let t2 = stream.iter().filter(|r| r.tenant == 2).count();
        assert!(t1 > t2, "tenant 1 offers twice the rate");
    }

    #[test]
    fn arrivals_are_sorted_and_ids_monotone() {
        let stream = plan(5).generate();
        for w in stream.windows(2) {
            assert!(w[0].arrival_us <= w[1].arrival_us);
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn features_generated_when_requested() {
        let mut p = plan(1);
        p.feature_dim = 16;
        p.duration_us = 100_000;
        let stream = p.generate();
        assert!(!stream.is_empty());
        assert!(stream
            .iter()
            .all(|r| r.features.as_ref().map(Vec::len) == Some(16)));
    }

    // ---- shaped (non-homogeneous) streams -------------------------------

    fn count_in(stream: &[Request], lo_us: u64, hi_us: u64) -> usize {
        stream
            .iter()
            .filter(|r| (lo_us..hi_us).contains(&r.arrival_us))
            .count()
    }

    #[test]
    fn shaped_poisson_is_byte_identical_to_generate() {
        let mut p = plan(7);
        p.feature_dim = 4;
        let a = p.generate();
        let b = p.generate_shaped(&ArrivalPattern::Poisson);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.id, x.tenant, x.arrival_us),
                (y.id, y.tenant, y.arrival_us)
            );
            assert_eq!(x.features, y.features);
        }
    }

    #[test]
    fn shaped_same_seed_same_stream() {
        let pat = ArrivalPattern::Diurnal {
            period_us: 1_000_000,
            amplitude: 0.8,
        };
        let a = plan(11).generate_shaped(&pat);
        let b = plan(11).generate_shaped(&pat);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(
                (x.arrival_us, x.tenant, x.id),
                (y.arrival_us, y.tenant, y.id)
            );
        }
        let c = plan(12).generate_shaped(&pat);
        assert_ne!(
            a.iter().map(|r| r.arrival_us).collect::<Vec<_>>(),
            c.iter().map(|r| r.arrival_us).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shaped_arrivals_sorted_and_ids_monotone() {
        let pat = ArrivalPattern::Bursts {
            period_us: 200_000,
            width_us: 20_000,
            height: 8.0,
        };
        let stream = plan(5).generate_shaped(&pat);
        assert!(!stream.is_empty());
        for w in stream.windows(2) {
            assert!(w[0].arrival_us <= w[1].arrival_us);
            assert!(w[0].id < w[1].id);
        }
    }

    #[test]
    fn diurnal_day_outweighs_night() {
        // One full cycle over the 2 s run: sin > 0 on the first half
        // (day), < 0 on the second (night).
        let p = plan(3);
        let stream = p.generate_shaped(&ArrivalPattern::Diurnal {
            period_us: p.duration_us,
            amplitude: 0.9,
        });
        let day = count_in(&stream, 0, p.duration_us / 2);
        let night = count_in(&stream, p.duration_us / 2, p.duration_us);
        assert!(
            day > night * 2,
            "day {day} should dwarf night {night} at amplitude 0.9"
        );
    }

    #[test]
    fn bursts_concentrate_arrivals_in_windows() {
        // 10× bursts over 10% of each period: expected in-window share
        // = 1.0/(1.0+0.9) ≈ 53% of arrivals in 10% of the time.
        let p = plan(9);
        let pat = ArrivalPattern::Bursts {
            period_us: 200_000,
            width_us: 20_000,
            height: 10.0,
        };
        let stream = p.generate_shaped(&pat);
        let in_burst = stream
            .iter()
            .filter(|r| r.arrival_us % 200_000 < 20_000)
            .count();
        let share = in_burst as f64 / stream.len() as f64;
        assert!(
            share > 0.40,
            "expected ~53% of arrivals inside bursts, got {share:.2}"
        );
    }

    #[test]
    fn flash_crowd_spikes_at_the_epicenter() {
        let p = plan(13);
        let pat = ArrivalPattern::FlashCrowd {
            at_us: 800_000,
            ramp_us: 100_000,
            hold_us: 200_000,
            decay_us: 100_000,
            peak: 12.0,
        };
        let stream = p.generate_shaped(&pat);
        // Density during the hold vs an equal-width baseline window.
        let hold = count_in(&stream, 900_000, 1_100_000);
        let baseline = count_in(&stream, 200_000, 400_000);
        assert!(
            hold > baseline * 5,
            "hold window {hold} should dwarf baseline {baseline} at peak 12×"
        );
        // Outside the crowd the stream is still flowing.
        assert!(baseline > 0);
    }

    #[test]
    fn quota_exhaust_front_loads_the_prepaid_volume() {
        let mut p = plan(21);
        // Tenant 1: 500 rps, 1 000 prepaid, 10× burn ⇒ expected burn
        // window 1 000 / 5 000 rps = 200 ms.
        p.tenants[0].prepaid_queries = 1_000;
        p.tenants.truncate(1);
        let stream = p.generate_shaped(&ArrivalPattern::QuotaExhaust { multiplier: 10.0 });
        let burned = count_in(&stream, 0, 200_000);
        assert!(
            (800..1200).contains(&burned),
            "≈1000 arrivals expected inside the 200 ms burn window, got {burned}"
        );
        // After the burn the tenant falls back to its contracted rate:
        // 500 rps over the remaining 1.8 s ≈ 900 arrivals.
        let after = count_in(&stream, 200_000, p.duration_us);
        assert!(
            (650..1150).contains(&after),
            "≈900 post-burn arrivals expected, got {after}"
        );
    }

    #[test]
    fn degenerate_pattern_params_fall_back_to_baseline() {
        let p = plan(4);
        let zero_period = p.generate_shaped(&ArrivalPattern::Diurnal {
            period_us: 0,
            amplitude: 0.5,
        });
        // m(t) ≡ 1 but peak = 1.5, so thinning keeps 2/3 of candidates
        // drawn at 1.5× — the *rate* matches baseline even though the
        // stream differs. 750 rps × 2 s ≈ 1500.
        assert!(
            (1200..1800).contains(&zero_period.len()),
            "got {} requests",
            zero_period.len()
        );
    }
}
