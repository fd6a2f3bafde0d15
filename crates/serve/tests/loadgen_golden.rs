//! Golden stream digests for the open-loop generator, generated on the
//! commit *before* `LoadPlan::generate` and `LoadPlan::generate_shaped`
//! became one arrival-drawing loop: every pattern × seed × feature
//! dimension must keep producing the same requests — ids, tenants,
//! arrival instants, deadlines and feature bits. A stream that moves
//! here moves every seeded experiment and benchmark workload built on it.

use tinymlops_serve::{ArrivalPattern, LoadPlan, Request, TenantSpec};

fn plan(seed: u64, feature_dim: usize) -> LoadPlan {
    LoadPlan {
        tenants: vec![
            TenantSpec {
                id: 1,
                rate_rps: 900.0,
                model: "kws".into(),
                prepaid_queries: 150,
                deadline_us: 50_000,
            },
            TenantSpec {
                id: 2,
                rate_rps: 350.0,
                model: "vision".into(),
                prepaid_queries: 10_000,
                deadline_us: 80_000,
            },
            // A silent tenant still consumes its slot in the seed walk.
            TenantSpec {
                id: 3,
                rate_rps: 0.0,
                model: "kws".into(),
                prepaid_queries: 10,
                deadline_us: 10_000,
            },
            TenantSpec {
                id: 4,
                rate_rps: 120.0,
                model: "kws".into(),
                prepaid_queries: 10_000,
                deadline_us: 20_000,
            },
        ],
        duration_us: 600_000,
        seed,
        feature_dim,
    }
}

fn patterns() -> [(&'static str, ArrivalPattern); 5] {
    [
        ("poisson", ArrivalPattern::Poisson),
        (
            "diurnal",
            ArrivalPattern::Diurnal {
                period_us: 300_000,
                amplitude: 0.7,
            },
        ),
        (
            "bursts",
            ArrivalPattern::Bursts {
                period_us: 150_000,
                width_us: 20_000,
                height: 6.0,
            },
        ),
        (
            "flash-crowd",
            ArrivalPattern::FlashCrowd {
                at_us: 200_000,
                ramp_us: 50_000,
                hold_us: 100_000,
                decay_us: 80_000,
                peak: 5.0,
            },
        ),
        (
            "quota-exhaust",
            ArrivalPattern::QuotaExhaust { multiplier: 4.0 },
        ),
    ]
}

/// FNV-1a over every field of every request, feature bits included.
fn digest(stream: &[Request]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in stream {
        eat(&r.id.to_le_bytes());
        eat(&r.tenant.to_le_bytes());
        eat(r.model.as_bytes());
        eat(&r.arrival_us.to_le_bytes());
        eat(&r.deadline_us.to_le_bytes());
        match &r.features {
            None => eat(&[0]),
            Some(f) => {
                eat(&[1]);
                for x in f {
                    eat(&x.to_bits().to_le_bytes());
                }
            }
        }
    }
    h
}

/// `(seed, feature_dim)` → `generate()` digest, then one digest per
/// pattern in [`patterns`] order.
const GOLDEN: [((u64, usize), u64, [u64; 5]); 4] = [
    (
        (7, 0),
        0xd15b_7673_4771_7a66,
        [
            0xd15b_7673_4771_7a66,
            0x6b51_71f1_cea8_221a,
            0xfc2b_5df0_dc48_d245,
            0x86cd_1a3f_e257_1207,
            0x13fd_1c7f_b538_aeac,
        ],
    ),
    (
        (7, 4),
        0x2de9_6862_350b_7d46,
        [
            0x2de9_6862_350b_7d46,
            0x3fd9_0bd3_02f2_cd03,
            0x95bc_eeaa_5f8b_d64a,
            0x567a_f45c_bd7c_237b,
            0xc496_269f_b3fc_9926,
        ],
    ),
    (
        (4242, 0),
        0x766a_2b08_f207_c4a3,
        [
            0x766a_2b08_f207_c4a3,
            0xa48c_2b89_7730_4290,
            0x242d_e31b_4882_58d3,
            0x803b_b30a_dc8d_c9e0,
            0xfb68_a72b_5151_4ac0,
        ],
    ),
    (
        (4242, 4),
        0x7ad3_1133_b0ad_b337,
        [
            0x7ad3_1133_b0ad_b337,
            0x0667_3210_277d_faad,
            0x07c4_becd_53aa_e030,
            0x9c5d_63dc_7bd8_bfc5,
            0xadac_e12a_23af_5a4e,
        ],
    ),
];

#[test]
fn every_pattern_seed_and_feature_dim_draws_the_pinned_stream() {
    for ((seed, feature_dim), plain, shaped) in GOLDEN {
        let p = plan(seed, feature_dim);
        let stream = p.generate();
        assert!(stream.len() > 400, "a real stream: {}", stream.len());
        assert!(stream.iter().all(|r| r.tenant != 3), "rate 0 is silent");
        assert_eq!(
            digest(&stream),
            plain,
            "generate() seed {seed} dim {feature_dim}: {:#018x}",
            digest(&stream)
        );
        for ((name, pattern), want) in patterns().into_iter().zip(shaped) {
            let stream = p.generate_shaped(&pattern);
            assert_eq!(
                digest(&stream),
                want,
                "{name} seed {seed} dim {feature_dim}: {:#018x}",
                digest(&stream)
            );
        }
        assert_eq!(plain, shaped[0], "shaped Poisson is generate()");
    }
}
