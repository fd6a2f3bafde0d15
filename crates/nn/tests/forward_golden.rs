//! Bit-identity oracle for the f32 inference path: `Sequential::forward`
//! must reproduce, bit for bit, the outputs of the commit before `Dense`
//! cached packed panels — every pinned width at every batch `1..=33`.
//! See `golden/mod.rs` for what is pinned and how it was generated.

mod golden;

use golden::{digest, input, model, GOLDEN, MAX_BATCH};
use tinymlops_tensor::matmul::{with_isa_cap, Isa};

#[test]
fn forward_is_bit_identical_to_the_per_call_pack_forward() {
    let mut wrong = Vec::new();
    for (which, table) in GOLDEN.iter().enumerate() {
        let m = model(which);
        for batch in 1..=MAX_BATCH {
            if digest(&m.forward(&input(which, batch))) != table[batch - 1] {
                wrong.push((which, batch));
            }
        }
    }
    assert!(wrong.is_empty(), "(model, batch) off the golden: {wrong:?}");
}

/// The same tables under every kernel arm this host has: the portable
/// `mul_add` bodies, AVX2+FMA and AVX-512 give one set of bits.
#[test]
fn forward_is_bit_identical_under_every_isa_arm() {
    for isa in Isa::ALL.into_iter().filter(|&isa| isa <= Isa::detected()) {
        with_isa_cap(isa, forward_is_bit_identical_to_the_per_call_pack_forward);
    }
}

/// A model that has already served (panels warm) answers exactly like a
/// fresh one, in any batch order.
#[test]
fn forward_is_stable_across_repeated_and_reordered_batches() {
    for (which, table) in GOLDEN.iter().enumerate() {
        let m = model(which);
        for batch in (1..=MAX_BATCH).rev().chain([8, 1, 7]) {
            assert_eq!(
                digest(&m.forward(&input(which, batch))),
                table[batch - 1],
                "model {which} batch {batch}"
            );
        }
    }
}

/// Regenerates the tables in `golden/mod.rs` (run on the commit whose
/// forward is the reference): `cargo test -p tinymlops_nn --test
/// forward_golden -- --ignored --nocapture`.
#[test]
#[ignore = "prints the golden tables instead of checking them"]
fn print_forward_golden() {
    for which in 0..GOLDEN.len() {
        let m = model(which);
        println!("    [");
        for batch in 1..=MAX_BATCH {
            println!(
                "        {:#018x},",
                digest(&m.forward(&input(which, batch)))
            );
        }
        println!("    ],");
    }
}
