//! Tier-1 slice of `crates/nn/tests/forward_golden.rs`: the f32 forward
//! is bit-identical to the commit before `Dense` cached packed panels, at
//! the batch sizes the micro-batcher cuts most (1, 7, 8) and at the
//! largest pinned batch (two row slabs), on the `infer_serving` MLP and on
//! the model with K-block and column-panel remainders. The full table
//! (three models × batch 1..=33) runs under `cargo test --workspace`.

#[path = "../crates/nn/tests/golden/mod.rs"]
mod golden;

use golden::{digest, input, model, GOLDEN, MAX_BATCH};
use tinymlops_tensor::matmul::{with_isa_cap, Isa};

#[test]
fn f32_forward_is_bit_identical_to_the_per_call_pack_forward() {
    for which in [0, 2] {
        let m = model(which);
        for batch in [8, 1, 7, MAX_BATCH] {
            assert_eq!(
                digest(&m.forward(&input(which, batch))),
                GOLDEN[which][batch - 1],
                "model {which} batch {batch}: forward arithmetic changed"
            );
        }
    }
}

/// The same slice under every kernel arm this host has (portable,
/// AVX2+FMA, AVX-512): the host's widest arm is not the only one pinned.
#[test]
fn f32_forward_is_bit_identical_under_every_isa_arm() {
    for isa in Isa::ALL.into_iter().filter(|&isa| isa <= Isa::detected()) {
        with_isa_cap(
            isa,
            f32_forward_is_bit_identical_to_the_per_call_pack_forward,
        );
    }
}
