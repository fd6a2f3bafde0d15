//! Tier-1 slice of `crates/nn/tests/forward_golden.rs`: the f32 forward
//! is bit-identical to the commit before `Dense` cached packed panels, at
//! the batch sizes the micro-batcher cuts most (1, 7, 8) and at the
//! largest pinned batch (two row slabs), on the `infer_serving` MLP and on
//! the model with K-block and column-panel remainders. The full table
//! (three models × batch 1..=33) runs under `cargo test --workspace`.

#[path = "../crates/nn/tests/golden/mod.rs"]
mod golden;

use golden::{digest, input, model, GOLDEN, MAX_BATCH};

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
