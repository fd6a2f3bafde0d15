//! E10 — §V: "A disadvantage of this approach however is the increased
//! computational cost caused by decrypting the model before use … A
//! pragmatic solution is to evaluate only a part of the model on the
//! trusted environment."
//!
//! Encrypted-load overhead across model sizes, amortization over reuse,
//! and the partial-SPE latency curve. "plain load" is `from_bytes` on
//! bytes already in memory, "decrypt+load" is the device key, the AEAD
//! open and the same `from_bytes`, and "AEAD open" is the open alone.

use tinymlops_bench::{fmt, fmt_bytes, print_table, save_json, time_ms_n};
use tinymlops_ipp::encrypt::device_key;
use tinymlops_ipp::{decrypt_model, encrypt_model};
use tinymlops_nn::model::mlp;
use tinymlops_nn::Sequential;
use tinymlops_tensor::{Tensor, TensorRng};
use tinymlops_verify::Enclave;

fn main() {
    let seed = 10u64;
    println!("E10: model-encryption overhead & partial SPE (seed {seed})");
    let master = [10u8; 32];

    let mut rows = Vec::new();
    for (name, widths) in [
        ("tiny (64-32-10)", vec![64usize, 32, 10]),
        ("small (64-128-64-10)", vec![64, 128, 64, 10]),
        ("medium (256-256-128-10)", vec![256, 256, 128, 10]),
        ("large (512-512-256-10)", vec![512, 512, 256, 10]),
    ] {
        let model = mlp(&widths, &mut TensorRng::seed(seed));
        let bytes = model.to_bytes().expect("serialize");
        // Both arms end in the same `from_bytes`; only decryption differs.
        let plain_ms = time_ms_n(10, || {
            let _ = Sequential::from_bytes(&bytes).expect("deserialize");
        });
        let enc = encrypt_model(&model, &master, 1, [1u8; 12]);
        let key = device_key(&master, enc.device_id);
        let aad = enc.device_id.to_le_bytes();
        let open_ms = time_ms_n(10, || {
            let _ = enc.sealed.open(&key, &aad).expect("open");
        });
        let dec_ms = time_ms_n(10, || {
            let _ = decrypt_model(&enc, &master).expect("decrypt");
        });
        // Amortization: decrypt once, run 1000 inferences.
        let x = TensorRng::seed(seed).uniform(&[1, widths[0]], 0.0, 1.0);
        let inf_ms = time_ms_n(200, || {
            let _ = model.forward(&x);
        });
        // Unclamped: a negative value would be a measurement artefact, and
        // should show as one.
        let overhead_once = dec_ms - plain_ms;
        let amortized_pct = overhead_once / (overhead_once + 1000.0 * inf_ms) * 100.0;
        rows.push(vec![
            name.to_string(),
            fmt_bytes(bytes.len() as u64),
            fmt(plain_ms, 2),
            fmt(open_ms, 2),
            fmt(dec_ms, 2),
            fmt(dec_ms / plain_ms.max(1e-9), 2),
            fmt(amortized_pct, 3),
        ]);
    }
    let headers = [
        "model",
        "artifact",
        "plain load ms",
        "AEAD open ms",
        "decrypt+load ms",
        "ratio",
        "overhead % (1k inferences)",
    ];
    print_table("E10a encrypted model loading", &headers, &rows);
    save_json("e10_encryption", &headers, &rows);

    // Partial SPE: fraction of layers inside the enclave (slowdown 2x).
    let model = mlp(&[256, 256, 128, 10], &mut TensorRng::seed(seed));
    let enclave = Enclave::provision(&model, [1u8; 32], [2u8; 32], 2.0);
    // Per-layer baseline: measured share of a forward pass.
    let x = TensorRng::seed(seed).uniform(&[8, 256], 0.0, 1.0);
    let total_ms = time_ms_n(50, || {
        let _ = model.forward(&x);
    });
    let prof = tinymlops_nn::profile::profile(&model, &[256]);
    let total_macs: u64 = prof.iter().map(|l| l.macs).sum();
    let per_layer_ms: Vec<f64> = prof
        .iter()
        .map(|l| total_ms * l.macs as f64 / total_macs as f64)
        .collect();
    let mut spe_rows = Vec::new();
    for k in 0..=per_layer_ms.len() {
        let ms = enclave.partial_latency_ms(&per_layer_ms, k);
        spe_rows.push(vec![
            format!("{k}/{}", per_layer_ms.len()),
            fmt(ms, 3),
            fmt(ms / total_ms, 2),
        ]);
    }
    let spe_headers = ["layers in SPE", "latency ms", "vs plain"];
    print_table(
        "E10b partial-SPE evaluation (2x enclave slowdown)",
        &spe_headers,
        &spe_rows,
    );
    save_json("e10_partial_spe", &spe_headers, &spe_rows);

    // Full-enclave attestation demo at the MLCapsule-quoted 2x.
    let (_, report, enclave_ms) = enclave.infer(&x, 1, total_ms).expect("enclave run");
    Enclave::verify_report(&report, &[2u8; 32], &enclave.measurement(), 1).expect("attest");
    println!(
        "\nfull enclave: {:.3} ms vs {:.3} ms plain ({:.2}x — MLCapsule reports ~2x), \
         attestation verified.",
        enclave_ms,
        total_ms,
        enclave_ms / total_ms
    );
    let _ = Tensor::zeros(&[1]);
}
