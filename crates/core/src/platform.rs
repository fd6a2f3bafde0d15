//! The [`Platform`] hub: services and per-block operations.

use crate::PlatformError;
use parking_lot::Mutex;
use std::collections::HashMap;
use tinymlops_crypto::{Drbg, MerkleSigner};
use tinymlops_deploy::{select_variant, Capsule, CapsuleMeta, Pipeline, Requirements, Selection};
use tinymlops_device::{default_mix, Fleet, SimClock};
use tinymlops_ipp::{encrypt_model, EncryptedModel};
use tinymlops_meter::{QuotaManager, RateCard, SyncServer, Voucher, VoucherIssuer, VoucherLedger};
use tinymlops_nn::{Dataset, Sequential};
use tinymlops_observe::{KsDetector, Telemetry};
use tinymlops_registry::{ModelId, OptimizationPipeline, Registry, SemVer};

/// Platform construction parameters.
#[derive(Debug, Clone)]
pub struct PlatformConfig {
    /// Number of simulated devices.
    pub fleet_size: usize,
    /// Master seed (everything derives deterministically from it).
    pub seed: u64,
    /// Vendor signing-tree height (2^h capsule signatures available).
    pub signer_height: usize,
}

impl Default for PlatformConfig {
    fn default() -> Self {
        PlatformConfig {
            fleet_size: 100,
            seed: 0,
            signer_height: 6,
        }
    }
}

/// One model family as a serving node installs it.
struct LoadedFamily {
    /// The family's records at its latest base version, id order.
    records: Vec<tinymlops_registry::ModelRecord>,
    /// A real executable for every variant a router can pick, so
    /// feature-carrying requests exercise actual nn/quant kernels rather
    /// than only the virtual cost model.
    executables: Vec<(ModelId, tinymlops_serve::ExecModel)>,
}

/// The TinyMLOps platform hub (Figure 1).
pub struct Platform {
    /// Model store & versioning (§III-A).
    pub registry: Registry,
    /// The simulated device population (§IV).
    pub fleet: Fleet,
    /// Simulation clock.
    pub clock: SimClock,
    /// Fleet-wide telemetry sink (§III-B).
    pub telemetry: Telemetry,
    /// Metering backend (§III-C).
    pub sync_server: SyncServer,
    /// Voucher mint (§III-C).
    pub issuer: VoucherIssuer,
    /// Redemption ledger (§III-C).
    pub ledger: VoucherLedger,
    /// Rate card for billing.
    pub rates: RateCard,
    /// Per-device quota managers (device-side state, held here for the
    /// simulation).
    pub quotas: HashMap<u32, QuotaManager>,
    /// Per-device drift detectors (§III-B).
    pub drift: HashMap<u32, KsDetector>,
    vendor_signer: Mutex<MerkleSigner>,
    vendor_root: [u8; 32],
    master_key: [u8; 32],
    voucher_key: [u8; 32],
    seed: u64,
}

impl Platform {
    /// Bring up a platform with a generated fleet.
    #[must_use]
    pub fn new(cfg: &PlatformConfig) -> Self {
        let fleet = Fleet::generate(cfg.fleet_size, &default_mix(), cfg.seed);
        let mut key_rng = Drbg::from_u64(cfg.seed, b"platform-keys");
        let master_key = key_rng.array::<32>();
        let voucher_key = key_rng.array::<32>();
        let mut signer_rng = Drbg::from_u64(cfg.seed, b"vendor-signer");
        let signer = MerkleSigner::generate(&mut signer_rng, cfg.signer_height);
        let vendor_root = signer.public_key();
        Platform {
            registry: Registry::new(),
            fleet,
            clock: SimClock::new(),
            telemetry: Telemetry::new(),
            sync_server: SyncServer::new(),
            issuer: VoucherIssuer::new(voucher_key),
            ledger: VoucherLedger::new(),
            rates: RateCard::cloud_vision_like(),
            quotas: HashMap::new(),
            drift: HashMap::new(),
            vendor_signer: Mutex::new(signer),
            vendor_root,
            master_key,
            voucher_key,
            seed: cfg.seed,
        }
    }

    /// The vendor's capsule-signing public key (device trust anchor).
    #[must_use]
    pub fn vendor_root(&self) -> [u8; 32] {
        self.vendor_root
    }

    /// Master model-encryption key (vendor side only).
    #[must_use]
    pub fn master_key(&self) -> [u8; 32] {
        self.master_key
    }

    /// §III-A: publish a base model — registers it and auto-triggers the
    /// optimization pipeline over the full variant matrix.
    pub fn publish(
        &self,
        name: &str,
        model: &Sequential,
        version: SemVer,
        train: &Dataset,
        test: &Dataset,
    ) -> Result<(ModelId, Vec<ModelId>), PlatformError> {
        let pipeline = OptimizationPipeline::standard();
        let (base, variants) = pipeline.process_base(
            &self.registry,
            name,
            model,
            version,
            train,
            test,
            self.clock.now().0,
        )?;
        self.telemetry.incr("models.published");
        self.telemetry.add("models.variants", variants.len() as u64);
        Ok((base, variants))
    }

    /// §III-A: pick the best variant of `name` for every device in the
    /// fleet under `req`. Returns per-device selections (devices with no
    /// feasible variant yield `None` — §IV fragmentation in action).
    #[must_use]
    pub fn rollout_plan(&self, name: &str, req: &Requirements) -> Vec<Option<Selection>> {
        let base = self.registry.latest_base(name);
        let Some(base) = base else {
            return self.fleet.devices.iter().map(|_| None).collect();
        };
        let mut family = self.registry.family_at(name, base.version);
        family.sort_by_key(|r| r.id);
        self.fleet
            .par_map(|device| select_variant(&family, device, req).ok())
    }

    /// §IV: package a registered model into a signed capsule.
    pub fn package(
        &self,
        model_id: ModelId,
        pipeline: &Pipeline,
        target: &str,
    ) -> Result<Capsule, PlatformError> {
        let record = self.registry.get(model_id)?;
        let bytes = self.registry.artifact(model_id)?;
        let meta = CapsuleMeta {
            name: record.name.clone(),
            version: record.version.to_string(),
            scheme: record.format.name(),
            target: target.to_string(),
        };
        let mut signer = self.vendor_signer.lock();
        let capsule = Capsule::build(meta, pipeline, bytes, &mut signer)?;
        self.telemetry.incr("capsules.signed");
        Ok(capsule)
    }

    /// §V: wrap a model for a specific device (encrypted at rest).
    pub fn protect_for_device(
        &self,
        model_id: ModelId,
        device_id: u32,
    ) -> Result<EncryptedModel, PlatformError> {
        let model = self.registry.load_model(model_id)?;
        // Nonce = device ‖ model id (unique per pair).
        let mut nonce = [0u8; 12];
        nonce[..4].copy_from_slice(&device_id.to_le_bytes());
        nonce[4..12].copy_from_slice(&model_id.0.to_le_bytes());
        Ok(encrypt_model(&model, &self.master_key, device_id, nonce))
    }

    /// §III-C: provision a device for metering and sell it a prepaid
    /// package. Returns the voucher that was redeemed.
    pub fn sell_package(&mut self, device_id: u32, queries: u64) -> Result<Voucher, PlatformError> {
        let device_key = tinymlops_ipp::encrypt::device_key(&self.master_key, device_id);
        let quota = self
            .quotas
            .entry(device_id)
            .or_insert_with(|| QuotaManager::new(device_key));
        self.sync_server.provision(device_id, device_key);
        let voucher = self.issuer.issue(queries, device_id);
        tinymlops_meter::voucher::validate_for_device(&voucher, &self.voucher_key, device_id)?;
        self.ledger.register(voucher.serial)?;
        quota.credit(voucher.quota, voucher.serial, self.clock.now().0);
        self.telemetry.incr("metering.packages_sold");
        Ok(voucher)
    }

    /// §III-C: run one metered inference on a device. Denies on empty
    /// quota; records telemetry and drift observations.
    pub fn metered_infer(
        &mut self,
        device_id: u32,
        model: &Sequential,
        x: &tinymlops_tensor::Tensor,
    ) -> Result<Vec<usize>, PlatformError> {
        let now = self.clock.now().0;
        let quota = self
            .quotas
            .get_mut(&device_id)
            .ok_or(tinymlops_meter::MeterError::QuotaExhausted)?;
        quota.consume(x.rows() as u64, now)?;
        let pred = model.predict(x);
        self.telemetry.add("queries", x.rows() as u64);
        // §III-B: feed the first feature's mean into this device's drift
        // detector (a cheap input-distribution statistic).
        let det = self
            .drift
            .entry(device_id)
            .or_insert_with(|| KsDetector::new(64, 0.001));
        for r in 0..x.rows() {
            let mean = x.row(r).iter().sum::<f32>() / x.cols() as f32;
            let _ = tinymlops_observe::DriftDetector::observe(det, f64::from(mean));
        }
        Ok(pred)
    }

    /// §III-C: sync a device's audit log to the backend and compute its
    /// invoice for the newly reported queries.
    pub fn sync_device(
        &mut self,
        device_id: u32,
    ) -> Result<tinymlops_meter::Invoice, PlatformError> {
        let quota = self
            .quotas
            .get(&device_id)
            .ok_or(tinymlops_meter::MeterError::QuotaExhausted)?;
        let _outcome = self.sync_server.sync(device_id, quota.log())?;
        let billed = self.sync_server.billed(device_id);
        Ok(tinymlops_meter::Invoice::compute(
            device_id,
            billed,
            &self.rates,
        ))
    }

    /// Deterministic seed for sub-simulations.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Resolve family `name` at its latest base version.
    fn load_family(&self, name: &str) -> Result<LoadedFamily, PlatformError> {
        use tinymlops_registry::ModelFormat;
        use tinymlops_serve::ExecModel;
        let base = self
            .registry
            .latest_base(name)
            .ok_or_else(|| tinymlops_serve::ServeError::UnknownFamily(name.to_string()))?;
        let mut records = self.registry.family_at(name, base.version);
        records.sort_by_key(|r| r.id);
        let executables = records
            .iter()
            .filter_map(|record| {
                let exec = match record.format {
                    ModelFormat::F32 => ExecModel::F32(self.registry.load_model(record.id).ok()?),
                    ModelFormat::Quantized { .. } => {
                        ExecModel::Quantized(self.registry.load_quantized(record.id).ok()?)
                    }
                    _ => return None,
                };
                Some((record.id, exec))
            })
            .collect();
        Ok(LoadedFamily {
            records,
            executables,
        })
    }

    /// Sell a serving tenant its prepaid package through a real voucher
    /// (issued, validated and ledger-checked, exactly like
    /// [`Platform::sell_package`]). Returns the tenant's meter key and
    /// the voucher to open and credit its gateway account with.
    fn tenant_voucher(
        &mut self,
        tenant: &tinymlops_serve::TenantSpec,
    ) -> Result<([u8; 32], Voucher), PlatformError> {
        let key = tinymlops_ipp::encrypt::device_key(&self.master_key, tenant.id);
        let voucher = self.issuer.issue(tenant.prepaid_queries, tenant.id);
        tinymlops_meter::voucher::validate_for_device(&voucher, &self.voucher_key, tenant.id)?;
        self.ledger.register(voucher.serial)?;
        self.telemetry.incr("metering.packages_sold");
        Ok((key, voucher))
    }

    /// Assemble a serving plane over this platform's fleet and registry:
    /// every model family named by `plan` is installed (base + variants
    /// at the latest version, with real executables), tenants are
    /// provisioned with accounts and prepaid quota through real vouchers.
    pub fn build_serving(
        &mut self,
        plan: &tinymlops_serve::LoadPlan,
        cfg: &tinymlops_serve::ServeConfig,
    ) -> Result<tinymlops_serve::ServePlane, PlatformError> {
        let mut plane = tinymlops_serve::ServePlane::new(cfg, self.fleet.clone());
        let families: std::collections::BTreeSet<&str> =
            plan.tenants.iter().map(|t| t.model.as_str()).collect();
        for name in families {
            let family = self.load_family(name)?;
            for (id, exec) in family.executables {
                plane.install_executable(id, exec);
            }
            plane.install_family(name, family.records);
        }
        let now_ms = self.clock.now().0;
        for tenant in &plan.tenants {
            let (key, voucher) = self.tenant_voucher(tenant)?;
            plane.gateway.register_tenant(tenant.id, key);
            plane
                .gateway
                .credit(tenant.id, voucher.quota, voucher.serial, now_ms)?;
        }
        Ok(plane)
    }

    /// Replay a traffic plan through the serving plane, feeding serving
    /// counters into this platform's telemetry. Returns the run report
    /// (deterministic per plan seed).
    pub fn serve_traffic(
        &mut self,
        plan: &tinymlops_serve::LoadPlan,
        cfg: &tinymlops_serve::ServeConfig,
    ) -> Result<tinymlops_serve::ServeReport, PlatformError> {
        let mut plane = self.build_serving(plan, cfg)?;
        let sim = tinymlops_serve::ServeSim::new(cfg.clone(), Some(&self.telemetry));
        let stream = plan.generate();
        let report = sim.run(&mut plane, &stream)?;
        Ok(report)
    }

    /// Assemble a multi-node serving fabric over this platform's fleet:
    /// the fleet is partitioned into one device sub-fleet per node
    /// (standby nodes of the controller's elasticity pool included — they
    /// are full planes, just outside the routing topology), every family
    /// named by `plan` is installed on every node (with real executables,
    /// as in [`Platform::build_serving`]), and each tenant is provisioned
    /// on its shard-router-assigned home node with prepaid quota through
    /// real vouchers.
    ///
    /// The fabric is then driven directly — `schedule_migrations`, `run`,
    /// `run_with_retries`, `run_live`, the closed-loop drivers — and an
    /// open-loop report folded back with [`Platform::absorb_serving`].
    pub fn build_fabric(
        &mut self,
        plan: &tinymlops_serve::LoadPlan,
        cfg: &tinymlops_serve::FabricConfig,
    ) -> Result<tinymlops_serve::ServeFabric, PlatformError> {
        let fleets = self
            .fleet
            .partition(cfg.node_weights.len() + cfg.controller.standby_weights.len());
        let mut fabric = tinymlops_serve::ServeFabric::new(cfg, fleets);
        let families: std::collections::BTreeSet<&str> =
            plan.tenants.iter().map(|t| t.model.as_str()).collect();
        for name in families {
            let family = self.load_family(name)?;
            for (id, exec) in family.executables {
                fabric.install_executable(id, exec);
            }
            fabric.install_family(name, family.records);
        }
        let now_ms = self.clock.now().0;
        for tenant in &plan.tenants {
            let (key, voucher) = self.tenant_voucher(tenant)?;
            fabric.register_tenant(tenant.id, &tenant.model, key);
            fabric.credit(tenant.id, voucher.quota, voucher.serial, now_ms)?;
        }
        Ok(fabric)
    }

    /// Fold a fabric run into this platform's telemetry: the merged fleet
    /// counters *and* timer summaries (via `Telemetry::record_summary`, so
    /// fleet latency statistics do not stop at the fabric report), plus
    /// `serve.migrations` and `serve.alarms` when the run had any. Works
    /// for either backend (`LiveReport::fabric` for a threaded run).
    pub fn absorb_serving(&self, report: &tinymlops_serve::FabricReport) {
        self.telemetry.absorb_report(&report.telemetry);
        for (counter, n) in [
            ("serve.migrations", report.migrations.len()),
            ("serve.alarms", report.alarms.len()),
        ] {
            if n > 0 {
                self.telemetry.add(counter, n as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tinymlops_nn::data::synth_digits;
    use tinymlops_nn::model::mlp;
    use tinymlops_nn::train::{fit, FitConfig};
    use tinymlops_nn::Adam;
    use tinymlops_tensor::TensorRng;

    fn platform() -> Platform {
        Platform::new(&PlatformConfig {
            fleet_size: 30,
            seed: 7,
            signer_height: 3,
        })
    }

    fn trained() -> (Sequential, Dataset, Dataset) {
        let data = synth_digits(800, 0.08, 70);
        let (train, test) = data.split(0.85, 0);
        let mut rng = TensorRng::seed(1);
        let mut model = mlp(&[64, 24, 10], &mut rng);
        let mut opt = Adam::new(0.005);
        fit(
            &mut model,
            &train,
            &mut opt,
            &FitConfig {
                epochs: 10,
                batch_size: 32,
                ..Default::default()
            },
        );
        (model, train, test)
    }

    /// Six `digits` tenants at `rate_rps` each for one second.
    fn six_tenant_plan(rate_rps: f64, prepaid_queries: u64) -> tinymlops_serve::LoadPlan {
        tinymlops_serve::LoadPlan {
            tenants: (0..6u32)
                .map(|i| tinymlops_serve::TenantSpec {
                    id: i + 1,
                    rate_rps,
                    model: "digits".into(),
                    prepaid_queries,
                    deadline_us: 500_000,
                })
                .collect(),
            duration_us: 1_000_000,
            seed: 33,
            feature_dim: 0,
        }
    }

    #[test]
    fn publish_and_rollout() {
        let p = platform();
        let (model, train, test) = trained();
        let (base, variants) = p
            .publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        assert_eq!(variants.len(), 7);
        assert!(p.registry.get(base).is_ok());
        let req = Requirements {
            max_latency_ms: 1e6,
            max_download_ms: f64::INFINITY,
            min_accuracy: 0.0,
            max_energy_mj: f64::INFINITY,
        };
        let plan = p.rollout_plan("digits", &req);
        let placed = plan.iter().filter(|s| s.is_some()).count();
        assert!(placed > 20, "most devices get a variant, got {placed}/30");
    }

    #[test]
    fn metering_flow_end_to_end() {
        let mut p = platform();
        let (model, train, _) = trained();
        p.sell_package(3, 50).unwrap();
        let x = train.x.slice_rows(0, 10);
        let pred = p.metered_infer(3, &model, &x).unwrap();
        assert_eq!(pred.len(), 10);
        // Burn the rest and hit the denial.
        let x40 = train.x.slice_rows(0, 40);
        p.metered_infer(3, &model, &x40).unwrap();
        assert!(p.metered_infer(3, &model, &x).is_err(), "quota exhausted");
        // Sync → invoice covers 50 queries (within the free tier).
        let invoice = p.sync_device(3).unwrap();
        assert_eq!(invoice.queries, 50);
        assert_eq!(invoice.amount_microdollars, 0, "free tier");
    }

    #[test]
    fn capsule_from_registry_verifies() {
        let p = platform();
        let (model, train, test) = trained();
        let (base, _) = p
            .publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        let capsule = p
            .package(base, &Pipeline::standard_classifier(0.0, 1.0), "mcu-m7")
            .unwrap();
        capsule.verify(&p.vendor_root()).unwrap();
        assert_eq!(capsule.meta.name, "digits");
    }

    #[test]
    fn protected_model_decrypts_only_with_master() {
        let p = platform();
        let (model, train, test) = trained();
        let (base, _) = p
            .publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        let enc = p.protect_for_device(base, 9).unwrap();
        let dec = tinymlops_ipp::decrypt_model(&enc, &p.master_key()).unwrap();
        assert_eq!(dec.num_params(), model.num_params());
        assert!(tinymlops_ipp::decrypt_model(&enc, &[0u8; 32]).is_err());
    }

    #[test]
    fn serving_plane_serves_published_family_end_to_end() {
        use tinymlops_serve::{LoadPlan, ServeConfig, TenantSpec};
        let mut p = platform();
        let (model, train, test) = trained();
        p.publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        let plan = LoadPlan {
            tenants: vec![TenantSpec {
                id: 3,
                rate_rps: 400.0,
                model: "digits".into(),
                prepaid_queries: 1_000,
                deadline_us: 500_000,
            }],
            duration_us: 1_000_000,
            seed: 21,
            feature_dim: 64,
        };
        let report = p.serve_traffic(&plan, &ServeConfig::default()).unwrap();
        assert!(report.served > 200, "traffic flowed: {report}");
        assert!(
            report.real_predictions > 0,
            "feature-carrying requests ran real inference"
        );
        assert_eq!(
            p.telemetry.counter("serve.served"),
            report.served,
            "serving counters land in platform telemetry"
        );
        // Determinism: replay through a freshly built plane.
        let again = p.serve_traffic(&plan, &ServeConfig::default()).unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn sharded_fabric_serves_published_family_end_to_end() {
        use tinymlops_serve::FabricConfig;
        let mut p = platform();
        let (model, train, test) = trained();
        p.publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        let plan = six_tenant_plan(150.0, 1_000);
        let cfg = FabricConfig::default();
        let serve_sharded = |p: &mut Platform| {
            let report = p
                .build_fabric(&plan, &cfg)
                .unwrap()
                .run(&plan.generate())
                .unwrap();
            p.absorb_serving(&report);
            report
        };
        let report = serve_sharded(&mut p);
        assert!(
            report.fleet.served > 200,
            "traffic flowed: {}",
            report.fleet
        );
        assert_eq!(report.per_node.len(), 3, "three nodes reported");
        assert!(
            report.refunds_balance(),
            "refunds exactly match downstream sheds"
        );
        assert_eq!(
            p.telemetry.counter("serve.served"),
            report.fleet.served,
            "merged fleet counters land in platform telemetry"
        );
        // Every tenant's chain verifies under its real provisioning key —
        // checked on a fabric that actually replayed the traffic, so the
        // verified chains carry real Query entries, not just the Redeems.
        let mut fabric = p.build_fabric(&plan, &cfg).unwrap();
        fabric.run(&plan.generate()).unwrap();
        let master = p.master_key();
        let checked = fabric
            .verify_chains(|t| tinymlops_ipp::encrypt::device_key(&master, t))
            .unwrap();
        assert_eq!(checked, 6);
        assert!(
            fabric.quota_census().iter().any(|q| q.consumed > 0),
            "verified chains must carry real query entries"
        );
        // Determinism: a fresh platform replays to the identical report.
        let mut q = platform();
        q.publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        assert_eq!(serve_sharded(&mut q), report);
    }

    #[test]
    fn live_backend_matches_sim_replay_and_folds_timers() {
        use tinymlops_serve::{ExecConfig, FabricConfig};
        let mut p = platform();
        let (model, train, test) = trained();
        p.publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        let plan = six_tenant_plan(150.0, 1_000);
        let cfg = FabricConfig::default();
        let stream = plan.generate();
        let sim_report = p.build_fabric(&plan, &cfg).unwrap().run(&stream).unwrap();
        p.absorb_serving(&sim_report);
        let mut q = platform();
        q.publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        let live = q
            .build_fabric(&plan, &cfg)
            .unwrap()
            .run_live(&stream, &ExecConfig::default())
            .unwrap();
        q.absorb_serving(&live.fabric);
        assert_eq!(
            live.fabric, sim_report,
            "threaded replay is bit-identical to the simulator"
        );
        assert!(live.wall_ms > 0.0);
        assert!(live.wall_throughput_rps() > 0.0);
        // Timer summaries are no longer dropped at the fabric report:
        // both paths fold `serve.latency_ms` into platform telemetry.
        for platform in [&p, &q] {
            let snap = platform.telemetry.snapshot();
            let timer = snap
                .timers
                .get("serve.latency_ms")
                .expect("fleet timer summaries land in platform telemetry");
            assert_eq!(timer.count, sim_report.fleet.served);
        }
    }

    #[test]
    fn triggered_migration_moves_tenant_and_stays_bit_exact() {
        use tinymlops_serve::{ExecConfig, FabricConfig, MigrationPhase, MigrationSpec};
        let mut p = platform();
        let (model, train, test) = trained();
        p.publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        let plan = six_tenant_plan(300.0, 10_000);
        let cfg = FabricConfig::default();
        // Find tenant 1's hash-derived home so the spec moves it for real.
        let probe = p.build_fabric(&plan, &cfg).unwrap();
        let from = probe.home_node(1).unwrap();
        let to = (0..3).find(|n| *n != from).unwrap();
        drop(probe);
        let specs = [MigrationSpec {
            tenant: 1,
            to,
            trigger_us: 400_000,
        }];
        let stream = plan.generate();
        let mut fabric = p.build_fabric(&plan, &cfg).unwrap();
        fabric.schedule_migrations(&specs).unwrap();
        let report = fabric.run(&stream).unwrap();
        p.absorb_serving(&report);
        let records = &report.migrations;
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].phase, MigrationPhase::Resumed);
        assert_eq!((records[0].from, records[0].to), (from, to));
        assert!(report.refunds_balance());
        assert_eq!(p.telemetry.counter("serve.migrations"), 1);
        // The threaded backend replays the same migration bit-exactly.
        let mut q = platform();
        q.publish("digits", &model, SemVer::new(1, 0, 0), &train, &test)
            .unwrap();
        let mut live_fabric = q.build_fabric(&plan, &cfg).unwrap();
        live_fabric.schedule_migrations(&specs).unwrap();
        let live = live_fabric
            .run_live(&stream, &ExecConfig::default())
            .unwrap();
        assert_eq!(live.fabric.migrations, report.migrations);
        assert_eq!(live.fabric, report);
    }

    #[test]
    fn serving_unknown_family_errors() {
        use tinymlops_serve::{LoadPlan, ServeConfig, TenantSpec};
        let mut p = platform();
        let plan = LoadPlan {
            tenants: vec![TenantSpec {
                id: 1,
                rate_rps: 10.0,
                model: "ghost".into(),
                prepaid_queries: 10,
                deadline_us: 1000,
            }],
            duration_us: 1000,
            seed: 0,
            feature_dim: 0,
        };
        assert!(matches!(
            p.serve_traffic(&plan, &ServeConfig::default()),
            Err(PlatformError::Serve(_))
        ));
    }

    #[test]
    fn double_selling_a_voucher_serial_is_caught() {
        let mut p = platform();
        let v = p.sell_package(1, 10).unwrap();
        // Simulate replaying the same serial through the ledger.
        assert!(p.ledger.register(v.serial).is_err());
    }
}
