//! Affine link cost model (`t = theta * bytes + gamma`).

use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// Physical layout of the simulated cluster: which device ranks live on
/// which machine (paper notation `xM-yD` = `x` machines, `y` devices each).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ClusterTopology {
    /// Number of machines.
    pub machines: usize,
    /// Devices (GPUs) per machine.
    pub devices_per_machine: usize,
}

impl ClusterTopology {
    /// Creates an `xM-yD` topology.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    pub fn new(machines: usize, devices_per_machine: usize) -> Self {
        assert!(machines > 0 && devices_per_machine > 0, "empty topology");
        Self {
            machines,
            devices_per_machine,
        }
    }

    /// Total device count.
    pub fn num_devices(&self) -> usize {
        self.machines * self.devices_per_machine
    }

    /// Machine hosting `rank`.
    pub fn machine_of(&self, rank: usize) -> usize {
        rank / self.devices_per_machine
    }

    /// Whether two ranks share a machine.
    pub fn same_machine(&self, a: usize, b: usize) -> bool {
        self.machine_of(a) == self.machine_of(b)
    }

    /// Paper-style name, e.g. `2M-4D`.
    pub fn label(&self) -> String {
        format!("{}M-{}D", self.machines, self.devices_per_machine)
    }
}

/// Per-device-pair affine transfer cost `t(bytes) = theta * bytes + gamma`
/// (seconds), the cost model of Eqn. 10.
///
/// # Example
///
/// ```
/// use comm::{ClusterTopology, CostModel};
///
/// let cm = CostModel::ethernet_cluster(ClusterTopology::new(2, 2));
/// // Intra-machine transfers are faster than inter-machine ones.
/// assert!(cm.transfer_time(0, 1, 1 << 20) < cm.transfer_time(0, 2, 1 << 20));
/// // Self-transfers are free.
/// assert_eq!(cm.transfer_time(1, 1, 123), 0.0);
/// ```
///
/// The link tables are read-only data for the whole fleet, so they live
/// behind one [`Arc`]: cloning a model (one clone per simulated device) is a
/// reference-count bump, and every clone reads the same `n x n` table.
/// [`CostModel::set_link`] and [`CostModel::with_device_scales`] are
/// copy-on-write, so changing one clone never changes another.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    n: usize,
    links: Arc<Links>,
    /// Divisor applied to measured CPU compute time to emulate accelerator
    /// speed (a V100 is roughly an order of magnitude faster than the single
    /// CPU thread a simulated device gets here).
    pub compute_speedup: f64,
}

/// The shared, read-mostly part of a [`CostModel`].
#[derive(Debug, Clone, PartialEq)]
struct Links {
    /// Seconds per byte, row-major `n x n`.
    theta: Vec<f64>,
    /// Fixed per-transfer seconds, row-major `n x n`.
    gamma: Vec<f64>,
    /// Optional per-device speedup multipliers on top of `compute_speedup`,
    /// for heterogeneous clusters (the paper's 6M-4D testbed mixes V100 and
    /// A100 machines). `None` means a homogeneous cluster.
    per_device_scale: Option<Vec<f64>>,
}

/// Default effective inter-machine bandwidth (bytes/second).
///
/// Deliberately below the paper's 100 Gbps line rate: our graphs are ~40x
/// smaller than the originals, so the link is slowed proportionally to keep
/// the communication-to-computation ratio in the regime Table 1 reports
/// (comm = 65-80% of epoch time). This is the calibrated "same shape"
/// substitution documented in DESIGN.md.
pub const DEFAULT_INTER_BW: f64 = 130.0e6;

/// Default intra-machine (NVLink/PCIe-class) bandwidth in bytes/second.
pub const DEFAULT_INTRA_BW: f64 = 0.6e9;

/// Default per-transfer latency, seconds (RDMA-class round-trip setup).
pub const DEFAULT_LATENCY: f64 = 20.0e-6;

/// Default compute speedup (GPU vs single CPU thread).
pub const DEFAULT_COMPUTE_SPEEDUP: f64 = 10.0;

/// Effective scalar-operation rate of one unloaded CPU thread running this
/// workspace's kernels (ops/second). Calibrated against measured matmul /
/// aggregation / quantization throughput on a modern x86 core; used by
/// [`CostModel::ops_time_for`] so a simulated device's compute rate is
/// `BASE_CPU_OPS_PER_SEC * compute_speedup * device_scale`.
pub const BASE_CPU_OPS_PER_SEC: f64 = 2.5e9;

impl CostModel {
    /// Builds a cost model with uniform bandwidth/latency on every link.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `bandwidth <= 0`.
    pub fn homogeneous(n: usize, bandwidth_bytes_per_sec: f64, latency_sec: f64) -> Self {
        assert!(n > 0, "need at least one device");
        assert!(bandwidth_bytes_per_sec > 0.0, "bandwidth must be positive");
        let mut theta = vec![1.0 / bandwidth_bytes_per_sec; n * n];
        let mut gamma = vec![latency_sec; n * n];
        for i in 0..n {
            theta[i * n + i] = 0.0;
            gamma[i * n + i] = 0.0;
        }
        Self::from_tables(n, theta, gamma)
    }

    /// Builds the default two-tier model for an `xM-yD` topology: fast
    /// intra-machine links, slower inter-machine Ethernet.
    pub fn ethernet_cluster(topology: ClusterTopology) -> Self {
        Self::two_tier(
            topology,
            DEFAULT_INTER_BW,
            DEFAULT_INTRA_BW,
            DEFAULT_LATENCY,
        )
    }

    /// Builds a two-tier model with explicit bandwidths.
    ///
    /// # Panics
    ///
    /// Panics if a bandwidth is not positive.
    pub fn two_tier(
        topology: ClusterTopology,
        inter_bw: f64,
        intra_bw: f64,
        latency_sec: f64,
    ) -> Self {
        assert!(
            inter_bw > 0.0 && intra_bw > 0.0,
            "bandwidth must be positive"
        );
        let n = topology.num_devices();
        let mut theta = vec![0.0; n * n];
        let mut gamma = vec![0.0; n * n];
        for s in 0..n {
            for d in 0..n {
                if s == d {
                    continue;
                }
                let bw = if topology.same_machine(s, d) {
                    intra_bw
                } else {
                    inter_bw
                };
                theta[s * n + d] = 1.0 / bw;
                gamma[s * n + d] = latency_sec;
            }
        }
        Self::from_tables(n, theta, gamma)
    }

    /// Wraps freshly built row-major `n x n` tables in a homogeneous-compute
    /// model with the default speedup.
    fn from_tables(n: usize, theta: Vec<f64>, gamma: Vec<f64>) -> Self {
        Self {
            n,
            links: Arc::new(Links {
                theta,
                gamma,
                per_device_scale: None,
            }),
            compute_speedup: DEFAULT_COMPUTE_SPEEDUP,
        }
    }

    /// Sets the compute-speedup divisor (builder style).
    pub fn with_compute_speedup(mut self, speedup: f64) -> Self {
        assert!(speedup > 0.0, "speedup must be positive");
        self.compute_speedup = speedup;
        self
    }

    /// Overrides one directed link's parameters.
    ///
    /// Copy-on-write: when the table is shared with other clones, this
    /// model first takes a private copy, so no other clone sees the change.
    ///
    /// # Panics
    ///
    /// Panics if ranks are out of range.
    pub fn set_link(&mut self, src: usize, dst: usize, theta: f64, gamma: f64) {
        assert!(src < self.n && dst < self.n, "rank out of range");
        let links = Arc::make_mut(&mut self.links);
        links.theta[src * self.n + dst] = theta;
        links.gamma[src * self.n + dst] = gamma;
    }

    /// Number of devices.
    pub fn num_devices(&self) -> usize {
        self.n
    }

    /// Modeled seconds to move `bytes` from `src` to `dst`. Zero-byte
    /// transfers and self-transfers are free.
    ///
    /// # Panics
    ///
    /// Panics if ranks are out of range.
    pub fn transfer_time(&self, src: usize, dst: usize, bytes: usize) -> f64 {
        assert!(src < self.n && dst < self.n, "rank out of range");
        if src == dst || bytes == 0 {
            return 0.0;
        }
        let at = src * self.n + dst;
        self.links.theta[at] * bytes as f64 + self.links.gamma[at]
    }

    /// The `(theta, gamma)` parameters of a directed link, as used by the
    /// bit-width assigner's time objective.
    pub fn link_params(&self, src: usize, dst: usize) -> (f64, f64) {
        assert!(src < self.n && dst < self.n, "rank out of range");
        let at = src * self.n + dst;
        (self.links.theta[at], self.links.gamma[at])
    }

    /// Sets per-device speedup multipliers (builder style): device `r`'s
    /// effective speedup becomes `compute_speedup * scales[r]`. Use for
    /// heterogeneous clusters (e.g. V100 machines at 1.0, A100 at ~1.7).
    ///
    /// # Panics
    ///
    /// Panics if the length differs from the device count or any scale is
    /// not positive.
    pub fn with_device_scales(mut self, scales: Vec<f64>) -> Self {
        assert_eq!(scales.len(), self.n, "one scale per device");
        assert!(scales.iter().all(|&s| s > 0.0), "scales must be positive");
        Arc::make_mut(&mut self.links).per_device_scale = Some(scales);
        self
    }

    /// Converts measured CPU seconds into simulated accelerator seconds.
    pub fn compute_time(&self, cpu_seconds: f64) -> f64 {
        cpu_seconds / self.compute_speedup
    }

    /// Per-device variant of [`CostModel::compute_time`]: applies the
    /// device's heterogeneity scale when one is configured.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn compute_time_for(&self, rank: usize, cpu_seconds: f64) -> f64 {
        assert!(rank < self.n, "rank out of range");
        let scale = self
            .links
            .per_device_scale
            .as_ref()
            .map_or(1.0, |s| s[rank]);
        cpu_seconds / (self.compute_speedup * scale)
    }

    /// Simulated seconds for `ops` scalar operations on device `rank`.
    ///
    /// This is the load-independent way to charge compute: kernels report
    /// their operation counts and the model divides by the device's
    /// effective rate (`BASE_CPU_OPS_PER_SEC * compute_speedup * scale`).
    /// Unlike wall-clock measurement it is immune to host CPU
    /// oversubscription, which matters when dozens of simulated devices
    /// share a few physical cores.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is out of range.
    pub fn ops_time_for(&self, rank: usize, ops: f64) -> f64 {
        assert!(rank < self.n, "rank out of range");
        let scale = self
            .links
            .per_device_scale
            .as_ref()
            .map_or(1.0, |s| s[rank]);
        ops / (BASE_CPU_OPS_PER_SEC * self.compute_speedup * scale)
    }

    /// Total ring-all2all time for a byte matrix `bytes[src][dst]` (Fig. 8).
    ///
    /// Each of the `N-1` rounds costs the max over devices of the transfer
    /// on the links active that round — rounds are synchronized, so each one
    /// waits for its slowest link (the straggler effect behind the minimax
    /// term of Eqn. 10).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not `n x n` for the model's device count.
    pub fn ring_all2all_seconds(&self, bytes: &[Vec<usize>]) -> f64 {
        let n = self.n;
        assert_eq!(bytes.len(), n, "bytes matrix row count");
        let mut total = 0.0;
        for round in 1..n {
            let mut round_max: f64 = 0.0;
            for src in 0..n {
                let dst = (src + round) % n;
                assert_eq!(bytes[src].len(), n, "bytes matrix col count");
                round_max = round_max.max(self.transfer_time(src, dst, bytes[src][dst]));
            }
            total += round_max;
        }
        total
    }

    /// Per-device ring-all2all time: device `d` spends, in round `r`, the
    /// max of its own send and its own receive (full-duplex links); unlike
    /// [`CostModel::ring_all2all_seconds`] this does *not* synchronize
    /// rounds globally, which is how per-device communication times end up
    /// unequal (Table 2).
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not `n x n` for the model's device count.
    pub fn per_device_ring_seconds(&self, bytes: &[Vec<usize>]) -> Vec<f64> {
        let n = self.n;
        assert_eq!(bytes.len(), n, "bytes matrix row count");
        let mut times = vec![0.0; n];
        for round in 1..n {
            for dev in 0..n {
                let dst = (dev + round) % n;
                let src = (dev + n - round % n) % n;
                let send = self.transfer_time(dev, dst, bytes[dev][dst]);
                let recv = self.transfer_time(src, dev, bytes[src][dev]);
                times[dev] += send.max(recv);
            }
        }
        times
    }

    /// Total time for sequential one-by-one broadcasts (the SANCUS
    /// schedule): device `i` broadcasts `bytes[i][dst]` to every other
    /// device in parallel, devices take turns.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is not `n x n` for the model's device count.
    pub fn sequential_broadcast_seconds(&self, bytes: &[Vec<usize>]) -> f64 {
        let n = self.n;
        assert_eq!(bytes.len(), n, "bytes matrix row count");
        let mut total = 0.0;
        for src in 0..n {
            let mut bcast: f64 = 0.0;
            for dst in 0..n {
                if dst != src {
                    bcast = bcast.max(self.transfer_time(src, dst, bytes[src][dst]));
                }
            }
            total += bcast;
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topology_machine_mapping() {
        let t = ClusterTopology::new(2, 4);
        assert_eq!(t.num_devices(), 8);
        assert_eq!(t.machine_of(0), 0);
        assert_eq!(t.machine_of(3), 0);
        assert_eq!(t.machine_of(4), 1);
        assert!(t.same_machine(1, 2));
        assert!(!t.same_machine(3, 4));
        assert_eq!(t.label(), "2M-4D");
    }

    #[test]
    fn homogeneous_affine_cost() {
        let cm = CostModel::homogeneous(3, 1e9, 1e-4);
        let t = cm.transfer_time(0, 1, 1_000_000);
        assert!((t - (1e-3 + 1e-4)).abs() < 1e-12);
    }

    #[test]
    fn self_and_empty_transfers_free() {
        let cm = CostModel::homogeneous(2, 1e9, 1e-4);
        assert_eq!(cm.transfer_time(0, 0, 1000), 0.0);
        assert_eq!(cm.transfer_time(0, 1, 0), 0.0);
    }

    #[test]
    fn two_tier_orders_links() {
        let cm = CostModel::ethernet_cluster(ClusterTopology::new(2, 2));
        let intra = cm.transfer_time(0, 1, 1 << 20);
        let inter = cm.transfer_time(0, 2, 1 << 20);
        assert!(intra < inter);
    }

    #[test]
    fn cost_is_monotone_in_bytes() {
        let cm = CostModel::ethernet_cluster(ClusterTopology::new(2, 2));
        let mut prev = 0.0;
        for bytes in [1usize, 10, 100, 10_000, 1_000_000] {
            let t = cm.transfer_time(0, 3, bytes);
            assert!(t > prev);
            prev = t;
        }
    }

    #[test]
    fn set_link_overrides() {
        let mut cm = CostModel::homogeneous(2, 1e9, 0.0);
        cm.set_link(0, 1, 1.0, 5.0);
        assert_eq!(cm.transfer_time(0, 1, 2), 7.0);
        // Reverse direction untouched.
        assert!(cm.transfer_time(1, 0, 2) < 1e-6);

        // Copy-on-write: overriding a link on a clone leaves the original
        // (and every other clone) bit-for-bit as it was.
        let original = cm.clone();
        let sibling = cm.clone();
        let mut edited = cm.clone();
        edited.set_link(1, 0, 2.0, 3.0);
        assert_eq!(edited.transfer_time(1, 0, 2), 7.0);
        assert!(!Arc::ptr_eq(&edited.links, &original.links));
        assert!(Arc::ptr_eq(&sibling.links, &original.links));
        for model in [&cm, &sibling] {
            for (s, d) in [(0, 1), (1, 0)] {
                let (t, g) = model.link_params(s, d);
                let (t0, g0) = original.link_params(s, d);
                assert_eq!((t.to_bits(), g.to_bits()), (t0.to_bits(), g0.to_bits()));
                assert_eq!(
                    model.transfer_time(s, d, 2).to_bits(),
                    original.transfer_time(s, d, 2).to_bits()
                );
            }
        }
    }

    #[test]
    fn clones_share_one_table() {
        let cm = CostModel::homogeneous(4, 1e9, 1e-6).with_device_scales(vec![1.0; 4]);
        let copy = cm.clone();
        assert!(Arc::ptr_eq(&cm.links, &copy.links));
        assert_eq!(cm, copy);

        // The fleet shape the table7 sweep reaches: one clone per device
        // must not copy the 1024 x 1024 tables (16 MiB each time).
        let fleet = crate::Topology::new(256, 4).cost_model();
        assert_eq!(fleet.num_devices(), 1024);
        let clones: Vec<CostModel> = (0..1024).map(|_| fleet.clone()).collect();
        assert!(clones.iter().all(|c| Arc::ptr_eq(&c.links, &fleet.links)));
        assert_eq!(Arc::strong_count(&fleet.links), 1025);
    }

    #[test]
    fn racked_oversubscribed_lowering_matches_tiers_bitwise() {
        // 7 machines x 2 devices, racks of 3 machines (the last one
        // partial), 4:1 spine. Expectations are built per tier from the
        // constants, independent of `Topology::rack_of`.
        let (machines, per_machine, per_rack, ratio) = (7, 2, 3, 4.0);
        let cm = crate::Topology::new(machines, per_machine)
            .machines_per_rack(per_rack)
            .oversubscription(ratio)
            .cost_model();
        let n = machines * per_machine;
        assert_eq!(cm.num_devices(), n);
        let machine = |r: usize| r / per_machine;
        let rack = |r: usize| machine(r) / per_rack;
        for src in 0..n {
            for dst in 0..n {
                let (theta, gamma) = cm.link_params(src, dst);
                let (want_theta, want_gamma) = if src == dst {
                    (0.0, 0.0)
                } else if machine(src) == machine(dst) {
                    (1.0 / DEFAULT_INTRA_BW, DEFAULT_LATENCY)
                } else if rack(src) == rack(dst) {
                    (1.0 / DEFAULT_INTER_BW, DEFAULT_LATENCY)
                } else {
                    (1.0 / (DEFAULT_INTER_BW / ratio), DEFAULT_LATENCY)
                };
                assert_eq!(
                    (theta.to_bits(), gamma.to_bits()),
                    (want_theta.to_bits(), want_gamma.to_bits()),
                    "link {src} -> {dst}"
                );
            }
        }
    }

    #[test]
    fn compute_time_divides_by_speedup() {
        let cm = CostModel::homogeneous(2, 1e9, 0.0).with_compute_speedup(20.0);
        assert!((cm.compute_time(1.0) - 0.05).abs() < 1e-12);
    }

    #[test]
    fn link_params_roundtrip() {
        let cm = CostModel::homogeneous(2, 2.0, 3.0);
        let (theta, gamma) = cm.link_params(0, 1);
        assert_eq!(theta, 0.5);
        assert_eq!(gamma, 3.0);
    }
}

#[cfg(test)]
mod hetero_tests {
    use super::*;

    #[test]
    fn device_scales_apply_per_rank() {
        let cm = CostModel::homogeneous(3, 1e9, 0.0)
            .with_compute_speedup(10.0)
            .with_device_scales(vec![1.0, 2.0, 0.5]);
        assert!((cm.compute_time_for(0, 1.0) - 0.1).abs() < 1e-12);
        assert!((cm.compute_time_for(1, 1.0) - 0.05).abs() < 1e-12);
        assert!((cm.compute_time_for(2, 1.0) - 0.2).abs() < 1e-12);
        // Homogeneous default matches compute_time.
        let plain = CostModel::homogeneous(2, 1e9, 0.0).with_compute_speedup(10.0);
        assert_eq!(plain.compute_time_for(1, 2.0), plain.compute_time(2.0));
    }

    #[test]
    fn ops_time_uses_base_rate_and_scales() {
        let cm = CostModel::homogeneous(2, 1e9, 0.0)
            .with_compute_speedup(10.0)
            .with_device_scales(vec![1.0, 2.0]);
        let expect0 = 1e9 / (BASE_CPU_OPS_PER_SEC * 10.0);
        assert!((cm.ops_time_for(0, 1e9) - expect0).abs() < 1e-15);
        assert!((cm.ops_time_for(1, 1e9) - expect0 / 2.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "one scale per device")]
    fn scales_length_checked() {
        let _ = CostModel::homogeneous(3, 1e9, 0.0).with_device_scales(vec![1.0]);
    }
}
