//! Property tests for the cluster runtime: random message schedules must
//! deliver every payload exactly once, in order, regardless of
//! interleaving — and the event core must agree with the retired thread
//! backend on every schedule. The peer-sparse ring must deliver exactly
//! what the dense all-pairs ring delivered, and charge the same clocks.

use bytes::Bytes;
use comm::{Cluster, Topology};
use proptest::prelude::*;

/// The ring payload `src` sends `dst` in a random exchange: `sizes` is an
/// `n x n` row-major matrix of byte counts, zero meaning "nothing to send".
fn ring_payload(sizes: &[usize], n: usize, src: usize, dst: usize) -> Bytes {
    let len = if src == dst { 0 } else { sizes[src * n + dst] };
    Bytes::from(
        (0..len)
            .map(|i| (src * 31 + dst * 7 + i) as u8)
            .collect::<Vec<u8>>(),
    )
}

/// Folds a random `9 x 9` cell draw into an `n x n` size matrix: a cell
/// carries data when its coin falls under `density` (0 = all empty,
/// 4 = all full).
fn ring_sizes(n: usize, density: u8, cells: &[(u8, usize)]) -> Vec<usize> {
    (0..n * n)
        .map(|i| {
            let (coin, len) = cells[(i / n) * 9 + i % n];
            if coin < density {
                len
            } else {
                0
            }
        })
        .collect()
}

/// A heterogeneous cost model for `n` devices: two tiers of machines, two
/// machines per rack, and an oversubscribed spine between racks.
fn ring_cost(n: usize) -> comm::CostModel {
    let per_machine = if n.is_multiple_of(2) { 2 } else { 1 };
    Topology::new(n / per_machine, per_machine)
        .machines_per_rack(2)
        .oversubscription(4.0)
        .cost_model()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn random_p2p_schedules_deliver_everything(
        n in 2usize..5,
        // Each entry: (src, dst, tag, payload byte) with src/dst folded into range.
        plan in proptest::collection::vec((0usize..8, 0usize..8, 0u64..4, 0u8..=255), 1..24),
    ) {
        // Normalize the plan to the device count and make it visible to all.
        let sends: Vec<(usize, usize, u64, u8)> = plan
            .iter()
            .map(|&(s, d, t, b)| (s % n, d % n, t, b))
            .filter(|&(s, d, _, _)| s != d)
            .collect();
        let sends_ref = &sends;
        let results = Cluster::run_fn(n, move |mut dev| {
            let me = dev.rank();
            // Send phase: everything this rank must send, in plan order.
            for (i, &(s, d, t, b)) in sends_ref.iter().enumerate() {
                if s == me {
                    dev.send(d, t, Bytes::from(vec![b, i as u8]));
                }
            }
            // Receive phase: collect in plan order (per (src, tag) FIFO).
            let mut got = Vec::new();
            for &(s, d, t, _) in sends_ref {
                if d == me {
                    let payload = dev.recv(s, t);
                    got.push((s, t, payload[0]));
                }
            }
            got
        });
        // Every rank received exactly the payload bytes addressed to it, and
        // per-(src, tag) streams preserve send order.
        for (me, got) in results.iter().enumerate() {
            let mut expect_streams: std::collections::HashMap<(usize, u64), Vec<u8>> =
                std::collections::HashMap::new();
            for &(s, d, t, b) in sends_ref {
                if d == me {
                    expect_streams.entry((s, t)).or_default().push(b);
                }
            }
            let mut got_streams: std::collections::HashMap<(usize, u64), Vec<u8>> =
                std::collections::HashMap::new();
            for &(s, t, b) in got {
                got_streams.entry((s, t)).or_default().push(b);
            }
            prop_assert_eq!(expect_streams, got_streams, "rank {} streams differ", me);
        }
    }

    #[test]
    fn repeated_collectives_stay_consistent(
        n in 2usize..5,
        rounds in 1usize..5,
        seed in 0u64..1000,
    ) {
        let device = move |mut dev: comm::DeviceHandle| {
            let mut acc = Vec::new();
            for round in 0..rounds {
                // Interleave different collectives in a fixed order.
                let payloads: Vec<Bytes> = (0..n)
                    .map(|dst| Bytes::from(vec![dev.rank() as u8, dst as u8, round as u8]))
                    .collect();
                let got = dev.ring_all2all(payloads);
                let sum: u32 = got.iter().flatten().map(|b| b[0] as u32).sum();
                let bcast = dev.broadcast(
                    round % n,
                    (dev.rank() == round % n).then(|| Bytes::from(vec![seed as u8, round as u8])),
                );
                let mut reduced = vec![dev.rank() as f32, 1.0];
                dev.allreduce_sum_f32(&mut reduced);
                acc.push((sum, bcast[0], reduced[0] as u32, reduced[1] as u32));
            }
            acc
        };
        let results = Cluster::run_fn(n, device);
        // The retired thread backend must agree on every schedule.
        #[cfg(feature = "thread-backend")]
        prop_assert_eq!(&results, &Cluster::run_fn_threaded(n, device));
        // Every device computed identical collective results.
        let expected_sum: u32 = (0..n as u32).sum::<u32>();
        for (rank, acc) in results.iter().enumerate() {
            for (round, &(sum, bcast, red0, red1)) in acc.iter().enumerate() {
                // ring sum excludes self.
                prop_assert_eq!(sum, expected_sum - rank as u32, "rank {} round {}", rank, round);
                prop_assert_eq!(bcast, seed as u8);
                prop_assert_eq!(red0, expected_sum);
                prop_assert_eq!(red1, n as u32);
            }
        }
    }

    #[test]
    fn sparse_ring_delivers_what_the_dense_ring_did(
        n in 1usize..=9,
        density in 0u8..=4,
        cells in proptest::collection::vec((0u8..4, 1usize..48), 81),
    ) {
        let sizes = ring_sizes(n, density, &cells);
        let sizes = &sizes;
        let device = move |mut dev: comm::DeviceHandle| {
            let me = dev.rank();
            let sends: Vec<(usize, Bytes)> = (0..n)
                .map(|dst| (dst, ring_payload(sizes, n, me, dst)))
                .filter(|(_, p)| !p.is_empty())
                .collect();
            let sparse = dev.ring_all2all_sparse(sends);
            let dense = dev.ring_all2all((0..n).map(|dst| ring_payload(sizes, n, me, dst)).collect());
            (sparse, dense)
        };
        let results = Cluster::run_fn(n, device);
        #[cfg(feature = "thread-backend")]
        prop_assert_eq!(&results, &Cluster::run_fn_threaded(n, device));
        for (me, (sparse, dense)) in results.iter().enumerate() {
            // The old dense semantics: `Some` from every other rank (empty
            // where it sent nothing), `None` from self.
            let want_dense: Vec<Option<Bytes>> = (0..n)
                .map(|src| (src != me).then(|| ring_payload(sizes, n, src, me)))
                .collect();
            prop_assert_eq!(dense, &want_dense, "rank {} dense", me);
            let want_sparse: Vec<(usize, Bytes)> = want_dense
                .iter()
                .enumerate()
                .filter_map(|(src, p)| p.clone().filter(|p| !p.is_empty()).map(|p| (src, p)))
                .collect();
            prop_assert_eq!(sparse, &want_sparse, "rank {} sparse", me);
        }
    }

    #[test]
    fn sparse_ring_clocks_match_the_dense_cost_formula_bit_for_bit(
        n in 1usize..=9,
        density in 0u8..=4,
        cells in proptest::collection::vec((0u8..4, 1usize..4096), 81),
    ) {
        let sizes = ring_sizes(n, density, &cells);
        let sizes = &sizes;
        let cost = ring_cost(n);
        let bytes: Vec<Vec<usize>> = (0..n)
            .map(|src| (0..n).map(|dst| ring_payload(sizes, n, src, dst).len()).collect())
            .collect();
        let want = cost.per_device_ring_seconds(&bytes);
        let sparse = Cluster::try_run_fn_with(n, Some(&cost), move |mut dev: comm::DeviceHandle| {
            let me = dev.rank();
            let sends = (0..n)
                .map(|dst| (dst, ring_payload(sizes, n, me, dst)))
                .filter(|(_, p)| !p.is_empty())
                .collect();
            dev.ring_all2all_sparse(sends).len()
        })
        .unwrap();
        let dense = Cluster::try_run_fn_with(n, Some(&cost), move |mut dev: comm::DeviceHandle| {
            let me = dev.rank();
            dev.ring_all2all((0..n).map(|dst| ring_payload(sizes, n, me, dst)).collect()).len()
        })
        .unwrap();
        for (rank, want) in want.iter().enumerate() {
            prop_assert_eq!(sparse.clocks[rank].to_bits(), want.to_bits(), "rank {} sparse", rank);
            prop_assert_eq!(dense.clocks[rank].to_bits(), want.to_bits(), "rank {} dense", rank);
        }
    }
}
