//! Binary wire format of the bit-width assigner round.
//!
//! Both round messages are one fixed little-endian layout built from *peer
//! lists*. A peer list is `count: u32`, then `count` entries of
//! `peer: u32`, `len: u32` and `len` items. Entries name peers in strictly
//! ascending order and every `len` is positive: peers without messages are
//! left out, so an empty device pair costs nothing on the wire.
//!
//! - **Trace** (worker → master, gathered): the forward peer lists of
//!   layers `0..L`, then the backward ones. Items are `beta` coefficients,
//!   8 bytes each (`f64::to_le_bytes`, bit-exact).
//! - **Reply** (master → one rank, scattered): the `fwd`, `bwd`, `fwd_recv`
//!   and `bwd_recv` tables, `L` peer lists each. Items are one byte of bit
//!   count per width.
//!
//! Neither message carries `L` or the device count `n`: every rank knows
//! both. Decoders never panic; they return an [`AssignWireError`].

use super::WidthAssignment;
use crate::decompose::DevicePartition;
use quant::BitWidth;

/// Per-message items of every non-empty peer, keyed by the peer's rank and
/// ascending by it.
pub(super) type PeerList<T> = Vec<(u32, Vec<T>)>;

/// One device's contribution to the master's problem: per layer and
/// direction, the per-message `beta` coefficients of every non-empty peer.
#[derive(Debug)]
pub(super) struct TraceMsg {
    /// `fwd_betas[layer]`: `(dst, betas)` over the non-empty send sets.
    pub(super) fwd_betas: Vec<PeerList<f64>>,
    /// `bwd_betas[layer]`: `(peer, betas)` over the non-empty receive slots.
    pub(super) bwd_betas: Vec<PeerList<f64>>,
}

/// Master's reply to one rank: the widths of every non-empty peer, for both
/// send and receive sides of every layer/direction.
#[derive(Debug)]
pub(super) struct AssignMsg {
    pub(super) fwd: Vec<PeerList<BitWidth>>,
    pub(super) bwd: Vec<PeerList<BitWidth>>,
    pub(super) fwd_recv: Vec<PeerList<BitWidth>>,
    pub(super) bwd_recv: Vec<PeerList<BitWidth>>,
}

impl AssignMsg {
    /// A reply with `num_layers` empty peer lists in every table.
    pub(super) fn empty(num_layers: usize) -> Self {
        Self {
            fwd: vec![Vec::new(); num_layers],
            bwd: vec![Vec::new(); num_layers],
            fwd_recv: vec![Vec::new(); num_layers],
            bwd_recv: vec![Vec::new(); num_layers],
        }
    }
}

/// Why a message of the bit-width assigner round failed to decode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AssignWireError {
    /// The message ends inside a field.
    Truncated {
        /// Byte offset where the field starts.
        offset: usize,
    },
    /// Bytes follow the last field.
    TrailingBytes {
        /// Number of unread bytes.
        extra: usize,
    },
    /// An entry names a peer outside the cluster.
    PeerOutOfRange {
        /// The named peer.
        peer: u32,
        /// Number of devices.
        n: usize,
    },
    /// An entry's peer is not above the previous entry's.
    PeerOutOfOrder {
        /// The named peer.
        peer: u32,
    },
    /// An entry carries no items (empty peers are left out instead).
    EmptyEntry {
        /// The named peer.
        peer: u32,
    },
    /// A reply's width count for a peer disagrees with the receiver's
    /// partition (an absent peer counts as zero widths).
    LengthMismatch {
        /// The peer.
        peer: usize,
        /// Messages the partition exchanges with the peer.
        expected: usize,
        /// Widths the reply carries for the peer.
        got: usize,
    },
    /// A width byte other than 2, 4 or 8.
    InvalidWidth {
        /// The byte.
        bits: u8,
    },
}

/// Cursor over a received message; every read checks the remaining length.
pub(super) struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    pub(super) fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Takes `count` items of `size` bytes each.
    fn take(&mut self, count: usize, size: usize) -> Result<&'a [u8], AssignWireError> {
        let len = count.checked_mul(size);
        let bytes = len
            .and_then(|len| self.buf.get(self.pos..).and_then(|rest| rest.get(..len)))
            .ok_or(AssignWireError::Truncated { offset: self.pos })?;
        self.pos += bytes.len();
        Ok(bytes)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], AssignWireError> {
        let bytes = self
            .buf
            .get(self.pos..)
            .and_then(<[u8]>::first_chunk::<N>)
            .ok_or(AssignWireError::Truncated { offset: self.pos })?;
        self.pos += N;
        Ok(*bytes)
    }

    fn u32(&mut self) -> Result<u32, AssignWireError> {
        self.array().map(u32::from_le_bytes)
    }

    pub(super) fn f64(&mut self) -> Result<f64, AssignWireError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Ends the read; any unread byte is an error.
    pub(super) fn finish(&self) -> Result<(), AssignWireError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            extra => Err(AssignWireError::TrailingBytes { extra }),
        }
    }

    /// Reads one peer list over `n` devices whose items are `ITEM` bytes
    /// wide, parsing each item with `item`.
    fn peer_list<T, const ITEM: usize>(
        &mut self,
        n: usize,
        item: impl Fn([u8; ITEM]) -> Result<T, AssignWireError>,
    ) -> Result<PeerList<T>, AssignWireError> {
        let count = self.u32()? as usize;
        // Each entry's header alone takes 8 bytes: never reserve more
        // entries than the rest of the message can hold.
        let mut list = Vec::with_capacity(count.min((self.buf.len() - self.pos) / 8));
        let mut lowest = 0usize;
        for _ in 0..count {
            let peer = self.u32()?;
            if peer as usize >= n {
                return Err(AssignWireError::PeerOutOfRange { peer, n });
            }
            if (peer as usize) < lowest {
                return Err(AssignWireError::PeerOutOfOrder { peer });
            }
            lowest = peer as usize + 1;
            let len = self.u32()? as usize;
            if len == 0 {
                return Err(AssignWireError::EmptyEntry { peer });
            }
            let (chunks, _) = self.take(len, ITEM)?.as_chunks::<ITEM>();
            let items = chunks
                .iter()
                .map(|&c| item(c))
                .collect::<Result<Vec<T>, _>>()?;
            list.push((peer, items));
        }
        Ok(list)
    }
}

/// Appends one peer list, writing each item with `item`.
fn write_peer_list<T: Copy>(out: &mut Vec<u8>, list: &PeerList<T>, item: impl Fn(&mut Vec<u8>, T)) {
    // Device and message counts stay far below 2^32.
    out.extend_from_slice(&(list.len() as u32).to_le_bytes());
    for (peer, items) in list {
        out.extend_from_slice(&peer.to_le_bytes());
        out.extend_from_slice(&(items.len() as u32).to_le_bytes());
        for &x in items {
            item(out, x);
        }
    }
}

fn write_beta(out: &mut Vec<u8>, beta: f64) {
    out.extend_from_slice(&beta.to_le_bytes());
}

fn write_width(out: &mut Vec<u8>, w: BitWidth) {
    // Bit counts are 2, 4 or 8.
    out.push(w.bits() as u8);
}

fn read_width([bits]: [u8; 1]) -> Result<BitWidth, AssignWireError> {
    BitWidth::from_bits(u32::from(bits)).ok_or(AssignWireError::InvalidWidth { bits })
}

/// Encodes a worker's trace.
pub(super) fn encode_trace(msg: &TraceMsg) -> Vec<u8> {
    let mut out = Vec::new();
    for list in msg.fwd_betas.iter().chain(&msg.bwd_betas) {
        write_peer_list(&mut out, list, write_beta);
    }
    out
}

/// Decodes a trace of `num_layers` layers from a cluster of `n` devices.
pub(super) fn decode_trace(
    buf: &[u8],
    n: usize,
    num_layers: usize,
) -> Result<TraceMsg, AssignWireError> {
    let mut r = WireReader::new(buf);
    let mut direction = || -> Result<Vec<PeerList<f64>>, AssignWireError> {
        (0..num_layers)
            .map(|_| r.peer_list(n, |b| Ok(f64::from_le_bytes(b))))
            .collect()
    };
    let fwd_betas = direction()?;
    let bwd_betas = direction()?;
    r.finish()?;
    Ok(TraceMsg {
        fwd_betas,
        bwd_betas,
    })
}

/// Encodes the master's reply to one rank.
pub(super) fn encode_reply(msg: &AssignMsg) -> Vec<u8> {
    let mut out = Vec::new();
    for list in msg
        .fwd
        .iter()
        .chain(&msg.bwd)
        .chain(&msg.fwd_recv)
        .chain(&msg.bwd_recv)
    {
        write_peer_list(&mut out, list, write_width);
    }
    out
}

/// Decodes a reply of `num_layers` layers into a [`WidthAssignment`]
/// aligned with `part`: absent peers get empty vectors, and every peer's
/// width count must match the partition.
pub(super) fn decode_reply(
    buf: &[u8],
    part: &DevicePartition,
    num_layers: usize,
) -> Result<WidthAssignment, AssignWireError> {
    let mut r = WireReader::new(buf);
    let mut table = |sets: &[Vec<u32>]| -> Result<Vec<Vec<Vec<BitWidth>>>, AssignWireError> {
        (0..num_layers)
            .map(|_| aligned(r.peer_list(sets.len(), read_width)?, sets))
            .collect()
    };
    let assignment = WidthAssignment {
        fwd: table(&part.send_sets)?,
        bwd: table(&part.recv_slots)?,
        fwd_recv: table(&part.recv_slots)?,
        bwd_recv: table(&part.send_sets)?,
    };
    r.finish()?;
    Ok(assignment)
}

/// Expands a peer list into one vector per entry of `sets`, empty for
/// absent peers, checking every length against the set's.
fn aligned<T>(list: PeerList<T>, sets: &[Vec<u32>]) -> Result<Vec<Vec<T>>, AssignWireError> {
    let mut out: Vec<Vec<T>> = sets.iter().map(|_| Vec::new()).collect();
    for (peer, items) in list {
        // The reader rejected every peer >= sets.len().
        out[peer as usize] = items;
    }
    for (peer, (got, set)) in out.iter().zip(sets).enumerate() {
        if got.len() != set.len() {
            return Err(AssignWireError::LengthMismatch {
                peer,
                expected: set.len(),
                got: got.len(),
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
pub(super) mod tests {
    use super::*;
    use gnn::ConvKind;
    use graph::DatasetSpec;
    use tensor::Rng;

    const N: usize = 5;
    const LAYERS: usize = 3;

    /// Betas that exercise the f64 encoding: signed zeros, infinities,
    /// subnormals and a NaN with a payload.
    fn awkward_betas() -> Vec<f64> {
        vec![
            0.0,
            -0.0,
            f64::INFINITY,
            f64::MIN_POSITIVE / 3.0,
            f64::from_bits(0x7ff8_dead_beef_0001),
            1.0 / 3.0,
        ]
    }

    /// Five devices, three layers: layer 0 has every peer but one, layer 1
    /// has one-message peers only, layer 2 has no peers in either direction.
    fn sample_trace() -> TraceMsg {
        let fwd_betas = vec![
            vec![
                (0, awkward_betas()),
                (1, vec![2.5; 7]),
                (3, vec![1e-300]),
                (4, vec![9.0, 8.0]),
            ],
            vec![(1, vec![0.5]), (4, vec![-1.0])],
            Vec::new(),
        ];
        let bwd_betas = vec![vec![(2, vec![3.0; 4])], vec![(0, vec![7.0])], Vec::new()];
        TraceMsg {
            fwd_betas,
            bwd_betas,
        }
    }

    /// Layer lists as `(peer, beta bits)`, so NaNs and signed zeros compare
    /// exactly.
    fn bits(lists: &[PeerList<f64>]) -> Vec<Vec<(u32, Vec<u64>)>> {
        lists
            .iter()
            .map(|list| {
                list.iter()
                    .map(|(peer, betas)| (*peer, betas.iter().map(|b| b.to_bits()).collect()))
                    .collect()
            })
            .collect()
    }

    /// The documented layout's size: per peer list a 4-byte count, then per
    /// entry 8 header bytes and `item` bytes per item.
    fn layout_len<T>(lists: &[PeerList<T>], item: usize) -> usize {
        lists
            .iter()
            .map(|list| {
                4 + list
                    .iter()
                    .map(|(_, xs)| 8 + item * xs.len())
                    .sum::<usize>()
            })
            .sum()
    }

    /// A trace is well-formed if every list names peers below `N` in
    /// strictly ascending order, each with at least one beta.
    fn assert_well_formed_trace(msg: &TraceMsg) {
        assert_eq!((msg.fwd_betas.len(), msg.bwd_betas.len()), (LAYERS, LAYERS));
        for list in msg.fwd_betas.iter().chain(&msg.bwd_betas) {
            for pair in list.windows(2) {
                assert!(pair[0].0 < pair[1].0);
            }
            for (peer, betas) in list {
                assert!((*peer as usize) < N && !betas.is_empty());
            }
        }
    }

    /// Four GCN partitions of the tiny dataset in which devices 1 and 2
    /// share no edge, so the ordered pairs (1, 2) and (2, 1) are empty.
    pub(in crate::assigner) fn setup() -> Vec<DevicePartition> {
        let ds = DatasetSpec::tiny().generate(5);
        let mut rng = Rng::seed_from(6);
        let p = graph::partition::metis_like(&ds.graph, 4, &mut rng);
        crate::decompose::build_partitions(&ds, &p, ConvKind::Gcn)
    }

    /// A reply to `part` with pseudo-random widths for every non-empty peer.
    fn sample_reply(part: &DevicePartition, seed: u64) -> AssignMsg {
        let mut rng = Rng::seed_from(seed);
        let mut table = |sets: &[Vec<u32>]| -> Vec<PeerList<BitWidth>> {
            (0..LAYERS)
                .map(|_| {
                    sets.iter()
                        .enumerate()
                        .filter(|(_, s)| !s.is_empty())
                        .map(|(q, s)| {
                            let ws = s.iter().map(|_| BitWidth::ALL[rng.below(3)]).collect();
                            (q as u32, ws)
                        })
                        .collect()
                })
                .collect()
        };
        AssignMsg {
            fwd: table(&part.send_sets),
            bwd: table(&part.recv_slots),
            fwd_recv: table(&part.recv_slots),
            bwd_recv: table(&part.send_sets),
        }
    }

    /// The reply's tables expanded to one vector per peer of `part`.
    pub(in crate::assigner) fn expand(part: &DevicePartition, msg: &AssignMsg) -> WidthAssignment {
        let table = |lists: &[PeerList<BitWidth>]| -> Vec<Vec<Vec<BitWidth>>> {
            lists
                .iter()
                .map(|list| {
                    let mut per_peer = vec![Vec::new(); part.num_parts];
                    for (peer, ws) in list {
                        per_peer[*peer as usize] = ws.clone();
                    }
                    per_peer
                })
                .collect()
        };
        WidthAssignment {
            fwd: table(&msg.fwd),
            bwd: table(&msg.bwd),
            fwd_recv: table(&msg.fwd_recv),
            bwd_recv: table(&msg.bwd_recv),
        }
    }

    /// A decoded reply is well-formed if it is aligned with `part`.
    fn assert_well_formed_reply(part: &DevicePartition, a: &WidthAssignment) {
        let fixed = WidthAssignment::fixed(part, LAYERS, BitWidth::B8);
        let shape = |t: &[Vec<Vec<BitWidth>>]| -> Vec<Vec<usize>> {
            t.iter().map(|l| l.iter().map(Vec::len).collect()).collect()
        };
        assert_eq!(shape(&a.fwd), shape(&fixed.fwd));
        assert_eq!(shape(&a.bwd), shape(&fixed.bwd));
        assert_eq!(shape(&a.fwd_recv), shape(&fixed.fwd_recv));
        assert_eq!(shape(&a.bwd_recv), shape(&fixed.bwd_recv));
    }

    #[test]
    fn trace_roundtrips_bit_exactly_and_matches_the_layout() {
        let msg = sample_trace();
        let buf = encode_trace(&msg);
        assert_eq!(
            buf.len(),
            layout_len(&msg.fwd_betas, 8) + layout_len(&msg.bwd_betas, 8)
        );
        let back = decode_trace(&buf, N, LAYERS).expect("valid trace decodes");
        assert_eq!(bits(&back.fwd_betas), bits(&msg.fwd_betas));
        assert_eq!(bits(&back.bwd_betas), bits(&msg.bwd_betas));
    }

    #[test]
    fn reply_roundtrips_against_the_partition() {
        for part in &setup() {
            let msg = sample_reply(part, 40 + part.rank as u64);
            let buf = encode_reply(&msg);
            let tables = [&msg.fwd, &msg.bwd, &msg.fwd_recv, &msg.bwd_recv];
            let expected_len: usize = tables.iter().map(|t| layout_len(t, 1)).sum();
            assert_eq!(buf.len(), expected_len);
            let back = decode_reply(&buf, part, LAYERS).expect("valid reply decodes");
            assert_eq!(back, expand(part, &msg));
            // Absent peers (at least the device itself) decode as empty.
            assert!(back.fwd[0][part.rank].is_empty());
        }
    }

    #[test]
    fn every_truncation_is_an_error() {
        let trace = encode_trace(&sample_trace());
        for cut in 0..trace.len() {
            assert!(matches!(
                decode_trace(&trace[..cut], N, LAYERS),
                Err(AssignWireError::Truncated { .. })
            ));
        }
        let parts = setup();
        let reply = encode_reply(&sample_reply(&parts[1], 3));
        for cut in 0..reply.len() {
            assert!(matches!(
                decode_reply(&reply[..cut], &parts[1], LAYERS),
                Err(AssignWireError::Truncated { .. })
            ));
        }
    }

    #[test]
    fn single_byte_flips_never_panic() {
        let trace = encode_trace(&sample_trace());
        for pos in 0..trace.len() {
            for mask in [0x01u8, 0x80, 0xff] {
                let mut buf = trace.clone();
                buf[pos] ^= mask;
                if let Ok(msg) = decode_trace(&buf, N, LAYERS) {
                    assert_well_formed_trace(&msg);
                }
            }
        }
        let parts = setup();
        for part in &parts {
            let reply = encode_reply(&sample_reply(part, 7));
            for pos in 0..reply.len() {
                for mask in [0x01u8, 0x06, 0x80, 0xff] {
                    let mut buf = reply.clone();
                    buf[pos] ^= mask;
                    if let Ok(a) = decode_reply(&buf, part, LAYERS) {
                        assert_well_formed_reply(part, &a);
                    }
                }
            }
        }
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        let parts = setup();
        let mut rng = Rng::seed_from(99);
        for _ in 0..4000 {
            let len = rng.below(96);
            // Small byte values make plausible counts, peers and widths.
            let small = rng.chance(0.5);
            let buf: Vec<u8> = (0..len)
                .map(|_| {
                    if small {
                        rng.below(9) as u8
                    } else {
                        rng.next_u64() as u8
                    }
                })
                .collect();
            if let Ok(msg) = decode_trace(&buf, N, LAYERS) {
                assert_well_formed_trace(&msg);
            }
            let part = &parts[rng.below(parts.len())];
            if let Ok(a) = decode_reply(&buf, part, LAYERS) {
                assert_well_formed_reply(part, &a);
            }
        }
    }

    #[test]
    fn malformed_messages_report_typed_errors() {
        let list =
            |words: &[u32]| -> Vec<u8> { words.iter().flat_map(|w| w.to_le_bytes()).collect() };
        let beta = 1.5f64.to_le_bytes();
        let decode = |buf: &[u8]| decode_trace(buf, N, 1);
        // One fwd entry (peer, 1 beta) then an empty bwd list.
        let entry = |peer: u32| [list(&[1, peer, 1]), beta.to_vec(), list(&[0])].concat();
        assert!(decode(&entry(4)).is_ok());
        assert_eq!(
            decode(&entry(5)).unwrap_err(),
            AssignWireError::PeerOutOfRange { peer: 5, n: N }
        );
        let twice = [
            list(&[2, 3, 1]),
            beta.to_vec(),
            list(&[3, 1]),
            beta.to_vec(),
            list(&[0]),
        ];
        assert_eq!(
            decode(&twice.concat()).unwrap_err(),
            AssignWireError::PeerOutOfOrder { peer: 3 }
        );
        assert_eq!(
            decode(&list(&[1, 2, 0, 0])).unwrap_err(),
            AssignWireError::EmptyEntry { peer: 2 }
        );
        let mut trailing = entry(0);
        trailing.push(0);
        assert_eq!(
            decode(&trailing).unwrap_err(),
            AssignWireError::TrailingBytes { extra: 1 }
        );
        // A count no message could hold fails without reserving for it.
        assert_eq!(
            decode(&list(&[u32::MAX])).unwrap_err(),
            AssignWireError::Truncated { offset: 4 }
        );

        let parts = setup();
        let part = &parts[0];
        let (q, len) = part
            .send_sets
            .iter()
            .enumerate()
            .find_map(|(q, s)| (!s.is_empty()).then_some((q, s.len())))
            .expect("device 0 sends to someone");
        let mut msg = sample_reply(part, 1);
        msg.fwd[0].retain(|(peer, _)| *peer as usize != q);
        assert_eq!(
            decode_reply(&encode_reply(&msg), part, LAYERS).unwrap_err(),
            AssignWireError::LengthMismatch {
                peer: q,
                expected: len,
                got: 0
            }
        );
        let mut buf = encode_reply(&sample_reply(part, 1));
        // The first width byte of the first fwd entry.
        buf[12] = 3;
        assert_eq!(
            decode_reply(&buf, part, LAYERS).unwrap_err(),
            AssignWireError::InvalidWidth { bits: 3 }
        );
    }
}
