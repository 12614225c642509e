//! Serialization round-trip property tests (ISSUE 9 satellite): for
//! randomly generated keys, design vectors and Pareto fronts,
//! `decode(encode(x))` is **bit-identical** to `x` — including NaN
//! payloads, infinities and signed zeros drawn from raw bit patterns —
//! and any single corrupted byte fails closed. Failures shrink to a
//! minimal case via the `prop_check!` harness.

use cayman_analysis::wpst::WpstNodeId;
use cayman_hls::design::AcceleratorDesign;
use cayman_hls::inputs::CandidateKey;
use cayman_hls::interface::{InterfaceKind, InterfaceSpec};
use cayman_ir::loops::LoopId;
use cayman_ir::{BlockId, FuncId, InstrId};
use cayman_select::cache::{DesignKey, ModelId};
use cayman_select::{SelectedKernel, Solution};
use cayman_store::codec::{
    decode_entry, decode_front, designs_bits_equal, encode_entry, encode_front, fronts_bits_equal,
    key_bytes, Dec, Enc,
};
use cayman_testkit::{prop_assert, prop_check, Rng};

const KINDS: [InterfaceKind; 6] = [
    InterfaceKind::Coupled,
    InterfaceKind::Decoupled,
    InterfaceKind::Scratchpad,
    InterfaceKind::BankedScratchpad,
    InterfaceKind::DoubleBuffered,
    InterfaceKind::LineBuffer,
];

/// Any `f64` bit pattern: finite values, ±0, ±∞, NaNs with payloads.
fn gen_f64(rng: &mut Rng) -> f64 {
    if rng.bool() {
        rng.range_f64(-1e12, 1e12)
    } else {
        f64::from_bits(rng.next_u64())
    }
}

fn gen_key(rng: &mut Rng) -> DesignKey {
    DesignKey {
        model: ModelId {
            name: ["cayman", "novia", "qscores"][rng.range_usize(0, 3)],
            options: rng.next_u64(),
        },
        candidate: CandidateKey {
            func: FuncId(rng.range_u32(0, 16)),
            region_fp: rng.next_u64(),
            blocks: (0..rng.range_usize(0, 8))
                .map(|_| BlockId(rng.range_u32(0, 128)))
                .collect(),
            entries: rng.next_u64(),
            cpu_cycles: rng.next_u64(),
            is_bb: rng.bool(),
        },
    }
}

fn gen_design(rng: &mut Rng) -> AcceleratorDesign {
    AcceleratorDesign {
        func: FuncId(rng.range_u32(0, 16)),
        blocks: (0..rng.range_usize(0, 8))
            .map(|_| BlockId(rng.range_u32(0, 128)))
            .collect(),
        unroll: rng.range_u32(1, 16),
        pipelined: (0..rng.range_usize(0, 4))
            .map(|_| LoopId(rng.range_u32(0, 32)))
            .collect(),
        pipelined_detail: (0..rng.range_usize(0, 3))
            .map(|_| {
                (
                    LoopId(rng.range_u32(0, 32)),
                    (0..rng.range_usize(0, 4))
                        .map(|_| BlockId(rng.range_u32(0, 128)))
                        .collect(),
                    rng.range_u32(1, 16),
                )
            })
            .collect(),
        interfaces: (0..rng.range_usize(0, 6))
            .map(|_| {
                (
                    InstrId(rng.range_u32(0, 512)),
                    InterfaceSpec {
                        kind: *rng.choose(&KINDS),
                        banks: rng.range_u32(1, 64) as u16,
                        depth: rng.range_u32(1, 64) as u16,
                        ports: rng.range_u32(1, 8) as u16,
                    },
                )
            })
            .collect(),
        seq_blocks: rng.range_usize(0, 32),
        accel_cycles_total: gen_f64(rng),
        area: gen_f64(rng),
        cpu_cycles: rng.next_u64(),
        entries: rng.next_u64(),
    }
}

fn gen_designs(rng: &mut Rng) -> Vec<AcceleratorDesign> {
    (0..rng.range_usize(0, 6))
        .map(|_| gen_design(rng))
        .collect()
}

fn gen_front(rng: &mut Rng) -> Vec<Solution> {
    (0..rng.range_usize(0, 5))
        .map(|_| Solution {
            kernels: (0..rng.range_usize(0, 4))
                .map(|_| SelectedKernel {
                    node: WpstNodeId(rng.range_u32(0, 256)),
                    design: gen_design(rng),
                })
                .collect(),
            area: gen_f64(rng),
            saved_seconds: gen_f64(rng),
        })
        .collect()
}

#[test]
fn prop_entry_roundtrip_is_bit_identical() {
    prop_check!(cases = 128, |rng| {
        let key = gen_key(rng);
        let designs = gen_designs(rng);
        let bytes = encode_entry(&key, &designs);
        let decoded = match decode_entry(&bytes, &key_bytes(&key)) {
            Ok(d) => d,
            Err(e) => return Err(format!("decode failed: {e}")),
        };
        prop_assert!(
            designs_bits_equal(&decoded, &designs),
            "decode(encode(designs)) not bit-identical ({} designs)",
            designs.len()
        );
        // determinism: encoding is a pure function of the value
        prop_assert!(bytes == encode_entry(&key, &designs));
        Ok(())
    });
}

#[test]
fn prop_front_roundtrip_is_bit_identical() {
    prop_check!(cases = 128, |rng| {
        let front = gen_front(rng);
        let mut e = Enc::new();
        encode_front(&mut e, &front);
        let bytes = e.finish();
        let decoded = match decode_front(&mut Dec::new(&bytes)) {
            Ok(f) => f,
            Err(e) => return Err(format!("decode failed: {e}")),
        };
        prop_assert!(
            fronts_bits_equal(&decoded, &front),
            "decode(encode(front)) not bit-identical ({} solutions)",
            front.len()
        );
        Ok(())
    });
}

#[test]
fn prop_any_single_byte_corruption_fails_closed() {
    prop_check!(cases = 128, |rng| {
        let key = gen_key(rng);
        let designs = gen_designs(rng);
        let mut bytes = encode_entry(&key, &designs);
        let victim = rng.range_usize(0, bytes.len() - 1);
        let flip = 1u8 << rng.range_u32(0, 7);
        bytes[victim] ^= flip;
        prop_assert!(
            decode_entry(&bytes, &key_bytes(&key)).is_err(),
            "flipping bit {flip:#x} of byte {victim}/{} decoded successfully",
            bytes.len()
        );
        Ok(())
    });
}

#[test]
fn prop_differing_keys_never_alias() {
    prop_check!(cases = 128, |rng| {
        let a = gen_key(rng);
        let b = gen_key(rng);
        if a == b {
            return Ok(()); // astronomically unlikely; nothing to test
        }
        prop_assert!(
            key_bytes(&a) != key_bytes(&b),
            "distinct keys encoded to identical canonical bytes"
        );
        let bytes = encode_entry(&a, &gen_designs(rng));
        prop_assert!(
            decode_entry(&bytes, &key_bytes(&b)).is_err(),
            "entry for one key decoded under another"
        );
        Ok(())
    });
}
