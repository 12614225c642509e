//! Every normalized function of every workload is pinned bit for bit.
//!
//! For each of the 132 workloads, every function is normalized at `-O1`,
//! then canonicalized as an `-O2` analysis shadow (`-O1` followed by the
//! address-canonicalization pipeline), and separately normalized at `-O2`.
//! The [`fingerprint_function`] of each result (every immediate by its
//! bits) goes into one FNV-1a digest, which must equal the digest recorded
//! before the passes were reshaped. A pass change that moves one operand,
//! renumbers one value or reorders one block, in any function, fails here
//! even when every program still computes the same output.

use cayman_ir::fingerprint::fnv1a_u64s;
use cayman_ir::fingerprint_function;
use cayman_ir::transform::{normalize, OptLevel, PassManager};

/// The digest of every normalized function, recorded while each pass still
/// had a module-level driver beside its per-function one.
const NORMALIZE_DIGEST: u64 = 0x7a85_e0da_e311_42b9;
/// How many normalized functions the digest covers: 214 functions, each at
/// `-O1`, as a shadow and at `-O2`.
const NORMALIZE_COUNT: usize = 642;

#[test]
fn every_normalized_function_is_pinned() {
    let workloads = cayman_workloads::full();
    // Per workload its `-O1` prints, then its shadow prints; the `-O2`
    // prints of every workload follow.
    let mut prints = Vec::new();
    for w in &workloads {
        let mut o1 = w.module.clone();
        normalize(&mut o1, OptLevel::O1, false).expect("O1 normalizes");
        prints.extend(o1.functions.iter().map(fingerprint_function));
        let mut shadow = o1.clone();
        for f in o1.function_ids() {
            PassManager::address_canon()
                .run_function(&mut shadow, f)
                .expect("address_canon never verifies, so never fails");
        }
        prints.extend(shadow.functions.iter().map(fingerprint_function));
    }
    for w in &workloads {
        let mut o2 = w.module.clone();
        normalize(&mut o2, OptLevel::O2, false).expect("O2 normalizes");
        prints.extend(o2.functions.iter().map(fingerprint_function));
    }
    let digest = fnv1a_u64s(&prints);
    assert_eq!(
        (digest, prints.len()),
        (NORMALIZE_DIGEST, NORMALIZE_COUNT),
        "normalization digest {digest:#018x} over {} functions",
        prints.len()
    );
}
