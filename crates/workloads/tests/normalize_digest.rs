//! Every normalized function of every workload is pinned bit for bit.
//!
//! For each of the 132 workloads, every function is normalized at `-O1`,
//! then canonicalized as an `-O2` analysis shadow (`-O1` followed by the
//! address-canonicalization pipeline). The [`fingerprint_function`] of
//! each result (every immediate by its bits) goes into one FNV-1a digest,
//! which must equal the digest recorded before the pass driver was
//! reshaped. A pass change that moves one operand,
//! renumbers one value or reorders one block, in any function, fails here
//! even when every program still computes the same output.

use cayman_ir::fingerprint::fnv1a_u64s;
use cayman_ir::fingerprint_function;
use cayman_ir::transform::{normalize, OptLevel, PassManager};

/// The digest of every normalized function, recorded while the pass driver
/// still rewrote a function in place inside its module.
const NORMALIZE_DIGEST: u64 = 0xfce2_6cb9_e164_5dfc;
/// How many normalized functions the digest covers: 214 functions, each at
/// `-O1` and as a shadow.
const NORMALIZE_COUNT: usize = 428;

#[test]
fn every_normalized_function_is_pinned() {
    let workloads = cayman_workloads::full();
    // Per workload its `-O1` prints, then its shadow prints.
    let mut prints = Vec::new();
    for w in &workloads {
        let mut o1 = w.module.clone();
        normalize(&mut o1, OptLevel::O1, false).expect("O1 normalizes");
        prints.extend(o1.functions.iter().map(fingerprint_function));
        let mut shadow = o1.clone();
        for func in &mut shadow.functions {
            PassManager::address_canon()
                .run(&o1, func)
                .expect("address_canon never verifies, so never fails");
        }
        prints.extend(shadow.functions.iter().map(fingerprint_function));
    }
    let digest = fnv1a_u64s(&prints);
    assert_eq!(
        (digest, prints.len()),
        (NORMALIZE_DIGEST, NORMALIZE_COUNT),
        "normalization digest {digest:#018x} over {} functions",
        prints.len()
    );
}
