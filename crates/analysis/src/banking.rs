//! Legality analysis for partitioned memory interfaces.
//!
//! Two questions the HLS layer asks before it may assign an extended
//! interface to an array:
//!
//! * **Banked scratchpads** — do the `unroll` copies of an access with a
//!   known [`crate::scev::LinExpr`] stride hit pairwise-distinct
//!   banks under cyclic interleaving ([`bank_conflict_free`])? Only then do
//!   the extra bank ports actually raise throughput; a conflicting
//!   assignment would serialize at the bank and the modeled II would be a
//!   lie.
//! * **Line buffers** — do an array's loads inside a loop nest form a
//!   sliding window over two adjacent loop dimensions
//!   ([`stencil_window`])? Then rows can be retained in shift registers and
//!   only one new element fetched per iteration.
//!
//! Both are pure integer lemmas over analysis facts; they live here rather
//! than in `cayman-hls` so the property tests can pin them against
//! brute-force oracles without pulling in the cost model.

use crate::scev::LinExpr;
use cayman_ir::loops::LoopId;

/// Greatest common divisor (non-negative inputs, `gcd(0, b) = b`).
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while a != 0 {
        (a, b) = (b % a, a);
    }
    b
}

/// The largest unroll factor for which an access of the given element
/// stride is conflict-free across `banks` cyclically interleaved banks.
///
/// Unrolled copy `c` touches address `base + stride * c`; its bank is that
/// address mod `banks`. The bank sequence is periodic with period
/// `banks / gcd(|stride| mod banks, banks)`, so that period is exactly the
/// number of leading copies with pairwise-distinct banks. A stride that is
/// a multiple of `banks` (including 0) keeps every copy in one bank and
/// returns 1.
pub fn max_conflict_free_unroll(stride: i64, banks: u32) -> u32 {
    assert!(banks > 0, "a memory has at least one bank");
    let b = u64::from(banks);
    let s = stride.unsigned_abs() % b;
    (b / gcd(s, b)) as u32
}

/// Whether `unroll` parallel copies of an access with the given stride are
/// pairwise conflict-free across `banks` cyclic banks.
///
/// `unroll == 0` (no copies) and `unroll == 1` are trivially conflict-free.
pub fn bank_conflict_free(stride: i64, banks: u32, unroll: u32) -> bool {
    unroll <= 1 || unroll <= max_conflict_free_unroll(stride, banks)
}

/// A rectangular sliding window detected over an array's loads — the
/// legality fact behind a line-buffer interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StencilWindow {
    /// Window height: distinct row offsets (≥ 2, or a plain stream would do).
    pub rows: u32,
    /// Window width: distinct column offsets within a row.
    pub cols: u32,
    /// Elements per row of the underlying array (the `col_loop`-to-next-row
    /// distance); the line buffer stores `rows - 1` rows of this length.
    pub row_stride: i64,
}

/// Detects a stencil window over the flat affine addresses of one array's
/// loads, relative to a `(row_loop, col_loop)` nest.
///
/// Requirements, checked in order:
///
/// * every address is affine with **no** symbolic terms (a symbol means the
///   access pattern is input-dependent and no reuse window is provable);
/// * all addresses share identical IV coefficients — they are translates of
///   one another, differing only in the constant offset;
/// * the column coefficient is exactly 1 (unit stride along the streamed
///   dimension) and the row coefficient `W` is ≥ 2 (the array's row
///   length);
/// * the constant offsets, relative to the smallest, decompose as
///   `r * W + c` with `0 ≤ c < W`; the window is `(max r + 1)` rows by
///   `(max c + 1)` columns;
/// * at least two rows and at most `W` columns — a one-row window is an
///   ordinary stream and wants no line buffer.
pub fn stencil_window(
    addrs: &[LinExpr],
    row_loop: LoopId,
    col_loop: LoopId,
) -> Option<StencilWindow> {
    let (first, rest) = addrs.split_first()?;
    if !first.symbols.is_empty() || rest.iter().any(|a| !a.symbols.is_empty()) {
        return None;
    }
    if rest.iter().any(|a| a.iv_coeffs != first.iv_coeffs) {
        return None;
    }
    let w = first.coeff(row_loop);
    if first.coeff(col_loop) != 1 || w < 2 {
        return None;
    }
    let base = addrs.iter().map(|a| a.constant).min()?;
    let mut rows = 0i64;
    let mut cols = 0i64;
    for a in addrs {
        let delta = a.constant.checked_sub(base)?;
        let (r, c) = (delta.div_euclid(w), delta.rem_euclid(w));
        rows = rows.max(r + 1);
        cols = cols.max(c + 1);
    }
    // The decomposition is only meaningful while the window is narrower
    // than a row; `rows >= 2` is what distinguishes a stencil from a
    // stream.
    if rows < 2 || cols > w {
        return None;
    }
    Some(StencilWindow {
        rows: rows as u32,
        cols: cols as u32,
        row_stride: w,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cayman_ir::loops::LoopId;

    #[test]
    fn unit_stride_fills_every_bank() {
        assert_eq!(max_conflict_free_unroll(1, 4), 4);
        assert_eq!(max_conflict_free_unroll(-1, 4), 4);
        assert!(bank_conflict_free(1, 4, 4));
        assert!(!bank_conflict_free(1, 4, 5));
    }

    #[test]
    fn even_stride_on_power_of_two_banks_conflicts() {
        // stride 2 over 4 banks: copies hit banks {0, 2, 0, 2}.
        assert_eq!(max_conflict_free_unroll(2, 4), 2);
        assert!(bank_conflict_free(2, 4, 2));
        assert!(!bank_conflict_free(2, 4, 3));
        // stride 4 over 4 banks: everything lands in one bank.
        assert_eq!(max_conflict_free_unroll(4, 4), 1);
        assert!(!bank_conflict_free(4, 4, 2));
    }

    #[test]
    fn odd_strides_are_coprime_with_power_of_two_banks() {
        for s in [1i64, 3, 5, 7, 9, 31] {
            assert_eq!(max_conflict_free_unroll(s, 8), 8, "stride {s}");
        }
    }

    #[test]
    fn zero_and_degenerate_unrolls() {
        assert!(bank_conflict_free(0, 4, 1));
        assert!(bank_conflict_free(0, 4, 0));
        assert!(!bank_conflict_free(0, 4, 2));
    }

    fn addr(row: LoopId, col: LoopId, w: i64, off: i64) -> LinExpr {
        LinExpr::iv(row, w)
            .add(&LinExpr::iv(col, 1))
            .add(&LinExpr::constant(off))
    }

    #[test]
    fn three_by_three_window_is_detected() {
        let (row, col) = (LoopId(0), LoopId(1));
        let w = 7;
        let addrs: Vec<LinExpr> = (-1..=1)
            .flat_map(|r| (-1..=1).map(move |c| (r, c)))
            .map(|(r, c)| addr(row, col, w, r * w + c))
            .collect();
        let win = stencil_window(&addrs, row, col).expect("3x3 window");
        assert_eq!(
            win,
            StencilWindow {
                rows: 3,
                cols: 3,
                row_stride: w
            }
        );
    }

    #[test]
    fn single_row_is_not_a_stencil() {
        let (row, col) = (LoopId(0), LoopId(1));
        let addrs: Vec<LinExpr> = (0..3).map(|c| addr(row, col, 16, c)).collect();
        assert_eq!(stencil_window(&addrs, row, col), None);
    }

    #[test]
    fn mismatched_coefficients_or_symbols_bail() {
        let (row, col) = (LoopId(0), LoopId(1));
        let mut addrs = vec![addr(row, col, 8, 0), addr(row, col, 8, 8)];
        // A second load with a different column stride is no translate.
        addrs.push(LinExpr::iv(row, 8).add(&LinExpr::iv(col, 2)));
        assert_eq!(stencil_window(&addrs, row, col), None);

        let sym = LinExpr::symbol(cayman_ir::ValueId(3));
        let addrs = vec![addr(row, col, 8, 0), addr(row, col, 8, 8).add(&sym)];
        assert_eq!(stencil_window(&addrs, row, col), None);
    }

    #[test]
    fn vertical_only_window_counts_rows() {
        // Loads at offsets {-W, 0, +W}: a 3x1 column window.
        let (row, col) = (LoopId(0), LoopId(1));
        let w = 12;
        let addrs: Vec<LinExpr> = [-w, 0, w].iter().map(|&o| addr(row, col, w, o)).collect();
        let win = stencil_window(&addrs, row, col).expect("3x1 window");
        assert_eq!(win.rows, 3);
        assert_eq!(win.cols, 1);
    }
}
