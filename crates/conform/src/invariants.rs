//! Place and transition invariants via the incidence matrix.
//!
//! The incidence matrix `C` of a net has one row per place and one column
//! per transition, with `C[p][t] = (tokens t deposits on p) − (tokens t
//! removes from p)`. Two classical invariant notions follow:
//!
//! * a **T-invariant** is a column-space annulator `x ≥ 0` with `C·x = 0`:
//!   firing each transition `x[t]` times reproduces the marking. A net
//!   with a strictly positive T-invariant is *consistent* (Appendix A.4 of
//!   the paper); for connected marked graphs the all-ones vector works,
//!   which is why a cyclic frustum fires every transition equally often.
//! * an **S-invariant** is a row-space annulator `y ≥ 0` with `yᵀ·C = 0`:
//!   the weighted token sum `Σ y[p]·M(p)` is conserved by every firing.
//!   In a marked graph every simple cycle's places form an S-invariant —
//!   the token-count-invariance of cycles that underlies the whole
//!   cycle-time theory.
//!
//! Invariants are computed exactly over the rationals (fraction-free
//! Gaussian elimination on `i128`), returning integer basis vectors.

use tpn_petri::cycles::Cycle;
use tpn_petri::{PetriNet, PlaceId, TransitionId};

/// The incidence matrix as dense `i64` rows (place-major).
///
/// # Example
///
/// ```
/// use tpn_petri::PetriNet;
/// use tpn_conform::invariants::incidence_matrix;
///
/// let mut net = PetriNet::new();
/// let t = net.add_transition("t", 1);
/// let p = net.add_place("p");
/// let q = net.add_place("q");
/// net.connect_pt(p, t);
/// net.connect_tp(t, q);
/// let c = incidence_matrix(&net);
/// assert_eq!(c, vec![vec![-1], vec![1]]);
/// ```
pub fn incidence_matrix(net: &PetriNet) -> Vec<Vec<i64>> {
    let mut c = vec![vec![0i64; net.num_transitions()]; net.num_places()];
    for (tid, t) in net.transitions() {
        for &p in t.outputs() {
            c[p.index()][tid.index()] += 1;
        }
        for &p in t.inputs() {
            c[p.index()][tid.index()] -= 1;
        }
    }
    c
}

/// An integer basis of the right nullspace of `matrix` (vectors `x` with
/// `matrix · x = 0`), computed by fraction-free Gaussian elimination.
/// Each basis vector is scaled to integers with positive leading free
/// variable and reduced by its gcd.
pub fn integer_nullspace(matrix: &[Vec<i64>]) -> Vec<Vec<i64>> {
    let rows = matrix.len();
    let cols = if rows == 0 { 0 } else { matrix[0].len() };
    if cols == 0 {
        return Vec::new();
    }
    // Row-reduce a working copy over i128.
    let mut m: Vec<Vec<i128>> = matrix
        .iter()
        .map(|r| r.iter().map(|&v| v as i128).collect())
        .collect();
    let mut pivot_col_of_row = Vec::new();
    let mut r = 0usize;
    for col in 0..cols {
        // Find a pivot.
        let Some(pr) = (r..rows).find(|&i| m[i][col] != 0) else {
            continue;
        };
        m.swap(r, pr);
        // Eliminate this column from all other rows (fraction-free).
        let pivot = m[r][col];
        for i in 0..rows {
            if i == r || m[i][col] == 0 {
                continue;
            }
            let factor = m[i][col];
            let pivot_row = m[r].clone();
            for (cell, &pv) in m[i].iter_mut().zip(&pivot_row) {
                *cell = cell
                    .checked_mul(pivot)
                    .and_then(|a| a.checked_sub(factor.checked_mul(pv)?))
                    .expect("invariant elimination overflow");
            }
            // Keep entries small.
            let g = row_gcd(&m[i]);
            if g > 1 {
                for v in &mut m[i] {
                    *v /= g;
                }
            }
        }
        pivot_col_of_row.push(col);
        r += 1;
        if r == rows {
            break;
        }
    }
    let pivot_cols: Vec<usize> = pivot_col_of_row.clone();
    let is_pivot = |c: usize| pivot_cols.contains(&c);

    // One basis vector per free column.
    let mut basis = Vec::new();
    for free in (0..cols).filter(|&c| !is_pivot(c)) {
        // Solve with free column = 1, other free columns = 0. For each
        // pivot row: pivot·x[pc] + m[row][free]·1 = 0 (other frees zero,
        // other pivots eliminated), so x[pc] = −m[row][free] / pivot —
        // scale by lcm of pivots to stay integral.
        let mut num: Vec<i128> = vec![0; cols];
        num[free] = 1;
        let mut denom_lcm: i128 = 1;
        for (row, &pc) in pivot_cols.iter().enumerate() {
            let pivot = m[row][pc];
            if m[row][free] != 0 {
                denom_lcm = lcm(denom_lcm, pivot.abs());
            }
            let _ = pivot;
        }
        num[free] = denom_lcm;
        for (row, &pc) in pivot_cols.iter().enumerate() {
            let pivot = m[row][pc];
            num[pc] = -m[row][free] * (denom_lcm / pivot);
        }
        let g = row_gcd(&num);
        let vec: Vec<i64> = num
            .iter()
            .map(|&v| i64::try_from(v / g.max(1)).expect("basis entry fits i64"))
            .collect();
        basis.push(vec);
    }
    basis
}

fn row_gcd(row: &[i128]) -> i128 {
    let mut g: i128 = 0;
    for &v in row {
        g = gcd(g, v.abs());
    }
    g.max(1)
}

fn gcd(mut a: i128, mut b: i128) -> i128 {
    while b != 0 {
        let r = a % b;
        a = b;
        b = r;
    }
    a.abs()
}

fn lcm(a: i128, b: i128) -> i128 {
    if a == 0 || b == 0 {
        return 0;
    }
    (a / gcd(a, b)) * b
}

/// The identity basis of dimension `n` (for degenerate zero-constraint
/// cases, where the nullspace is the whole space).
fn identity_basis(n: usize) -> Vec<Vec<i64>> {
    (0..n)
        .map(|i| {
            let mut v = vec![0i64; n];
            v[i] = 1;
            v
        })
        .collect()
}

/// T-invariants: an integer basis of `{x : C·x = 0}`, one entry per
/// transition. A net with no places constrains nothing: the basis is the
/// identity.
pub fn t_invariants(net: &PetriNet) -> Vec<Vec<i64>> {
    if net.num_places() == 0 {
        return identity_basis(net.num_transitions());
    }
    integer_nullspace(&incidence_matrix(net))
}

/// S-invariants: an integer basis of `{y : yᵀ·C = 0}`, one entry per
/// place (the nullspace of the transpose). A net with no transitions
/// constrains nothing: the basis is the identity.
pub fn s_invariants(net: &PetriNet) -> Vec<Vec<i64>> {
    if net.num_transitions() == 0 {
        return identity_basis(net.num_places());
    }
    let c = incidence_matrix(net);
    let rows = c.len();
    let cols = if rows == 0 { 0 } else { c[0].len() };
    let transpose: Vec<Vec<i64>> = (0..cols)
        .map(|j| (0..rows).map(|i| c[i][j]).collect())
        .collect();
    integer_nullspace(&transpose)
}

/// Whether the net is consistent (Appendix A.4): some strictly positive
/// `x` with `C·x = 0`. For connected marked graphs this reduces to the
/// all-ones vector; in general a positive vector is sought as a positive
/// combination of the nullspace basis (sufficient here because marked
/// graphs — the nets of this crate — have componentwise all-ones
/// solutions, one per weakly-connected component).
pub fn is_consistent(net: &PetriNet) -> bool {
    if net.num_transitions() == 0 {
        return true;
    }
    let basis = t_invariants(net);
    if basis.is_empty() {
        return false;
    }
    // Try the sum of basis vectors with signs chosen per vector: for
    // marked graphs the basis vectors are indicator-like; a positive
    // combination exists iff flipping each vector's sign to make its
    // first nonzero entry positive yields a positive sum.
    let cols = net.num_transitions();
    let mut sum = vec![0i64; cols];
    for v in &basis {
        let sign = v
            .iter()
            .find(|&&x| x != 0)
            .map(|&x| if x > 0 { 1 } else { -1 })
            .unwrap_or(1);
        for (s, &x) in sum.iter_mut().zip(v) {
            *s += sign * x;
        }
    }
    sum.iter().all(|&s| s > 0)
}

/// The characteristic S-invariant of a simple cycle in a marked graph:
/// 1 on the cycle's places, 0 elsewhere. Verifies (and returns) it —
/// this is Theorem-A.5-style token conservation as an invariant.
///
/// # Panics
///
/// Panics if the cycle's places are not actually conserved (impossible
/// for cycles produced by [`tpn_petri::cycles::simple_cycles`]).
pub fn cycle_s_invariant(net: &PetriNet, cycle: &Cycle) -> Vec<i64> {
    let mut y = vec![0i64; net.num_places()];
    for &p in cycle.places() {
        y[p.index()] += 1;
    }
    assert!(
        is_s_invariant(net, &y),
        "a marked-graph cycle's places always form an S-invariant"
    );
    y
}

/// Checks `yᵀ·C = 0`.
pub fn is_s_invariant(net: &PetriNet, y: &[i64]) -> bool {
    assert_eq!(y.len(), net.num_places(), "one weight per place");
    net.transitions().all(|(_, t)| {
        let gain: i64 = t.outputs().iter().map(|p| y[p.index()]).sum();
        let loss: i64 = t.inputs().iter().map(|p| y[p.index()]).sum();
        gain == loss
    })
}

/// Checks `C·x = 0`.
pub fn is_t_invariant(net: &PetriNet, x: &[i64]) -> bool {
    assert_eq!(x.len(), net.num_transitions(), "one count per transition");
    net.places().all(|(_, place)| {
        let gain: i64 = place.preset().iter().map(|t| x[t.index()]).sum();
        let loss: i64 = place.postset().iter().map(|t| x[t.index()]).sum();
        gain == loss
    })
}

/// Ids of places with nonzero weight in an S-invariant (for reporting).
pub fn support_places(y: &[i64]) -> Vec<PlaceId> {
    y.iter()
        .enumerate()
        .filter(|(_, &w)| w != 0)
        .map(|(i, _)| PlaceId::from_index(i))
        .collect()
}

/// Ids of transitions with nonzero count in a T-invariant.
pub fn support_transitions(x: &[i64]) -> Vec<TransitionId> {
    x.iter()
        .enumerate()
        .filter(|(_, &w)| w != 0)
        .map(|(i, _)| TransitionId::from_index(i))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_petri::cycles::simple_cycles;
    use tpn_petri::Marking;

    fn ring(n: usize) -> PetriNet {
        let mut net = PetriNet::new();
        let ts: Vec<_> = (0..n)
            .map(|i| net.add_transition(format!("t{i}"), 1))
            .collect();
        for i in 0..n {
            let p = net.add_place(format!("p{i}"));
            net.connect_tp(ts[i], p);
            net.connect_pt(p, ts[(i + 1) % n]);
        }
        net
    }

    #[test]
    fn incidence_of_ring() {
        let net = ring(3);
        let c = incidence_matrix(&net);
        // Place p0: +1 from t0, -1 to t1.
        assert_eq!(c[0], vec![1, -1, 0]);
        assert_eq!(c[1], vec![0, 1, -1]);
        assert_eq!(c[2], vec![-1, 0, 1]);
    }

    #[test]
    fn ring_t_invariant_is_all_ones() {
        let net = ring(4);
        let basis = t_invariants(&net);
        assert_eq!(basis.len(), 1);
        assert!(is_t_invariant(&net, &basis[0]));
        // All-ones up to scale.
        let v = &basis[0];
        assert!(v.iter().all(|&x| x == v[0] && x != 0));
        assert!(is_consistent(&net));
    }

    #[test]
    fn ring_s_invariant_is_all_ones() {
        let net = ring(4);
        let basis = s_invariants(&net);
        assert_eq!(basis.len(), 1);
        assert!(is_s_invariant(&net, &basis[0]));
        assert_eq!(support_places(&basis[0]).len(), 4);
    }

    #[test]
    fn s_invariant_conserves_token_sums_under_firing() {
        let net = ring(3);
        let basis = s_invariants(&net);
        let y = &basis[0];
        let mut m = Marking::from_pairs(&net, [(PlaceId::from_index(0), 1)]);
        let weighted = |m: &Marking| -> i64 {
            net.place_ids()
                .map(|p| y[p.index()] * m.tokens(p) as i64)
                .sum()
        };
        let before = weighted(&m);
        m.fire(&net, TransitionId::from_index(1));
        assert_eq!(weighted(&m), before);
        m.fire(&net, TransitionId::from_index(2));
        assert_eq!(weighted(&m), before);
    }

    #[test]
    fn every_simple_cycle_is_an_s_invariant() {
        // Ring plus a chord: 2 cycles, both conserved.
        let mut net = ring(3);
        let chord = net.add_place("chord");
        net.connect_tp(TransitionId::from_index(1), chord);
        net.connect_pt(chord, TransitionId::from_index(0));
        for cycle in simple_cycles(&net, 64).unwrap() {
            let y = cycle_s_invariant(&net, &cycle);
            assert!(is_s_invariant(&net, &y));
        }
    }

    #[test]
    fn acyclic_net_has_no_t_invariant() {
        let mut net = PetriNet::new();
        let a = net.add_transition("a", 1);
        let b = net.add_transition("b", 1);
        let p = net.add_place("p");
        net.connect_tp(a, p);
        net.connect_pt(p, b);
        let basis = t_invariants(&net);
        // C = [1, -1]: nullspace is spanned by (1,1)?? No: 1·x0 - 1·x1 = 0
        // => x0 = x1: the (1,1) vector. Firing both once conserves p.
        assert_eq!(basis.len(), 1);
        assert!(is_t_invariant(&net, &basis[0]));
        // But the net has no cycle: (1,1) is "fire a then b", which indeed
        // returns p to empty. Consistency (a cyclic firing sequence
        // exists from SOME marking) holds, matching Theorem A.4.1.
        assert!(is_consistent(&net));
    }

    #[test]
    fn source_sink_net_is_inconsistent() {
        // A transition that only produces can never be balanced.
        let mut net = PetriNet::new();
        let src = net.add_transition("src", 1);
        let sink = net.add_transition("sink", 1);
        let p = net.add_place("p");
        let q = net.add_place("q");
        net.connect_tp(src, p);
        net.connect_pt(p, sink);
        net.connect_tp(sink, q);
        // q accumulates: no nonzero firing vector conserves it.
        assert!(!is_consistent(&net));
        assert!(t_invariants(&net).is_empty());
    }

    #[test]
    fn disconnected_components_each_contribute_invariants() {
        let mut net = ring(3);
        // Second, disjoint 2-ring.
        let a = net.add_transition("a", 1);
        let b = net.add_transition("b", 1);
        let p = net.add_place("pa");
        let q = net.add_place("pb");
        net.connect_tp(a, p);
        net.connect_pt(p, b);
        net.connect_tp(b, q);
        net.connect_pt(q, a);
        let basis = t_invariants(&net);
        assert_eq!(basis.len(), 2);
        for v in &basis {
            assert!(is_t_invariant(&net, v));
        }
        assert!(is_consistent(&net));
    }

    #[test]
    fn placeless_net_is_trivially_consistent() {
        let mut net = PetriNet::new();
        net.add_transition("a", 1);
        net.add_transition("b", 1);
        let basis = t_invariants(&net);
        assert_eq!(basis.len(), 2);
        assert!(is_consistent(&net));
    }

    #[test]
    fn transitionless_net_has_identity_s_invariants() {
        let mut net = PetriNet::new();
        net.add_place("p");
        net.add_place("q");
        let basis = s_invariants(&net);
        assert_eq!(basis.len(), 2);
        for y in &basis {
            assert!(is_s_invariant(&net, y));
        }
    }

    #[test]
    fn nullspace_of_full_rank_matrix_is_empty() {
        let m = vec![vec![1, 0], vec![0, 1]];
        assert!(integer_nullspace(&m).is_empty());
    }

    #[test]
    fn nullspace_handles_rationals_exactly() {
        // 2x + 3y - z = 0 ; x - y = 0  =>  x = y, z = 5x: basis (1,1,5).
        let m = vec![vec![2, 3, -1], vec![1, -1, 0]];
        let basis = integer_nullspace(&m);
        assert_eq!(basis.len(), 1);
        let v = &basis[0];
        // Scale-invariant check.
        assert_eq!(v[0], v[1]);
        assert_eq!(v[2], 5 * v[0]);
    }
}
