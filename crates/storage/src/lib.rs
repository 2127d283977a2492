//! Minimum storage allocation under time-optimal scheduling (§6).
//!
//! Each forward/feedback data arc of an SDSP is backed by one storage
//! location, signalled free by its acknowledgement arc; the loop's storage
//! allocation is the number of acknowledgement arcs. The *balancing ratio*
//! of a cycle is `M(C)/Ω(C)` — tokens per cycle time — and the **critical
//! cycles** (smallest balancing ratio) fix the loop's maximum computation
//! rate. Cycles made entirely of data arcs cannot be changed without
//! changing the program, but acknowledgement structure is free: §6 of the
//! paper observes that the acknowledgements of consecutive data arcs on
//! *non-critical* cycles can be coalesced — one location serving a chain —
//! without lowering the computation rate, as long as no new cycle becomes
//! more critical than the existing critical cycle.
//!
//! [`minimize_storage`] implements that optimisation as a greedy chain
//! coalescer with **exact verification**: a candidate merge is accepted
//! only if the rewritten SDSP-PN's critical cycle time stays exactly
//! `α* = p/q`. The critical ratio is solved once, by
//! [`MarkedArcs::critical_ratio`]; its scaled potentials `σ′`
//! ([`MarkedArcs::scaled_potentials`]), which satisfy
//! `σ′_v − σ′_u ≥ q·τ_u − p·m` on every place `u → v` holding `m` tokens,
//! then decide each merge locally. A merge removes two acknowledgement
//! places, which cannot create a cycle, and adds one place `u → v`:
//!
//! * if `σ′` already satisfies the new place, no cycle beats `α*`;
//! * otherwise a longest-path repair from `v` either settles, leaving
//!   potentials feasible for the merged net, or raises `u`, which proves
//!   a cycle through the new place beats `α*`;
//! * `α*` itself is never lost: a critical cycle through a removed place
//!   combines with the two chains into a closed walk that either beats
//!   `α*` through the new place (so the merge is rejected anyway) or
//!   attains `α*` without the removed places (the argument is on
//!   `MergeCheck::admits`).
//!
//! That is the same question re-solving each candidate's critical ratio
//! answers, at the cost of one solve per call. The re-solving greedy
//! survives as `tpn_conform::minimize_storage_reference`, and property
//! tests hold the two to identical results. On the paper's loop L2 it
//! reproduces Figure 4 exactly: the acknowledgements of `A→B` and `B→D`
//! merge into one `D→A` arc, saving 1/6 of the storage at an unchanged
//! rate of 1/3.

use tpn_dataflow::to_petri::{to_marked_arcs, to_petri};
use tpn_dataflow::{AckArc, DataflowError, NodeId, Sdsp};
use tpn_petri::marked::MarkedArcs;
use tpn_petri::ratio::{analyze_cycles, critical_ratio, LongestPaths, Relaxation};
use tpn_petri::rational::Ratio;
use tpn_petri::PetriError;

/// Errors from storage analysis.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum StorageError {
    /// The underlying net analysis failed (dead or malformed net).
    Petri(PetriError),
    /// Rewriting the acknowledgement structure failed.
    Dataflow(DataflowError),
    /// Cycle enumeration aborted: the SDSP-PN has more than `limit` simple
    /// cycles, so the balancing report cannot be produced at this limit.
    TooManyCycles {
        /// The enumeration limit that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Petri(e) => write!(f, "{e}"),
            StorageError::Dataflow(e) => write!(f, "{e}"),
            StorageError::TooManyCycles { limit } => write!(
                f,
                "the SDSP-PN has more than {limit} simple cycles; \
                 raise the cycle limit to analyse this net"
            ),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<PetriError> for StorageError {
    fn from(e: PetriError) -> Self {
        match e {
            PetriError::TooManyCycles { limit } => StorageError::TooManyCycles { limit },
            other => StorageError::Petri(other),
        }
    }
}

impl From<DataflowError> for StorageError {
    fn from(e: DataflowError) -> Self {
        StorageError::Dataflow(e)
    }
}

/// One cycle of the SDSP-PN mapped back to loop nodes, with its balancing
/// ratio.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CycleReport {
    /// The loop nodes on the cycle, in cycle order (acknowledgement hops
    /// revisit nodes, so names may repeat).
    pub nodes: Vec<NodeId>,
    /// Token sum `M(C)`.
    pub token_sum: u64,
    /// Execution-time sum `Ω(C)`.
    pub time_sum: u64,
    /// The balancing ratio `M(C)/Ω(C)`.
    pub ratio: Ratio,
    /// Whether this cycle is critical (minimum balancing ratio).
    pub critical: bool,
}

/// Enumerates every simple cycle of the loop's SDSP-PN with its balancing
/// ratio (§6's analysis table).
///
/// # Errors
///
/// Analysis errors for malformed or dead nets, or
/// [`PetriError::TooManyCycles`] beyond `limit`.
pub fn balancing_report(sdsp: &Sdsp, limit: usize) -> Result<Vec<CycleReport>, StorageError> {
    let pn = to_petri(sdsp);
    let analysis = analyze_cycles(&pn.net, &pn.marking, limit)?;
    Ok(analysis
        .cycles
        .iter()
        .enumerate()
        .map(|(i, info)| CycleReport {
            nodes: info
                .cycle
                .transitions()
                .iter()
                .map(|t| NodeId::from_index(t.index()))
                .collect(),
            token_sum: info.token_sum,
            time_sum: info.time_sum,
            ratio: Ratio::new(info.token_sum, info.time_sum),
            critical: analysis.critical.contains(&i),
        })
        .collect())
}

/// A merge performed by the optimiser.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CoalescedGroup {
    /// The producer that now waits on the shared location.
    pub to: NodeId,
    /// The consumer that now releases it.
    pub from: NodeId,
    /// How many data arcs share the location.
    pub arcs: usize,
}

/// The outcome of [`minimize_storage`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageReport {
    /// Locations before optimisation (one per data arc).
    pub before: usize,
    /// Locations after optimisation.
    pub after: usize,
    /// The multi-arc acknowledgement groups of the result.
    pub groups: Vec<CoalescedGroup>,
    /// The (unchanged) optimal cycle time.
    pub cycle_time: Ratio,
}

impl StorageReport {
    /// Locations saved.
    pub fn saved(&self) -> usize {
        self.before - self.after
    }

    /// Fraction of storage saved (the paper reports 1/6 for L2); `0` for a
    /// loop with no locations to save.
    pub fn saving_fraction(&self) -> Ratio {
        if self.before == 0 {
            return Ratio::ZERO;
        }
        Ratio::new(self.saved() as u64, self.before as u64)
    }
}

/// Minimises the loop's storage allocation without lowering its optimal
/// computation rate.
///
/// Greedily merges acknowledgement groups of consecutive data arcs
/// (`…→v` followed by `v→…`), accepting a merge only if the exact critical
/// cycle time of the rewritten SDSP-PN is unchanged, until no merge is
/// acceptable. Returns the optimised SDSP and a report. The critical
/// ratio is solved once; each merge is then checked against its
/// potentials (see the [crate docs](crate)).
///
/// The paper's Figure 4 illustrates a *single* such merge on loop L2
/// (saving 1/6 of the storage); running the greedy loop to fixpoint
/// typically saves more — on L2 it reaches 3 of 6 locations at the same
/// rate of 1/3. Use [`minimize_storage_steps`] with `max_merges = 1` to
/// reproduce the figure exactly.
///
/// # Errors
///
/// Analysis errors for malformed or dead nets.
///
/// # Example
///
/// Loop L2 (§6 of the paper):
///
/// ```
/// use tpn_lang::compile;
/// use tpn_storage::{minimize_storage, minimize_storage_steps};
///
/// let sdsp = compile(
///     "do i from 1 to n {
///        A[i] := X[i] + 5;
///        B[i] := Y[i] + A[i];
///        C[i] := A[i] + E[i-1];
///        D[i] := B[i] + C[i];
///        E[i] := W[i] + D[i];
///      }",
/// )?;
/// // Figure 4: one merge, 6 -> 5 locations, 1/6 saved.
/// let (_, fig4) = minimize_storage_steps(&sdsp, 1)?;
/// assert_eq!((fig4.before, fig4.after), (6, 5));
/// assert_eq!(fig4.saving_fraction().to_string(), "1/6");
/// // Fixpoint: 6 -> 3 locations, rate still 1/3.
/// let (optimised, full) = minimize_storage(&sdsp)?;
/// assert_eq!(full.after, 3);
/// assert_eq!(optimised.storage_locations(), 3);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn minimize_storage(sdsp: &Sdsp) -> Result<(Sdsp, StorageReport), StorageError> {
    minimize_storage_steps(sdsp, usize::MAX)
}

/// [`minimize_storage`] limited to at most `max_merges` accepted merges
/// (with `1`, reproduces the paper's Figure 4 on loop L2).
///
/// Candidates are tried in acknowledgement order: for each `i`, every `j`
/// whose chain begins where `i`'s ends, in increasing `j`. A candidate
/// whose chains hold more than one token is skipped (two live values
/// cannot share one location). The first acceptable merge is applied,
/// its acknowledgement is appended last, and the scan restarts from the
/// first acknowledgement.
///
/// # Errors
///
/// Analysis errors for malformed or dead nets.
pub fn minimize_storage_steps(
    sdsp: &Sdsp,
    max_merges: usize,
) -> Result<(Sdsp, StorageReport), StorageError> {
    let before = sdsp.storage_locations();
    // The SDSP-PN's arcs suffice: building the net itself would cost
    // several solves.
    let (arcs, place_of_ack) = to_marked_arcs(sdsp);
    let target = arcs.critical_ratio()?.cycle_time;
    let mut check = MergeCheck::new(&arcs, place_of_ack, target)?;

    // The acknowledgements in the greedy's order, with the initial tokens
    // on each one's chain.
    let mut acks: Vec<AckArc> = sdsp.acks().map(|(_, a)| a.clone()).collect();
    let mut tokens: Vec<u32> = acks
        .iter()
        .map(|a| {
            a.covers
                .iter()
                .map(|&arc| sdsp.arc(arc).initial_tokens())
                .sum()
        })
        .collect();
    let mut merges = 0usize;
    while merges < max_merges {
        let Some((merged, i, j)) = next_merge(&acks, sdsp.num_nodes(), &tokens, &mut check) else {
            break;
        };
        tokens = merged_order(tokens.iter().copied(), i, j, tokens[i] + tokens[j]);
        acks = merged_order(acks.into_iter(), i, j, merged);
        merges += 1;
    }
    // Every merge joins two valid chains into one valid chain: chain i
    // ends where chain j begins, so the covers stay contiguous; the
    // capacity is the smaller of two capacities ≥ 1; `next_merge` bounds
    // the chain's tokens by it; and i ≠ j, so every data arc is still
    // covered exactly once. Validation therefore cannot fail here, and
    // validating once, not once per merge, is enough. An error is a bug in
    // that argument, and is returned rather than hidden.
    let current = sdsp.with_acks(acks)?;

    let groups = current
        .acks()
        .filter(|(_, a)| a.covers.len() > 1)
        .map(|(_, a)| CoalescedGroup {
            to: a.to,
            from: a.from,
            arcs: a.covers.len(),
        })
        .collect();
    let report = StorageReport {
        before,
        after: current.storage_locations(),
        groups,
        cycle_time: target,
    };
    Ok((current, report))
}

/// The greedy's next merge: the first admitted candidate `(i, j)` in
/// acknowledgement order, as the merged acknowledgement, with `check`
/// committed to it. `tokens[k]` counts the initial tokens on
/// acknowledgement `k`'s chain, and `nodes` is the loop's node count.
fn next_merge(
    acks: &[AckArc],
    nodes: usize,
    tokens: &[u32],
    check: &mut MergeCheck,
) -> Option<(AckArc, usize, usize)> {
    let partners = ByTo::new(acks, nodes);
    for (i, ack) in acks.iter().enumerate() {
        // Chain i ends where chain j begins.
        for &j in partners.get(ack.from) {
            if j == i || tokens[i] + tokens[j] > 1 {
                continue; // two live values cannot share one location
            }
            let capacity = ack.capacity.min(acks[j].capacity);
            let Some(free) = capacity.checked_sub(tokens[i] + tokens[j]) else {
                continue; // overfull: more live values than locations
            };
            let (from, to) = (acks[j].from, ack.to);
            let Some(merge) = check.admits(i, j, from.index(), to.index(), free) else {
                continue;
            };
            check.commit(merge);
            let mut covers = ack.covers.clone();
            covers.extend_from_slice(&acks[j].covers);
            let merged = AckArc {
                from,
                to,
                covers,
                capacity,
            };
            return Some((merged, i, j));
        }
    }
    None
}

/// `items` without positions `i` and `j`, with `last` appended: the order
/// the greedy keeps its acknowledgements in after a merge.
fn merged_order<T>(items: impl Iterator<Item = T>, i: usize, j: usize, last: T) -> Vec<T> {
    items
        .enumerate()
        .filter(|&(k, _)| k != i && k != j)
        .map(|(_, item)| item)
        .chain(std::iter::once(last))
        .collect()
}

/// Acknowledgement indices grouped by their `to` node, each group in
/// increasing index (CSR form), so a pass finds every candidate pair in
/// O(A) instead of scanning all A² pairs.
struct ByTo {
    start: Vec<usize>,
    acks: Vec<usize>,
}

impl ByTo {
    fn new(acks: &[AckArc], nodes: usize) -> Self {
        let mut start = vec![0usize; nodes + 1];
        for ack in acks {
            start[ack.to.index() + 1] += 1;
        }
        for v in 0..nodes {
            start[v + 1] += start[v];
        }
        let mut fill = start[..nodes].to_vec();
        let mut order = vec![0usize; acks.len()];
        for (k, ack) in acks.iter().enumerate() {
            order[fill[ack.to.index()]] = k;
            fill[ack.to.index()] += 1;
        }
        ByTo { start, acks: order }
    }

    /// The acknowledgements whose chain begins at `node`.
    fn get(&self, node: NodeId) -> &[usize] {
        &self.acks[self.start[node.index()]..self.start[node.index() + 1]]
    }
}

/// A scaled place `(from, to, q·τ_from − p·m)` of the SDSP-PN, by
/// transition index (transition `k` is loop node `k`).
type Place = (usize, usize, i128);

/// The merge check: scaled potentials `σ′` feasible for the current
/// merged net at `α* = p/q`, and the net's places as the potentials see
/// them.
struct MergeCheck {
    p: i128,
    q: i128,
    /// Execution time of each transition.
    tau: Vec<i128>,
    /// `σ′_to − σ′_from ≥ weight` on every live place.
    sigma: Vec<i128>,
    /// Every place seen so far; removed ones stay, unlinked from `head`.
    places: Vec<Place>,
    /// The first live place leaving each transition, linked through
    /// `next` to the others (`NONE` ends a list).
    head: Vec<usize>,
    next: Vec<usize>,
    /// The place of each acknowledgement, in the greedy's order (`None`
    /// for self-feedback, which has none).
    ack_place: Vec<Option<usize>>,
    relax: LongestPaths,
    /// `(transition, old σ′)` for every potential the pending merge
    /// raised.
    undo: Vec<(usize, i128)>,
}

/// Ends a list of places in [`MergeCheck`].
const NONE: usize = usize::MAX;

/// The live places leaving transition `x`.
fn out_places<'a>(
    head: &'a [usize],
    next: &'a [usize],
    x: usize,
) -> impl Iterator<Item = usize> + 'a {
    let live = |pl: usize| (pl != NONE).then_some(pl);
    std::iter::successors(live(head[x]), move |&pl| live(next[pl]))
}

/// A merge [`MergeCheck::admits`] accepted: acknowledgements `i` and `j`
/// lose their places, and `added` (if any) replaces them.
struct Merge {
    i: usize,
    j: usize,
    removed: [Option<usize>; 2],
    added: Option<Place>,
}

impl MergeCheck {
    fn new(
        arcs: &MarkedArcs,
        ack_place: Vec<Option<usize>>,
        cycle_time: Ratio,
    ) -> Result<Self, StorageError> {
        let sigma = arcs.scaled_potentials(cycle_time)?;
        let (p, q) = (cycle_time.numer() as i128, cycle_time.denom() as i128);
        let tau: Vec<i128> = arcs.times.iter().map(|&t| t as i128).collect();
        let places: Vec<Place> = arcs
            .places
            .iter()
            .map(|&(from, to, m)| (from, to, q * tau[from] - p * i128::from(m)))
            .collect();
        let mut head = vec![NONE; tau.len()];
        let mut next = vec![NONE; places.len()];
        for (k, &(from, _, _)) in places.iter().enumerate() {
            next[k] = head[from];
            head[from] = k;
        }
        Ok(MergeCheck {
            p,
            q,
            tau,
            sigma,
            places,
            head,
            next,
            ack_place,
            relax: LongestPaths::default(),
            undo: Vec::new(),
        })
    }

    /// Whether merging acknowledgements `i` and `j` into one place
    /// `u → v` holding `free` tokens keeps the critical cycle time at
    /// exactly `α*`: whether the merged net has no cycle of positive
    /// weight. On acceptance the potentials stay raised for the merged
    /// net until [`commit`](Self::commit) or [`rollback`](Self::rollback).
    ///
    /// No cycle beating `α*` is the whole condition, because a merge never
    /// loses `α*` on its own. Let ack `i` cover the data path `v ⇝ w` and
    /// ack `j` the path `w ⇝ u`, and let `C` be a critical cycle (weight
    /// 0) through a removed place. If `C` uses only `w → v`, then `C`'s
    /// path `v ⇝ w`, chain `j` and the new place close a walk of weight
    /// `q·(τ of chain j past w) + p·(cap_i − min cap) > 0`; if only
    /// `u → w`, chain `i` with `C`'s path `w ⇝ u` and the new place weigh
    /// `q·(τ of chain i before w) + p·(cap_j − min cap) > 0`; if both,
    /// shortcutting `u → w → v` by `u → v` adds `p·max cap − q·τ_w`, which
    /// is positive unless `α* = τ_w = max τ`, attained by a self-loop. So
    /// the merge is rejected below. When the chains close on themselves
    /// (`u = v`, no new place, one token on the joined data cycle), the
    /// same sums give walks of weight `q·(τ of the other chain's interior)
    /// + p·(cap − 1) ≥ 0` that avoid the removed places; no cycle beats
    /// `α*`, so they weigh exactly 0 and `α*` survives on them.
    fn admits(&mut self, i: usize, j: usize, u: usize, v: usize, free: u32) -> Option<Merge> {
        let removed = [self.ack_place[i], self.ack_place[j]];
        // A chain closing on itself needs no place (`to_petri` elides it),
        // and removing places cannot create a cycle.
        let added = (u != v).then(|| (u, v, self.q * self.tau[u] - self.p * i128::from(free)));
        self.undo.clear();
        if let Some((u, v, weight)) = added {
            let need = self.sigma[u] + weight;
            if self.sigma[v] < need {
                // Restore feasibility from v over the net without the
                // removed places; if u rises, the new place closes a
                // positive cycle.
                self.undo.push((v, self.sigma[v]));
                self.sigma[v] = need;
                let (places, head, next) = (&self.places, &self.head, &self.next);
                let outcome =
                    self.relax
                        .relax(&mut self.sigma, [v], Some(u), Some(&mut self.undo), |x| {
                            out_places(head, next, x)
                                .filter(move |pl| !removed.contains(&Some(*pl)))
                                .map(move |pl| (places[pl].1, places[pl].2))
                        });
                if outcome != Relaxation::Settled {
                    self.rollback();
                    return None;
                }
            }
        }
        Some(Merge {
            i,
            j,
            removed,
            added,
        })
    }

    /// Applies an admitted merge to the check's net.
    fn commit(&mut self, merge: Merge) {
        for pl in merge.removed.into_iter().flatten() {
            let from = self.places[pl].0;
            if self.head[from] == pl {
                self.head[from] = self.next[pl];
            } else {
                let before = out_places(&self.head, &self.next, from)
                    .find(|&k| self.next[k] == pl)
                    .expect("a live place is on its producer's list");
                self.next[before] = self.next[pl];
            }
        }
        let place = merge.added.map(|place| {
            let k = self.places.len();
            self.places.push(place);
            self.next.push(self.head[place.0]);
            self.head[place.0] = k;
            k
        });
        let order = self.ack_place.iter().copied();
        self.ack_place = merged_order(order, merge.i, merge.j, place);
    }

    /// Restores the potentials the last [`admits`](Self::admits) raised.
    fn rollback(&mut self) {
        for &(v, old) in self.undo.iter().rev() {
            self.sigma[v] = old;
        }
        self.undo.clear();
    }
}

/// The outcome of [`balance`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BalanceReport {
    /// The rate before balancing (single-buffered).
    pub rate_before: Ratio,
    /// The rate after balancing — the data-dependence bound.
    pub rate_after: Ratio,
    /// Storage locations before (Σ capacities).
    pub locations_before: usize,
    /// Storage locations after.
    pub locations_after: usize,
}

/// Balances the loop's buffering: raises acknowledgement capacities (the
/// FIFO-queued model of the paper's §7 future work) until the computation
/// rate reaches the **data-dependence bound** — the critical ratio over
/// cycles made of data arcs alone, which no buffering policy can beat.
///
/// With single buffering, a forward arc's acknowledgement round-trip caps
/// every producer/consumer pair at one firing per `τ(u) + τ(v)` cycles
/// (rate 1/2 for unit times) even in DOALL loops; double buffering lifts
/// the cap. Balancing computes, per acknowledgement chain, the capacity
/// needed for its cycle to meet the data bound, then repairs any remaining
/// slow cycle found by exact analysis. The inverse trade-off to
/// [`minimize_storage`]: spend locations to buy rate.
///
/// # Errors
///
/// Analysis errors for malformed or dead nets.
///
/// # Example
///
/// ```
/// use tpn_lang::compile;
/// use tpn_storage::balance;
///
/// // A DOALL chain is stuck at rate 1/2 with single buffering…
/// let sdsp = compile("doall i from 1 to n { A[i] := X[i] + 1; B[i] := A[i] * 2; }")?;
/// let (balanced, report) = balance(&sdsp)?;
/// assert_eq!(report.rate_before.to_string(), "1/2");
/// // …and reaches rate 1 with double buffering.
/// assert_eq!(report.rate_after.to_string(), "1");
/// assert_eq!(balanced.storage_locations(), 2); // one arc, capacity 2
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn balance(sdsp: &Sdsp) -> Result<(Sdsp, BalanceReport), StorageError> {
    let before_pn = to_petri(sdsp);
    let rate_before = critical_ratio(&before_pn.net, &before_pn.marking)?.rate;
    let locations_before = sdsp.storage_locations();

    // The data-dependence bound: critical ratio of the net with data arcs
    // only (drop every acknowledgement).
    let data_only = data_only_cycle_time(sdsp)?;

    // First pass: size each acknowledgement chain so its own cycle meets
    // the bound: (capacity + chain tokens) >= Ω(chain cycle) / α*.
    let mut acks: Vec<AckArc> = sdsp.acks().map(|(_, a)| a.clone()).collect();
    for ack in &mut acks {
        if ack.from == ack.to {
            continue; // the data cycle itself governs self-feedback
        }
        let mut omega: u64 = sdsp.node(ack.to).time;
        let mut chain_tokens: u64 = 0;
        for &arc in &ack.covers {
            omega += sdsp.node(sdsp.arc(arc).to).time;
            chain_tokens += sdsp.arc(arc).initial_tokens() as u64;
        }
        // required tokens m: Ω/m <= num/den  =>  m >= Ω·den/num.
        let needed = (omega * data_only.denom()).div_ceil(data_only.numer());
        let capacity = needed.saturating_sub(chain_tokens).max(1);
        ack.capacity = u32::try_from(capacity).expect("capacities are small");
    }
    let mut current = sdsp.with_acks(acks)?;

    // Repair pass: exact verification; bump a capacity on any remaining
    // slow cycle (cannot loop forever — every bump strictly lowers that
    // cycle's ratio toward the data bound).
    loop {
        let pn = to_petri(&current);
        let r = critical_ratio(&pn.net, &pn.marking)?;
        if r.cycle_time <= data_only {
            let report = BalanceReport {
                rate_before,
                rate_after: r.rate,
                locations_before,
                locations_after: current.storage_locations(),
            };
            return Ok((current, report));
        }
        let tpn_petri::ratio::CriticalWitness::Cycle(cycle) = &r.witness else {
            unreachable!("a self-loop bound never exceeds the data bound")
        };
        // Find an acknowledgement place on the witness cycle and widen it.
        let mut acks: Vec<AckArc> = current.acks().map(|(_, a)| a.clone()).collect();
        let ack_idx = cycle
            .places()
            .iter()
            .find_map(|p| pn.place_of_ack.iter().position(|&slot| slot == Some(*p)))
            .expect("a cycle above the data bound passes through an acknowledgement");
        acks[ack_idx].capacity += 1;
        current = current.with_acks(acks)?;
    }
}

/// Critical cycle time over data arcs alone (the buffering-independent
/// bound).
fn data_only_cycle_time(sdsp: &Sdsp) -> Result<Ratio, StorageError> {
    use tpn_petri::{Marking, PetriNet};
    let mut net = PetriNet::new();
    for (_, node) in sdsp.nodes() {
        net.add_transition(node.name.clone(), node.time);
    }
    let mut pairs = Vec::new();
    for (_, arc) in sdsp.arcs() {
        let p = net.add_place("d");
        net.connect_tp(tpn_petri::TransitionId::from_index(arc.from.index()), p);
        net.connect_pt(p, tpn_petri::TransitionId::from_index(arc.to.index()));
        if arc.initial_tokens() > 0 {
            pairs.push((p, arc.initial_tokens()));
        }
    }
    let marking = Marking::from_pairs(&net, pairs);
    Ok(critical_ratio(&net, &marking)?.cycle_time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpn_lang::compile;
    use tpn_petri::marked::check_live_safe;

    fn l2() -> Sdsp {
        compile(
            "do i from 1 to n {\
               A[i] := X[i] + 5;\
               B[i] := Y[i] + A[i];\
               C[i] := A[i] + E[i-1];\
               D[i] := B[i] + C[i];\
               E[i] := W[i] + D[i];\
             }",
        )
        .unwrap()
    }

    #[test]
    fn l2_balancing_report_identifies_cde_as_critical() {
        let sdsp = l2();
        let report = balancing_report(&sdsp, 256).unwrap();
        let critical: Vec<_> = report.iter().filter(|c| c.critical).collect();
        assert_eq!(critical.len(), 1);
        assert_eq!(critical[0].ratio, Ratio::new(1, 3));
        assert_eq!(critical[0].nodes.len(), 3);
        // Non-critical 2-cycles have balancing ratio 1/2.
        assert!(report
            .iter()
            .filter(|c| !c.critical && c.nodes.len() == 2)
            .all(|c| c.ratio == Ratio::new(1, 2)));
    }

    #[test]
    fn balancing_report_surfaces_the_exceeded_cycle_limit() {
        let err = balancing_report(&l2(), 1).unwrap_err();
        assert_eq!(err, StorageError::TooManyCycles { limit: 1 });
        let message = err.to_string();
        assert!(message.contains("more than 1 simple cycles"), "{message}");
        assert!(message.contains("raise the cycle limit"), "{message}");
    }

    #[test]
    fn l2_single_step_reproduces_figure_4() {
        // Figure 4: the acknowledgements of A->B and B->D merge into one
        // D->A arc: 6 -> 5 locations, saving 1/6.
        let sdsp = l2();
        let (optimised, report) = minimize_storage_steps(&sdsp, 1).unwrap();
        assert_eq!(report.before, 6);
        assert_eq!(report.after, 5);
        assert_eq!(report.saving_fraction(), Ratio::new(1, 6));
        assert_eq!(report.cycle_time, Ratio::new(3, 1));
        assert_eq!(report.groups.len(), 1);
        assert_eq!(report.groups[0].arcs, 2);
        let names = sdsp.names();
        assert_eq!(report.groups[0].to, names["A"]);
        assert_eq!(report.groups[0].from, names["D"]);
        let pn = to_petri(&optimised);
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn l2_fixpoint_saves_three_locations() {
        let (optimised, report) = minimize_storage(&l2()).unwrap();
        assert_eq!(report.before, 6);
        assert_eq!(report.after, 3);
        assert_eq!(report.saved(), 3);
        assert_eq!(report.cycle_time, Ratio::new(3, 1));
        assert!(!report.groups.is_empty());
        // The optimised net is still a live safe marked graph at the same
        // rate.
        let pn = to_petri(&optimised);
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
        assert_eq!(
            critical_ratio(&pn.net, &pn.marking).unwrap().cycle_time,
            Ratio::new(3, 1)
        );
    }

    #[test]
    fn doall_chain_coalesces_down_to_rate_limit() {
        // A pure chain with no LCD: the fwd/ack 2-cycles (ratio 1/2) are
        // critical, so no merge can keep the cycle time at 2 — a merged
        // chain of 2 arcs has ratio 1/3 < 1/2. Nothing merges.
        let sdsp = compile(
            "doall i from 1 to n { A[i] := X[i] + 1; B[i] := A[i] + 1; C[i] := B[i] + 1; }",
        )
        .unwrap();
        let (_, report) = minimize_storage(&sdsp).unwrap();
        assert_eq!(report.before, 2);
        assert_eq!(report.after, 2);
        assert!(report.groups.is_empty());
    }

    #[test]
    fn slow_recurrence_allows_deep_coalescing() {
        // A 6-deep recurrence: critical cycle time 6 permits chains of up
        // to 5 arcs per location on the forward path.
        let sdsp = compile(
            "do i from 1 to n {\
               A[i] := F[i-1] + 1;\
               B[i] := A[i] + 1;\
               C[i] := B[i] + 1;\
               D[i] := C[i] + 1;\
               E[i] := D[i] + 1;\
               F[i] := E[i] + 1;\
             }",
        )
        .unwrap();
        let (optimised, report) = minimize_storage(&sdsp).unwrap();
        assert_eq!(report.before, 6);
        assert!(report.after < report.before, "no saving found");
        let pn = to_petri(&optimised);
        assert_eq!(
            critical_ratio(&pn.net, &pn.marking).unwrap().cycle_time,
            Ratio::new(6, 1)
        );
        assert!(check_live_safe(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn single_node_loop_has_nothing_to_save() {
        let sdsp = compile("doall i from 1 to n { D[i] := Y[i+1] - Y[i]; }").unwrap();
        let (_, report) = minimize_storage(&sdsp).unwrap();
        assert_eq!(report.before, 0);
        assert_eq!(report.after, 0);
    }

    #[test]
    fn balancing_l1_reaches_rate_one() {
        // L1 is a DOALL: the data bound is 1 (only non-reentrance), while
        // single buffering caps it at 1/2. Double buffering suffices.
        let sdsp = compile(
            "doall i from 1 to n {\
               A[i] := X[i] + 5;\
               B[i] := Y[i] + A[i];\
               C[i] := A[i] + Z[i];\
               D[i] := B[i] + C[i];\
               E[i] := W[i] + D[i];\
             }",
        )
        .unwrap();
        let (balanced, report) = balance(&sdsp).unwrap();
        assert_eq!(report.rate_before, Ratio::new(1, 2));
        assert_eq!(report.rate_after, Ratio::ONE);
        // 5 arcs at capacity 2.
        assert_eq!(report.locations_after, 10);
        assert!(balanced.acks().all(|(_, a)| a.capacity == 2));
    }

    #[test]
    fn balancing_l2_reaches_the_recurrence_bound() {
        // L2's data bound is the C->D->E recurrence: 1/3. Balancing must
        // reach exactly 1/3, not more.
        let (balanced, report) = balance(&l2()).unwrap();
        assert_eq!(report.rate_before, Ratio::new(1, 3));
        assert_eq!(report.rate_after, Ratio::new(1, 3));
        // Already at the bound: capacities stay minimal (1 each).
        assert_eq!(report.locations_after, report.locations_before);
        let _ = balanced;
    }

    #[test]
    fn balancing_inner_product_reaches_rate_one() {
        // Loop 3: Q := old Q + Z*X. Data cycles: Q's self-loop (ratio 1).
        // The mul->add acknowledgement needs capacity 2.
        let sdsp = compile("do i from 1 to n { Q := old Q + Z[i] * X[i]; }").unwrap();
        let (balanced, report) = balance(&sdsp).unwrap();
        assert_eq!(report.rate_before, Ratio::new(1, 2));
        assert_eq!(report.rate_after, Ratio::ONE);
        let pn = to_petri(&balanced);
        // The balanced net is 2-bounded, not safe: FIFO queues of depth 2.
        assert!(check_live_safe(&pn.net, &pn.marking).is_err());
        assert!(tpn_petri::marked::check_live(&pn.net, &pn.marking).is_ok());
    }

    #[test]
    fn balanced_loop_actually_runs_at_the_data_bound() {
        use tpn_sched::frustum::detect_frustum_eager;
        let sdsp = compile(
            "doall i from 1 to n { A[i] := X[i] + 1; B[i] := A[i] * 2; C[i] := B[i] - 1; }",
        )
        .unwrap();
        let (balanced, report) = balance(&sdsp).unwrap();
        let pn = to_petri(&balanced);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 100_000).unwrap();
        for t in pn.net.transition_ids() {
            assert_eq!(f.rate_of(t), report.rate_after);
        }
        assert_eq!(report.rate_after, Ratio::ONE);
    }

    #[test]
    fn balancing_slow_nodes_respects_non_reentrance() {
        // A node of time 3 bounds the rate at 1/3 regardless of buffering.
        use tpn_dataflow::{OpKind, Operand, SdspBuilder};
        let mut b = SdspBuilder::new();
        let a = b.node("a", OpKind::Neg, [Operand::env("X", 0)]);
        let c = b.node("c", OpKind::Neg, [Operand::node(a)]);
        b.set_time(c, 3);
        let sdsp = b.finish().unwrap();
        let (_, report) = balance(&sdsp).unwrap();
        assert_eq!(report.rate_after, Ratio::new(1, 3));
    }

    #[test]
    fn optimised_schedule_preserves_semantics() {
        use tpn_dataflow::interp::Env;
        use tpn_sched::frustum::detect_frustum_eager;
        use tpn_sched::validate::replay_semantics;
        use tpn_sched::LoopSchedule;

        let sdsp = l2();
        let (optimised, _) = minimize_storage(&sdsp).unwrap();
        let pn = to_petri(&optimised);
        let f = detect_frustum_eager(&pn.net, pn.marking.clone(), 10_000).unwrap();
        let schedule = LoopSchedule::from_frustum(&optimised, &pn, &f).unwrap();
        let env = Env::ramp(&["X", "Y", "W"], 64, |ai, i| ai as f64 + i as f64);
        let outcome = replay_semantics(&optimised, &schedule, &env, 64).unwrap();
        assert!(outcome.semantics_preserved());
        // And the rate is still optimal.
        assert_eq!(schedule.rate(), Ratio::new(1, 3));
    }
}
