"""Weighted all-pairs overlap analysis for ordered-search algorithms.

The central quantity is the weighted sum, over all pairs of instances, of the
inner products of their current states:

    W_j = sum over (a, b) of weight(a, b) * <state_a^j | state_b^j>

For the ordered-search weights (inverse answer distance) the initial value is
``n * H_n - n`` and no single query can move W by more than ``pi * n``. This
module computes W trajectories for steppable algorithms, decomposes each
per-query drop into the per-index mass vectors gamma and delta, and checks
the full inequality chain

    drop <= 2 * sum_d sum_i (1/d) gamma_i delta_(d-i-1)
         <= 2 * ||gamma|| * ||M|| * ||delta||
         <= pi * n

where M is the banded inverse-distance (Hankel) matrix, whose spectral norm
is capped by the norm of the same-size Hilbert matrix, itself below pi.

Algorithm protocol expected by :func:`run_trajectory`, which evolves the
states of all answers together as one :class:`~qordsearch.qcore.Ensemble`:

* ``n``: problem size, ``num_queries``: number of oracle rounds T;
* ``initial_state(instance)``: the state entering the first query, called
  once per instance. Honest from-scratch algorithms ignore ``instance``; the
  team-search combine uses it to stand in for knowledge acquired in rounds
  outside the trace.
* ``_rounds[j]`` for each query j: the round's shared (instance-independent)
  steps, run after the oracle call. Each step has ``kind`` "linear", whose
  ``image(label)`` lists the (label, coefficient) pairs of a unitary, or
  "permute", whose ``image(label)`` is one label. Each image is evaluated
  once per distinct label of the ensemble.

An algorithm with ``num_queries == 0`` needs no ``_rounds``. The per-answer
``advance(j, state, instance)`` of the algorithms runs the same steps on one
state; it is the reference the ensemble path is tested against.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .oracle import apply_query_ensemble, enumerate_instances
from .qcore import (
    BasisLabel,
    Ensemble,
    GenLabel,
    SparseState,
    apply_linear_ensemble,
    inner_product,
    permute_ensemble,
)

# Looser than state tolerances: the chain composes O(n^2) float sums.
CHAIN_TOL = 1e-8

# Above this size the spectral norm switches from a full symmetric
# eigensolve to deterministic power iteration.
EIGENSOLVE_LIMIT = 64


class ConvergenceError(RuntimeError):
    """Power iteration failed to reach tolerance within the iteration cap."""


# ---------------------------------------------------------------------------
# Scalar bound formulas


def harmonic(n: int) -> float:
    """n-th harmonic number, sum of 1/k for k = 1..n."""
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    return math.fsum(1.0 / k for k in range(1, n + 1))


def total_weight(n: int) -> float:
    """Total inverse-distance weight over all answer pairs: n*H_n - n."""
    if n < 1:
        raise ValueError(f"problem size must be positive, got {n}")
    return n * harmonic(n) - n


def distinguishability_threshold(eps: float) -> float:
    """Largest overlap magnitude allowing error probability at most eps."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"error probability must lie in [0, 1/2], got {eps}")
    return 2.0 * math.sqrt(eps * (1.0 - eps))


def query_lower_bound(W: float, Delta: float, eps: float) -> float:
    """Minimum query count when each query moves at most Delta of weight W."""
    if Delta <= 0:
        raise ValueError(f"per-query decrease bound must be positive, got {Delta}")
    if W < 0:
        raise ValueError(f"initial weight must be non-negative, got {W}")
    return (1.0 - distinguishability_threshold(eps)) * W / Delta


def ordered_search_bound(n: int, eps: float) -> float:
    """Query lower bound for ordered search: (1 - 2*sqrt(eps(1-eps)))*(H_n - 1)/pi."""
    if n < 2:
        raise ValueError(f"ordered-search bound needs n >= 2, got {n}")
    return (1.0 - distinguishability_threshold(eps)) * (harmonic(n) - 1.0) / math.pi


# ---------------------------------------------------------------------------
# Weights and overlaps


def _inverse_distance(a: int | np.ndarray, b: np.ndarray) -> np.ndarray:
    d = np.asarray(b, dtype=float) - a
    return np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)


@dataclass(frozen=True)
class WeightSpec:
    """Non-negative, finite pairwise weight over answers ``0 .. n-1``.

    ``weight(a, b)`` must broadcast: the overlap kernel passes an integer
    column of answers ``a`` (shape L x 1) and a row of answers ``b`` (shape
    R) and expects the L x R block of weights, while the reference loops
    pass two plain ints. Elementwise numpy arithmetic does both; the block
    must equal its rows ``weight(a_k, b)`` bit for bit.
    """

    n: int
    weight: Callable[[int | np.ndarray, int | np.ndarray], np.ndarray]

    @classmethod
    def inverse_distance(cls, n: int) -> "WeightSpec":
        """Ordered-search weights: 1/(b-a) for a < b, zero otherwise."""
        return cls(n=n, weight=_inverse_distance)

    def __call__(self, a: int | np.ndarray, b: int | np.ndarray) -> np.ndarray:
        values = np.asarray(self.weight(a, b), dtype=float)
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"weight has a non-finite entry {values[~finite][0]}")
        if (values < 0).any():
            raise ValueError(f"weight has a negative entry {values.min():.12g}")
        return values


def _check_state_count(count: int, w: WeightSpec) -> None:
    if count != w.n:
        raise ValueError(f"expected {w.n} states, got {count}")


# Weights evaluated per call of the weight function: bounds the temporary
# arrays of a long label column to a few MiB instead of n x n floats.
_BLOCK_ENTRIES = 1 << 18


def _weighted_gram(blocks, w: WeightSpec) -> complex:
    """Sum of w(a_p, a_q) * conj(x_p) * x_q over the pairs of each block.

    Each block is ``(left_answers, left_amps, right_answers, right_amps)``:
    the entries of one basis label, split into the sides a pair draws its
    first and second member from. The weights of a block come from one call
    ``w(left_answers[:, None], right_answers)``, or one per slice of rows
    when the block has more than ``_BLOCK_ENTRIES`` entries; each row of
    weights takes one dot with ``right_amps``, so every sum runs in the same
    order as a row-at-a-time evaluation. Memory grows with the block's
    left x right size up to that cap, a few MiB, so the Hankel matrix of the
    norm bound stays the peak: a chain-verified binary run peaks at about
    40 MiB at n=1024, 68 MiB at n=2048 and 177 MiB at n=4096 (Python 3.11,
    numpy 2.4; ``ru_maxrss`` of a fresh process per size).
    """
    total = 0j
    for left_a, left_x, right_a, right_x in blocks:
        step = max(1, _BLOCK_ENTRIES // len(right_a))
        rows = [
            row @ right_x
            for start in range(0, len(left_a), step)
            for row in w(left_a[start : start + step, None], right_a)
        ]
        total += complex(np.vdot(left_x, np.array(rows)))
    return total


def _label_columns(states: Sequence[SparseState]) -> dict:
    """Map each label to the answers whose state holds it and their amplitudes."""
    columns: dict = {}
    for a, state in enumerate(states):
        for label, amp in state.items():
            column = columns.get(label)
            if column is None:
                column = columns[label] = ([], [])
            column[0].append(a)
            column[1].append(amp)
    return {
        label: (np.array(answers), np.array(amps, dtype=complex))
        for label, (answers, amps) in columns.items()
    }


def _ensemble_columns(ensemble: Ensemble) -> dict:
    """:func:`_label_columns` of an ensemble's states, in the same order.

    Labels come in order of the first answer holding them, ties broken by
    ``sort_key``, and each column's answers ascend; every sum over the
    columns then runs in the same order as over the per-answer states.
    """
    if not len(ensemble.amps):
        return {}
    keys = ensemble.label_ids * ensemble.size + ensemble.answers
    order = np.argsort(keys, kind="stable")
    label_ids = ensemble.label_ids[order]
    answers, amps = ensemble.answers[order], ensemble.amps[order]
    starts = np.flatnonzero(label_ids[1:] != label_ids[:-1]) + 1
    starts = np.concatenate(([0], starts))
    first_answers = answers[starts].tolist()
    labels = [ensemble.labels[k] for k in label_ids[starts].tolist()]
    bounds = starts.tolist() + [len(order)]
    runs = sorted(
        range(len(labels)), key=lambda r: (first_answers[r], labels[r].sort_key)
    )
    return {
        labels[r]: (answers[bounds[r] : bounds[r + 1]], amps[bounds[r] : bounds[r + 1]])
        for r in runs
    }


def _column_overlap(columns: dict, w: WeightSpec) -> complex:
    """:func:`weighted_overlap` of states already grouped by label."""
    return _weighted_gram(((a, x, a, x) for a, x in columns.values()), w)


def weighted_overlap(states: Sequence[SparseState], w: WeightSpec) -> complex:
    """The weighted all-pairs inner product of one state per answer.

    Only answers sharing a basis label overlap, so the sum runs over the
    ordered pairs of each label's column of amplitudes.
    """
    _check_state_count(len(states), w)
    return _column_overlap(_label_columns(states), w)


def _reference_weighted_overlap(
    states: Sequence[SparseState], w: WeightSpec
) -> complex:
    """Per-pair loop form of :func:`weighted_overlap`, kept for the tests."""
    _check_state_count(len(states), w)
    total = 0j
    for a in range(w.n):
        for b in range(w.n):
            wt = w(a, b)
            if wt != 0.0:
                total += wt * inner_product(states[a], states[b])
    return total


# ---------------------------------------------------------------------------
# Inverse-distance matrices and their norms


def hilbert_matrix(n: int) -> np.ndarray:
    """n x n matrix with entries 1/(k+l+1); spectral norm below pi."""
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    k = np.arange(n, dtype=float)
    m = np.add.outer(k, k + 1.0)
    return np.reciprocal(m, out=m)


def hankel_matrix(n: int) -> np.ndarray:
    """The banded variant: 1/(k+l+1) where k+l < n, zero past the anti-diagonal."""
    m = hilbert_matrix(n)
    # Row k keeps columns 0 .. n-1-k; zeroing each tail in place allocates
    # nothing beyond the matrix itself.
    for k in range(1, n):
        m[k, n - k :] = 0.0
    return m


def spectral_norm(
    M: np.ndarray, tol: float = 1e-10, max_iterations: int = 100_000
) -> float:
    """Induced 2-norm of a square symmetric matrix.

    Small matrices (size <= 64) go through a full symmetric eigensolve;
    larger ones use power iteration from the deterministic all-equal start
    vector, stopping on residual ``||Mv - lam*v|| <= tol``.
    """
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.array_equal(M, M.T):
        raise ValueError("matrix is not symmetric")
    n = M.shape[0]
    if n <= EIGENSOLVE_LIMIT:
        eigenvalues = np.linalg.eigvalsh(M)
        return float(max(abs(eigenvalues[0]), abs(eigenvalues[-1])))
    v = np.full(n, 1.0 / math.sqrt(n))
    w = M @ v
    for _ in range(max_iterations):
        lam = float(v @ w)
        norm_w = float(np.linalg.norm(w))
        if norm_w == 0.0:
            return 0.0
        v = w / norm_w
        # M @ v serves both this residual and the next iteration's step.
        w = M @ v
        residual = float(np.linalg.norm(w - lam * v))
        if residual <= tol:
            return abs(lam)
    raise ConvergenceError(
        f"power iteration did not reach residual {tol:.1e} "
        f"within {max_iterations} iterations"
    )


# ---------------------------------------------------------------------------
# Per-query mass accounting


def gen_query_index(label: BasisLabel) -> int:
    """Queried index of a ``GenLabel``; ``TypeError`` on any other label."""
    if not isinstance(label, GenLabel):
        raise TypeError(f"expected a GenLabel, got {label!r}")
    return label.i


@dataclass
class MassProfile:
    """The per-answer states split by the index each label queries.

    ``columns[label]`` holds the answers whose state has ``label`` and their
    amplitudes (see :func:`_label_columns`); ``index_of[label]`` is the index
    the label queries. ``gammas[d]`` is the root of the mass queried ``d``
    positions at or above each answer, ``deltas[d]`` of the mass queried
    ``d + 1`` positions below. Only in-range indices (0 .. n-1) contribute;
    queries in the zero-padding region never distinguish instances.
    """

    columns: dict = field(repr=False)
    index_of: dict = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    deltas: np.ndarray = field(repr=False)


def mass_profile(states: Sequence[SparseState]) -> MassProfile:
    """Group the states by label and aggregate the masses by offset i - a."""
    return _column_profile(_label_columns(states), len(states))


def _column_profile(columns: dict, n: int) -> MassProfile:
    """:func:`mass_profile` of ``n`` states already grouped by label."""
    index_of = {label: gen_query_index(label) for label in columns}

    size = max(n - 1, 0)
    gammas_sq, deltas_sq = np.zeros(size), np.zeros(size)
    if columns:
        answer_cols, amp_cols = zip(*columns.values())
        answers, amps = np.concatenate(answer_cols), np.concatenate(amp_cols)
        index = np.repeat(list(index_of.values()), [len(c) for c in answer_cols])
        mass = amps.real * amps.real + amps.imag * amps.imag
        offset = index - answers
        queried = (0 <= index) & (index < n)
        # Offset n - 1 (a = 0, i = n - 1) pairs with no delta; below the
        # answer, a - i - 1 is at most n - 2.
        above = queried & (offset >= 0) & (offset < size)
        below = queried & (offset < 0)
        gammas_sq += np.bincount(offset[above], mass[above], minlength=size)
        deltas_sq += np.bincount(-1 - offset[below], mass[below], minlength=size)
    return MassProfile(columns, index_of, np.sqrt(gammas_sq), np.sqrt(deltas_sq))


def pairwise_drop(profile: MassProfile, w: WeightSpec) -> complex:
    """The per-query drop recomputed from the queried label columns.

    Equals ``W_j - W_(j+1)`` exactly (up to float error) when the round is
    one query followed by shared unitaries: only indices where two instances
    disagree, i.e. ``a <= i < b``, contribute.
    """
    blocks = []
    for label, (answers, amps) in profile.columns.items():
        left = answers <= profile.index_of[label]
        if left.any() and not left.all():
            right = ~left
            blocks.append((answers[left], amps[left], answers[right], amps[right]))
    return 2.0 * _weighted_gram(blocks, w)


def _reference_pairwise_drop(states: Sequence[SparseState], w: WeightSpec) -> complex:
    """Per-pair loop form of :func:`pairwise_drop`, kept for the tests."""
    n = len(states)
    total = 0j
    for a in range(n):
        for b in range(a + 1, n):
            wt = w(a, b)
            if wt == 0.0:
                continue
            overlap = 0j
            for label, amp in states[a].items():
                if a <= gen_query_index(label) < b:
                    overlap += amp.conjugate() * states[b].amplitude(label)
            total += wt * overlap
    return 2.0 * total


@dataclass
class ChainReport:
    """The four quantities of the per-query inequality chain, checked in order."""

    n: int
    drop: float
    pair_bound: float
    norm_bound: float
    cap: float
    pair_identity_err: float
    failures: tuple[str, ...]

    @property
    def holds(self) -> bool:
        return not self.failures


@functools.lru_cache(maxsize=None)
def _hankel_norm(size: int) -> float:
    return spectral_norm(hankel_matrix(size))


def verify_drop_chain(
    states_before: Sequence[SparseState],
    states_after: Sequence[SparseState],
    w: WeightSpec,
) -> ChainReport:
    """Check the drop chain for one (query, unitary) round.

    Computes D = |W_before - W_after|, the explicit double sum
    S = 2 * sum_d sum_i (1/d) gamma_i delta_(d-i-1), the matrix bound
    B = 2 ||gamma|| ||M|| ||delta||, and the cap pi*n, and verifies
    D <= S + tol <= B + tol <= pi*n + tol with tol = ``CHAIN_TOL``. Also
    checks that the drop recomputed by :func:`pairwise_drop` matches
    W_before - W_after within tol. Valid for the inverse-distance weights;
    ``states_before`` must be the states entering the query.
    """
    _check_state_count(len(states_before), w)
    columns = _label_columns(states_before)
    return _chain_report(
        _column_profile(columns, w.n),
        _column_overlap(columns, w),
        weighted_overlap(states_after, w),
        w,
    )


def _chain_report(
    profile: MassProfile,
    before: complex,
    after: complex,
    w: WeightSpec,
) -> ChainReport:
    """:func:`verify_drop_chain` from the profile of the states entering the query.

    ``before`` and ``after`` are W_before and W_after. Every link is tested
    as ``not lhs <= rhs + CHAIN_TOL``, so a NaN fails it.
    """
    n = w.n
    drop = abs(before - after)

    gammas, deltas = profile.gammas, profile.deltas
    if n >= 2:
        # Entry d-1 of the convolution is sum_i gamma_i delta_(d-1-i).
        pair_sums = np.convolve(gammas, deltas)[: n - 1]
        pair_bound = 2.0 * float(pair_sums @ (1.0 / np.arange(1, n)))
        norm_bound = (
            2.0
            * float(np.linalg.norm(gammas))
            * _hankel_norm(n - 1)
            * float(np.linalg.norm(deltas))
        )
    else:
        pair_bound = norm_bound = 0.0
    cap = math.pi * n

    identity_err = abs((before - after) - pairwise_drop(profile, w))

    failures = []
    if not drop <= pair_bound + CHAIN_TOL:
        failures.append(
            f"drop {drop:.12g} exceeds explicit double sum {pair_bound:.12g}"
        )
    if not pair_bound <= norm_bound + CHAIN_TOL:
        failures.append(
            f"double sum {pair_bound:.12g} exceeds matrix bound {norm_bound:.12g}"
        )
    if not norm_bound <= cap + CHAIN_TOL:
        failures.append(f"matrix bound {norm_bound:.12g} exceeds cap {cap:.12g}")
    if not identity_err <= CHAIN_TOL:
        failures.append(
            f"pair identity error {identity_err:.3e} exceeds tolerance {CHAIN_TOL:.1e}"
        )
    return ChainReport(
        n=n,
        drop=drop,
        pair_bound=pair_bound,
        norm_bound=norm_bound,
        cap=cap,
        pair_identity_err=identity_err,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------------------
# Trajectories


@dataclass
class StepRecord:
    j: int
    overlap: complex
    drop: complex | None  # W_j - W_(j+1); None on the final step


@dataclass
class TrajectoryRecord:
    """Per-query-step weighted overlaps for one algorithm run over all answers."""

    n: int
    bound: float  # pi * n
    steps: list[StepRecord]
    chain_reports: list[ChainReport] | None = None

    @property
    def initial_overlap(self) -> complex:
        return self.steps[0].overlap

    @property
    def final_overlap(self) -> complex:
        return self.steps[-1].overlap

    def drops(self) -> list[complex]:
        return [s.drop for s in self.steps if s.drop is not None]

    def max_drop_abs(self) -> float:
        return max((abs(d) for d in self.drops()), default=0.0)

    def telescoping_error(self) -> float:
        """|W_0 - W_T - sum of drops|; zero up to float error by construction."""
        return abs(self.initial_overlap - self.final_overlap - sum(self.drops(), 0j))

    def bound_satisfied(self, tol: float = 1e-9) -> bool:
        return self.max_drop_abs() <= self.bound + tol

    def to_csv(self) -> str:
        lines = ["j,W_re,W_im,drop_abs,bound"]
        for step in self.steps:
            drop_abs = "" if step.drop is None else f"{abs(step.drop):.17g}"
            lines.append(
                f"{step.j},{step.overlap.real:.17g},{step.overlap.imag:.17g},"
                f"{drop_abs},{self.bound:.17g}"
            )
        return "".join(line + "\n" for line in lines)


_ENSEMBLE_STEPS = {"linear": apply_linear_ensemble, "permute": permute_ensemble}


def _ensemble_snapshots(algorithm, n: int):
    """The ensemble entering each query, then the final one.

    Each snapshot is one array set for all ``n`` answers: the oracle call
    flips signs per answer, and each of the round's shared steps evaluates
    its label map once per distinct label.
    """
    ensemble = Ensemble.from_states(
        [algorithm.initial_state(inst) for inst in enumerate_instances(n)]
    )
    yield ensemble
    for j in range(algorithm.num_queries):
        ensemble = apply_query_ensemble(ensemble)
        for step in algorithm._rounds[j]:
            ensemble = _ENSEMBLE_STEPS[step.kind](ensemble, step.image)
        yield ensemble


def run_trajectory(
    algorithm, n: int, w: WeightSpec, verify_chain: bool = False
) -> TrajectoryRecord:
    """Evolve one state per answer through the algorithm and record W_j.

    Snapshots are taken at the points where states meet each query, so the
    recorded drops are exactly the per-query decreases; shared unitaries
    between queries cannot move W. With ``verify_chain`` the full inequality
    chain is evaluated at every step.
    """
    _check_state_count(n, w)
    if algorithm.n != n:
        raise ValueError(
            f"algorithm is built for list size {algorithm.n}, not {n}"
        )
    snapshots = _ensemble_snapshots(algorithm, n)
    # Each snapshot is grouped once: its columns give W_j and, entering
    # query j, the mass profile of that step's chain report.
    columns = _ensemble_columns(next(snapshots))
    overlaps = [_column_overlap(columns, w)]
    reports: list[ChainReport] = []
    for j, ensemble in enumerate(snapshots):
        next_columns = _ensemble_columns(ensemble)
        overlaps.append(_column_overlap(next_columns, w))
        if verify_chain:
            profile = _column_profile(columns, n)
            reports.append(_chain_report(profile, overlaps[j], overlaps[j + 1], w))
        columns = next_columns

    steps = []
    for j, overlap in enumerate(overlaps):
        drop = overlaps[j] - overlaps[j + 1] if j + 1 < len(overlaps) else None
        steps.append(StepRecord(j=j, overlap=overlap, drop=drop))
    return TrajectoryRecord(
        n=n,
        bound=math.pi * n,
        steps=steps,
        chain_reports=reports if verify_chain else None,
    )
