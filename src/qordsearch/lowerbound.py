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

The layer reads the states as one :class:`~qordsearch.qcore.Ensemble`
(``Ensemble.from_states`` for a list of per-answer states), which
:func:`weighted_overlap`, :func:`pairwise_drop` and :func:`mass_profile`
take. A profile holds plain numbers only: the masses, the weights and the
pair drop of the states entering a query, and :func:`verify_drop_chain`
takes it and the drop W_before - W_after. An ensemble's entries go label by
label, its labels in ``sort_key`` order, so each label's column of
amplitudes is one contiguous run and every sum over the columns runs in
that order.

The weights depend on the answer distance b - a only (:class:`WeightSpec`),
and a label's column is a few runs of consecutive answers at one amplitude,
so W and each drop are closed forms: every pair of runs of a column adds a
second difference of the kernel's double prefix sums. One pass over a
snapshot's runs, in time linear in its entries, gives its W, and one more,
over the runs split at each label's queried index, the pair drop of states
entering a query. M is applied without being built: its product with a
vector is an FFT convolution, which serves both the double sum, as
2 * gamma^T M delta, and, at every size, the Lanczos iteration for ||M||.
A chain-verified run needs memory linear in n. The chain is checked for
the inverse-distance weights only; other kernels are refused there.

Algorithm protocol expected by :func:`run_trajectory`, which evolves the
states of all answers together as one :class:`~qordsearch.qcore.Ensemble`
through :func:`~qordsearch.teamsearch.ensemble_snapshots`, the loop that
the ``simulate`` command also runs:

* ``n``: problem size, ``num_queries``: number of oracle rounds T;
* ``initial_ensemble(answers=None)``: the ensemble entering the first
  query, each answer ``a`` of the contiguous range ``answers`` (all, here)
  holding the start of instance ``a``, other answers empty. Binary search
  starts each on the whole list, the team-search combine each on its own
  block positions, to stand in for knowledge acquired outside the trace.
* ``_rounds[j]`` for each query j: the round's shared (instance-independent)
  steps, run after the oracle call. Each step's ``image(fields)`` gives the
  (label, coefficient) terms of a pair mixer, as arrays over the fields of
  the ensemble's distinct labels (``qcore.FieldsMap``), and is evaluated
  once per step. A step whose ``image`` is None rides on the step before
  it, whose image already holds it, as a refinement rides on its mix.

An algorithm with ``num_queries == 0`` needs no ``_rounds``. The per-answer
``initial_state(instance)`` and ``advance(j, state, instance)`` of the
algorithms build and run the same states one instance at a time; they are
the reference the ensemble path is tested against, and they refuse an
instance whose list size is not the algorithm's ``n``. Amplitudes are real
on both paths, so W and every drop are ``float``s.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .oracle import _require_int
from .qcore import (
    QUERY,
    BasisLabel,
    Ensemble,
    QueryLabel,
    SparseState,
    _run_indices,
    inner_product,
    require_fields,
)
from .teamsearch import ensemble_snapshots

# Looser than state tolerances: the chain composes O(n^2) float sums.
CHAIN_TOL = 1e-8

# Slack of the per-query drop against its cap pi*n in a trajectory.
DROP_TOL = 1e-9

# Above this size the spectral norm of a non-negative matrix switches from a
# full symmetric eigensolve to a deterministic Lanczos iteration, which stops
# when its top Ritz pair (lam, v) has residual ||Mv - lam*v|| <= POWER_TOL
# or fails after LANCZOS_STEPS products; the matrices here need 6-12.
EIGENSOLVE_LIMIT = 64
POWER_TOL = 1e-10
LANCZOS_STEPS = 32

# Width of the square tiles in which the symmetry test compares M with M.T:
# a tile and its mirror stay in cache, where M.T read whole strides through
# every row of M.
_SYMMETRY_TILE = 128


class ConvergenceError(RuntimeError):
    """The Lanczos norm did not reach tolerance within ``LANCZOS_STEPS``."""


# ---------------------------------------------------------------------------
# Scalar bound formulas


# Up to this n, harmonic(n) is the fsum of its n terms; above it, an
# Euler-Maclaurin expansion whose first omitted term, 1/(252 n^6), is far
# below the last bit. On [2^10, 2^20] the two agree within a few ulps.
HARMONIC_FSUM_LIMIT = 1 << 20
EULER_GAMMA = 0.57721566490153286060651209008240243


def harmonic(n: int) -> float:
    """n-th harmonic number, sum of 1/k for k = 1..n.

    Exact up to the last bit from an ``fsum`` for n up to
    ``HARMONIC_FSUM_LIMIT``, and from :func:`_harmonic_expansion` above it,
    in time independent of n.
    """
    _require_int(n, "n")
    if n < 1:
        raise ValueError(f"harmonic number needs n >= 1, got {n}")
    if n > HARMONIC_FSUM_LIMIT:
        return _harmonic_expansion(n)
    return math.fsum(1.0 / k for k in range(1, n + 1))


def _harmonic_expansion(n: int) -> float:
    """ln n + gamma + 1/(2n) - 1/(12 n^2) + 1/(120 n^4), for an int n >= 1.

    The fractions divide ints, so they stay exact past float range.
    """
    return (
        math.log(n) + EULER_GAMMA + 1 / (2 * n) - 1 / (12 * n * n) + 1 / (120 * n**4)
    )


def total_weight(n: int) -> float:
    """Total inverse-distance weight over all answer pairs: n*H_n - n.

    Raises ``OverflowError`` where that exceeds the float range.
    """
    _require_int(n, "problem size")
    if n < 1:
        raise ValueError(f"problem size must be positive, got {n}")
    try:
        weight = n * harmonic(n) - n
    except OverflowError:  # n itself is past the float range
        weight = math.inf
    if weight == math.inf:
        raise OverflowError(
            f"total weight n*H_n - n overflows a float at a {n.bit_length()}-bit n"
        )
    return weight


def distinguishability_threshold(eps: float) -> float:
    """Largest overlap magnitude allowing error probability at most eps."""
    if not 0.0 <= eps <= 0.5:
        raise ValueError(f"error probability must lie in [0, 1/2], got {eps}")
    return 2.0 * math.sqrt(eps * (1.0 - eps))


def query_lower_bound(W: float, Delta: float, eps: float) -> float:
    """Minimum query count when each query moves at most Delta of weight W."""
    if not Delta > 0 or not math.isfinite(Delta):
        raise ValueError(
            f"per-query decrease bound must be positive and finite, got {Delta}"
        )
    if not W >= 0 or not math.isfinite(W):
        raise ValueError(f"initial weight must be non-negative and finite, got {W}")
    return (1.0 - distinguishability_threshold(eps)) * W / Delta


def ordered_search_bound(n: int, eps: float) -> float:
    """Query lower bound for ordered search: (1 - 2*sqrt(eps(1-eps)))*(H_n - 1)/pi."""
    _require_int(n, "problem size")
    if n < 2:
        raise ValueError(f"ordered-search bound needs n >= 2, got {n}")
    return (1.0 - distinguishability_threshold(eps)) * (harmonic(n) - 1.0) / math.pi


# ---------------------------------------------------------------------------
# Weights and overlaps


def _inverse_distance(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    return np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)


@dataclass(frozen=True)
class WeightSpec:
    """Non-negative, finite pairwise weight over answers ``0 .. n-1``, for an
    int n >= 1, that depends only on the distance ``d = b - a``.

    ``weight(d)`` is called once, at construction, on the float array of
    distances ``-(n-1) .. n-1``; a scalar result stands for every distance.
    The values are checked there and kept in ``kernel``, whose entry
    ``d + n - 1`` is the weight of every pair ``(a, a + d)``. Calling the spec
    looks one pair up, for the per-pair reference loops. The kernel is
    read-only, so what is derived from it (its double prefix sums
    ``_double_prefix``, whether it is the inverse distance, the Hankel
    operator of the drop chain) is computed once and kept.
    """

    n: int
    weight: Callable[[np.ndarray], np.ndarray]
    kernel: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _require_int(self.n, "problem size")
        if self.n < 1:
            raise ValueError(f"problem size must be positive, got {self.n}")
        d = np.arange(1 - self.n, self.n, dtype=float)
        values = np.array(
            np.broadcast_to(np.asarray(self.weight(d), dtype=float), d.shape)
        )
        finite = np.isfinite(values)
        if not finite.all():
            raise ValueError(f"weight has a non-finite entry {values[~finite][0]}")
        if (values < 0).any():
            raise ValueError(f"weight has a negative entry {values.min():.12g}")
        values.flags.writeable = False
        object.__setattr__(self, "kernel", values)

    @classmethod
    def inverse_distance(cls, n: int) -> "WeightSpec":
        """Ordered-search weights: 1/(b-a) for a < b, zero otherwise."""
        return cls(n=n, weight=_inverse_distance)

    def __call__(self, a: int, b: int) -> float:
        if not (0 <= a < self.n and 0 <= b < self.n):
            raise IndexError(f"answers ({a}, {b}) outside 0 .. {self.n - 1}")
        return self.kernel[b - a + self.n - 1]

    @functools.cached_property
    def _is_inverse_distance(self) -> bool:
        inverse = _inverse_distance(np.arange(1 - self.n, self.n, dtype=float))
        return np.array_equal(self.kernel, inverse)

    @functools.cached_property
    def _double_prefix(self) -> np.ndarray:
        """Q(t) = sum over d <= t of (t - d + 1) * w(d), at entry t + n + 1.

        t runs over -n-1 .. n-1, the 2n + 1 values a pair of runs of
        :func:`_run_pair_sum` reads. Q is the cumulative sum of the cumulative
        sum of the kernel. Both levels are compensated: the exact rounding
        error of each addition of ``np.cumsum`` (TwoSum) is kept, and the
        errors are summed and added back once, so each entry is within about
        an ulp of the exact sum of the kernel's floats; a plain double cumsum
        is off by hundreds of ulps at n = 2^20.
        """
        first, first_errors = _cumsum_and_errors(self.kernel)
        second, second_errors = _cumsum_and_errors(first)
        table = np.zeros(2 * self.n + 1)
        table[2:] = second + np.cumsum(second_errors + np.cumsum(first_errors))
        table.flags.writeable = False
        return table

    @functools.cached_property
    def _hankel(self) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
        """The product of M with a vector, and its norm ||M||; n >= 2.

        Row k of M is h_(k+l) = ``kernel[n + k + l]``, cut at k + l < n - 1:
        ``hankel_matrix(n - 1)`` for the inverse distance. A product is a
        slice of the convolution of h with v reversed, one rfft pair; the
        norm is :func:`_lanczos_norm` on it, equal to the dense one to 1e-14.
        """
        size = self.n - 1
        length = 1 << (2 * size - 2).bit_length()
        h_spectrum = np.fft.rfft(self.kernel[self.n :], length)

        def matvec(v: np.ndarray) -> np.ndarray:
            product = np.fft.irfft(np.fft.rfft(v[::-1], length) * h_spectrum, length)
            return product[size - 1 : 2 * size - 1]

        return matvec, _lanczos_norm(matvec, size)


def _cumsum_and_errors(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.cumsum(values)`` and the exact rounding error of each of its
    additions: the partial sums plus the cumulative errors are exact."""
    sums = np.cumsum(values)
    before = np.concatenate(([0.0], sums[:-1]))
    added = sums - before
    return sums, (before - (sums - added)) + (values - added)


def _check_state_count(count: int, w: WeightSpec) -> None:
    if count != w.n:
        raise ValueError(f"expected {w.n} states, got {count}")


def _run_pair_sum(
    ensemble: Ensemble, w: WeightSpec, left: np.ndarray | None = None
) -> float:
    """The sum of w(a_f - a_e) * x_e * x_f over pairs of entries (e, f) of one
    label column.

    Entry e of ``ensemble`` is answer a_e holding the real amplitude x_e on
    a label column; each column's entries are contiguous and their answers
    ascend. Without ``left`` the sum runs over all ordered pairs of each
    column, which is W. With an entry mask ``left`` it runs over the pairs
    whose first member is marked in ``left`` and whose second is not.

    It is a sum over label runs: maximal stretches of a column's entries
    with consecutive answers and one amplitude, split further where
    ``left`` changes. Runs p and q of one column, of L_p and L_q answers at
    amplitudes x_p and x_q, add x_p * x_q times the kernel summed over their
    answer pairs, which is the second difference
    Q(h) - Q(h - L_p) - Q(h - L_q) + Q(h - L_p - L_q) of the double prefix
    sums Q (``WeightSpec._double_prefix``), h the distance from p's first
    answer to q's last. Without ``left`` every ordered pair of runs of a
    column counts, with it the pairs of a marked run and an unmarked one. A
    column of R runs costs R^2 pairs, so a pass costs O(runs + sum of R^2),
    which is O(entries) on every snapshot of the algorithms here, where a
    column is one run, or two with ``left``.

    Accuracy, with u = 2^-53: each Q entry is within u * Q(t) of the exact
    double prefix sum of the kernel's floats, and Q grows with t (the kernel
    is non-negative), so all four reads of a pair are within u * Q(h). With
    the three subtractions and two products, each pair's term is within
    9u * Q(h) * |x_p * x_q| of its exact value, to first order: a few ulps
    of the pair's own sum for one run or two adjacent ones, but many more
    on short runs far apart, whose sum is far below Q(h). The terms are
    added with numpy's pairwise ``sum``, in the order of their columns and
    runs, which adds at most (m - 1)u of the sum of the m terms'
    magnitudes. The sum is a ``float``.
    """
    label_ids, answers, amps = ensemble.label_ids, ensemble.answers, ensemble.amps
    if not len(answers):
        return 0.0
    # A run starts at entry 0 and at each break; the run starts, then the
    # entry count, are the set entries of ``edges``.
    edges = np.empty(len(answers) + 1, dtype=bool)
    edges[0] = edges[-1] = True
    breaks = edges[1:-1]
    np.not_equal(label_ids[1:], label_ids[:-1], out=breaks)
    breaks |= answers[1:] != answers[:-1] + 1
    breaks |= amps[1:] != amps[:-1]
    if left is not None:
        breaks |= left[1:] != left[:-1]
    edges = edges.nonzero()[0]
    first = edges[:-1]
    length = edges[1:] - first
    label = label_ids[first]
    # Run p pairs with each of the runs[label[p]] runs of its column.
    runs = np.bincount(label)
    partners = runs[label]
    p = np.arange(len(first)).repeat(partners)
    q = _run_indices((runs.cumsum() - runs)[label], partners)
    if left is not None:
        marked = left[first]
        keep = marked[p] & ~marked[q]
        p, q = p[keep], q[keep]
    low, lp, lq = answers[first], length[p], length[q]
    # Q(h) is entry h + n + 1 of the table, with h = low[q] + lq - 1 - low[p].
    top = low[q] + lq - low[p] + w.n
    below_p = top - lp
    table = w._double_prefix
    pair_weights = (table[top] - table[below_p]) - (
        table[top - lq] - table[below_p - lq]
    )
    amps = amps[first]
    return float((amps[p] * amps[q] * pair_weights).sum())


def weighted_overlap(ensemble: Ensemble, w: WeightSpec) -> float:
    """The weighted all-pairs inner product of one state per answer.

    Only answers sharing a basis label overlap, so the sum runs over the
    ordered pairs of each label's column of amplitudes.
    """
    _check_state_count(ensemble.size, w)
    return _run_pair_sum(ensemble, w)


def _reference_weighted_overlap(
    states: Sequence[SparseState], w: WeightSpec
) -> float:
    """Per-pair loop form of :func:`weighted_overlap`, kept for the tests."""
    _check_state_count(len(states), w)
    total = 0.0
    for a in range(w.n):
        for b in range(w.n):
            wt = w(a, b)
            if wt != 0.0:
                total += wt * inner_product(states[a], states[b])
    return total


# ---------------------------------------------------------------------------
# Inverse-distance matrices and their norms


def _anti_diagonals(n: int) -> np.ndarray:
    """1/(s+1) for s = 0 .. 2n-2: entry (k, l) of the n x n Hilbert matrix is
    the one at s = k + l."""
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    return 1.0 / np.arange(1, 2 * n, dtype=float)


def hilbert_matrix(n: int) -> np.ndarray:
    """n x n matrix with entries 1/(k+l+1); spectral norm below pi."""
    # Row k is the window h[k : k + n] of the anti-diagonal values h.
    return sliding_window_view(_anti_diagonals(n), n).copy()


def hankel_matrix(n: int) -> np.ndarray:
    """The banded variant: 1/(k+l+1) where k+l < n, zero past the anti-diagonal."""
    h = _anti_diagonals(n)
    h[n:] = 0.0
    return sliding_window_view(h, n).copy()


def spectral_norm(M: np.ndarray) -> float:
    """Induced 2-norm of a non-empty, finite, square symmetric real matrix.

    Small matrices (size <= 64) and any with a negative entry go through a
    full symmetric eigensolve. Larger non-negative ones go through
    :func:`_lanczos_norm` on ``M @ v``; by Perron-Frobenius their norm is
    their largest eigenvalue, which has a non-negative eigenvector, never
    orthogonal to the all-equal start. Complex input is refused, not cast.
    """
    if np.iscomplexobj(M):
        raise ValueError("matrix has complex entries; only real matrices are taken")
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1] or M.size == 0:
        raise ValueError(f"expected a non-empty square matrix, got shape {M.shape}")
    # The extremes are nan or infinite exactly when some entry is.
    low, high = M.min(), M.max()
    if not (math.isfinite(low) and math.isfinite(high)):
        raise ValueError("matrix has a non-finite entry")
    if not _is_symmetric(M):
        raise ValueError("matrix is not symmetric")
    n = M.shape[0]
    if n <= EIGENSOLVE_LIMIT or low < 0:
        eigenvalues = np.linalg.eigvalsh(M)
        return float(max(abs(eigenvalues[0]), abs(eigenvalues[-1])))
    return _lanczos_norm(M.__matmul__, n)


def _is_symmetric(M: np.ndarray) -> bool:
    """``np.array_equal(M, M.T)`` for a square M, compared tile by tile."""
    n = M.shape[0]
    for i in range(0, n, _SYMMETRY_TILE):
        rows = slice(i, i + _SYMMETRY_TILE)
        for j in range(i, n, _SYMMETRY_TILE):
            cols = slice(j, j + _SYMMETRY_TILE)
            if not np.array_equal(M[rows, cols], M[cols, rows].T):
                return False
    return True


def _lanczos_norm(matvec: Callable[[np.ndarray], np.ndarray], n: int) -> float:
    """Largest eigenvalue of a symmetric operator on length-n vectors.

    Lanczos from the all-equal unit vector, with each new direction
    orthogonalised against the whole basis twice (classical Gram-Schmidt),
    so the tridiagonal T_k stays the projection of the operator. After step
    k the top Ritz pair (lam, y) of T_k has residual ``beta_k * |y_k|``; the
    iteration stops once that is at most ``POWER_TOL`` and returns lam, and
    raises :class:`ConvergenceError` after ``LANCZOS_STEPS`` products. The
    basis is one preallocated array used through row views, so only the
    rows of the steps taken are ever written. Its products are ``np.einsum``
    loops, not BLAS calls, whose sums split with the thread count: the
    norm does not depend on it.
    """
    steps = LANCZOS_STEPS
    basis = np.empty((steps + 1, n))
    basis[0] = 1.0 / math.sqrt(n)
    tridiagonal = np.zeros((steps + 1, steps + 1))
    for k in range(steps):
        w = matvec(basis[k])
        tridiagonal[k, k] = np.einsum("i,i", basis[k], w)
        spanned = basis[: k + 1]
        for _ in range(2):
            w -= np.einsum("ij,i", spanned, np.einsum("ij,j", spanned, w))
        beta = math.sqrt(np.einsum("i,i", w, w))
        ritz_values, ritz_vectors = np.linalg.eigh(tridiagonal[: k + 1, : k + 1])
        if beta * abs(ritz_vectors[-1, -1]) <= POWER_TOL:
            return float(ritz_values[-1])
        basis[k + 1] = w / beta
        tridiagonal[k, k + 1] = tridiagonal[k + 1, k] = beta
    raise ConvergenceError(
        f"Lanczos norm did not reach residual {POWER_TOL:.1e} "
        f"within {steps} steps"
    )


# ---------------------------------------------------------------------------
# Per-query mass accounting


def query_index(label: BasisLabel) -> int:
    """Queried index of a ``QueryLabel``; ``TypeError`` on any other label."""
    if not isinstance(label, QueryLabel):
        raise TypeError(f"expected a QueryLabel, got {label!r}")
    return label.i


@dataclass(frozen=True)
class MassProfile:
    """What the drop chain reads of the states entering one query.

    The states are those of a :func:`mass_profile` call, each label a
    ``QueryLabel``. ``gammas[d]`` is the root of the mass queried ``d``
    positions at or above each answer, ``deltas[d]`` of the mass queried
    ``d + 1`` positions below. Only in-range indices (0 .. n-1) contribute;
    queries in the zero-padding region never distinguish instances.
    ``pair_drop`` is the :func:`pairwise_drop` of the states under ``w``.
    """

    w: WeightSpec = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    deltas: np.ndarray = field(repr=False)
    pair_drop: float


def mass_profile(ensemble: Ensemble, w: WeightSpec) -> MassProfile:
    """Aggregate the masses of the states in ``ensemble`` by offset i - a,
    and take their pair drop under ``w``."""
    index = _queried_index(ensemble, w)
    # pairwise_drop gathers the index once more: it stays a call of its own,
    # which the benchmark's tracer times as a layer.
    pair_drop = pairwise_drop(ensemble, w)
    n = ensemble.size
    offset = index - ensemble.answers
    # Offset n - 1 (a = 0, i = n - 1) pairs with no delta; below the answer,
    # a - i - 1 is at most n - 2. A queried index is in 0 .. n-1, so an
    # offset is at least -(n - 1): offset + size is the offset's bin, the
    # gammas' from size up and the deltas' below it, in reverse.
    size = max(n - 1, 0)
    queried = (0 <= index) & (index < n) & (offset < size)
    mass = ensemble.amps[queried]
    masses = np.bincount(offset[queried] + size, mass * mass, minlength=2 * size)
    roots = np.sqrt(masses)
    return MassProfile(w, roots[size:], roots[:size][::-1], pair_drop)


def _queried_index(ensemble: Ensemble, w: WeightSpec) -> np.ndarray:
    """Each entry's queried index; refuses a size other than ``w.n`` and a
    label that is not a ``QueryLabel``."""
    _check_state_count(ensemble.size, w)
    require_fields(ensemble.fields[0] == QUERY, ensemble.fields, query_index)
    return ensemble.fields[4][ensemble.label_ids]


def pairwise_drop(ensemble: Ensemble, w: WeightSpec) -> float:
    """The per-query drop recomputed from the queried label columns.

    Equals ``W_j - W_(j+1)`` exactly (up to float error) when the round is
    one query followed by shared unitaries: only indices where two instances
    disagree, i.e. ``a <= i < b``, contribute, so an entry is on the left of
    the pairs that its label's queried index i separates when its answer
    a <= i. Every label must be a ``QueryLabel``.
    """
    index = _queried_index(ensemble, w)
    return 2.0 * _run_pair_sum(ensemble, w, ensemble.answers <= index)


def _reference_pairwise_drop(states: Sequence[SparseState], w: WeightSpec) -> float:
    """Per-pair loop form of :func:`pairwise_drop`, kept for the tests."""
    n = len(states)
    total = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            wt = w(a, b)
            if wt == 0.0:
                continue
            overlap = 0.0
            for label, amp in states[a].items():
                if a <= query_index(label) < b:
                    overlap += amp * states[b].amplitude(label)
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


def _require_inverse_distance(w: WeightSpec) -> None:
    """Refuse weights the drop chain is not derived for.

    The chain's double sum weights distance d by 1/d, and its cap pi*n rests
    on the norm of the inverse-distance Hankel matrix; for any other kernel
    its links compare unrelated numbers.
    """
    if not w._is_inverse_distance:
        raise ValueError(
            "the drop chain is derived for the inverse-distance weights "
            "1/(b-a) only; this WeightSpec has another kernel"
        )


def verify_drop_chain(profile: MassProfile, drop: float) -> ChainReport:
    """Check the drop chain for one (query, unitary) round.

    ``profile`` is the :func:`mass_profile` of the states entering the query
    and ``drop`` is W_before - W_after, both under the profile's weights
    ``w``. Computes D = |drop|, the explicit double sum
    S = 2 * sum_d sum_i (1/d) gamma_i delta_(d-i-1), the matrix bound
    B = 2 ||gamma|| ||M|| ||delta||, and the cap pi*n, and verifies
    D <= S + tol <= B + tol <= pi*n + tol with tol = ``CHAIN_TOL``. Also
    checks that the profile's pair drop matches ``drop`` within tol. Every
    link is tested as ``not lhs <= rhs + tol``, so a NaN fails it. Raises
    ``ValueError`` unless ``w`` is the inverse-distance weight. The sums
    over the masses are numpy's pairwise sums, not BLAS calls, so the report
    does not depend on the BLAS thread count.
    """
    w = profile.w
    _require_inverse_distance(w)
    n = w.n
    drop_abs = abs(drop)
    identity_err = abs(drop - profile.pair_drop)

    gammas, deltas = profile.gammas, profile.deltas
    if n >= 2:
        matvec, m_norm = w._hankel
        # sum_d sum_i (1/d) gamma_i delta_(d-1-i) is gamma^T M delta.
        pair_bound = 2.0 * float((gammas * matvec(deltas)).sum())
        gamma_norm = math.sqrt((gammas * gammas).sum())
        norm_bound = 2.0 * gamma_norm * m_norm * math.sqrt((deltas * deltas).sum())
    else:
        pair_bound = norm_bound = 0.0
    cap = math.pi * n

    links = [
        ("drop", drop_abs, "explicit double sum", pair_bound),
        ("double sum", pair_bound, "matrix bound", norm_bound),
        ("matrix bound", norm_bound, "cap", cap),
    ]
    failures = [
        f"{lhs} {lhs_value:.12g} exceeds {rhs} {rhs_value:.12g}"
        for lhs, lhs_value, rhs, rhs_value in links
        if not lhs_value <= rhs_value + CHAIN_TOL
    ]
    if not identity_err <= CHAIN_TOL:
        failures.append(
            f"pair identity error {identity_err:.3e} exceeds tolerance {CHAIN_TOL:.1e}"
        )
    return ChainReport(
        n=n,
        drop=drop_abs,
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
    overlap: float
    drop: float | None  # W_j - W_(j+1); None on the final step


@dataclass
class TrajectoryRecord:
    """Per-query-step weighted overlaps for one algorithm run over all answers."""

    n: int
    bound: float  # pi * n
    steps: list[StepRecord]
    chain_reports: list[ChainReport] | None = None

    @property
    def initial_overlap(self) -> float:
        return self.steps[0].overlap

    @property
    def final_overlap(self) -> float:
        return self.steps[-1].overlap

    def drops(self) -> list[float]:
        return [s.drop for s in self.steps if s.drop is not None]

    def max_drop_abs(self) -> float:
        return max((abs(d) for d in self.drops()), default=0.0)

    def telescoping_error(self) -> float:
        """|W_0 - W_T - sum of drops|; zero up to float error by construction."""
        return abs(self.initial_overlap - self.final_overlap - sum(self.drops()))

    def bound_satisfied(self) -> bool:
        return self.max_drop_abs() <= self.bound + DROP_TOL

    def to_csv(self) -> str:
        # W is real: its W_im column is kept, always 0.
        lines = ["j,W_re,W_im,drop_abs,bound"]
        for step in self.steps:
            drop_abs = "" if step.drop is None else f"{abs(step.drop):.17g}"
            lines.append(
                f"{step.j},{step.overlap:.17g},0,{drop_abs},{self.bound:.17g}"
            )
        return "".join(line + "\n" for line in lines)


def run_trajectory(
    algorithm, n: int, w: WeightSpec, verify_chain: bool = False
) -> TrajectoryRecord:
    """Evolve one state per answer through the algorithm and record W_j.

    Snapshots are taken at the points where states meet each query, so the
    recorded drops are exactly the per-query decreases; shared unitaries
    between queries cannot move W. With ``verify_chain`` the full inequality
    chain is evaluated at every step; that needs the inverse-distance
    weights, and any other ``w`` raises ``ValueError``.
    """
    _check_state_count(n, w)
    if algorithm.n != n:
        raise ValueError(
            f"algorithm is built for list size {algorithm.n}, not {n}"
        )
    if verify_chain:
        _require_inverse_distance(w)
    # With the chain, the profile of each snapshot entering a query waits
    # for W of the next snapshot, which gives the step's drop.
    overlaps: list[float] = []
    reports: list[ChainReport] = []
    profile = None
    snapshots = ensemble_snapshots(algorithm, algorithm.initial_ensemble())
    for j, ensemble in enumerate(snapshots):
        overlaps.append(weighted_overlap(ensemble, w))
        if profile is not None:
            reports.append(verify_drop_chain(profile, overlaps[j - 1] - overlaps[j]))
        queried = verify_chain and j < algorithm.num_queries
        profile = mass_profile(ensemble, w) if queried else None

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
