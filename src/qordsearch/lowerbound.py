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
:func:`weighted_overlap` and :func:`mass_profile` take, and
:func:`verify_drop_chain` takes that profile and the drop
W_before - W_after. An ensemble's entries go label by label, its labels in
``sort_key`` order, so each label's column of amplitudes is one contiguous
run and every sum over the columns runs in that order.

The weights depend on the answer distance b - a only (:class:`WeightSpec`),
so W and each drop are sums of correlations of label columns with one
distance kernel, computed by batched FFTs, and M is applied without being
built: its product with a vector is a convolution, which serves both the
double sum, as 2 * gamma^T M delta, and, at every size, the Lanczos
iteration for ||M||. A chain-verified run needs memory linear in n. The
chain is checked for the inverse-distance weights only; other kernels are
refused there.

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
  steps, run after the oracle call. Each step has ``kind`` "linear", whose
  ``image(fields)`` gives the (label, coefficient) terms of a unitary, or
  "permute", whose ``image(fields)`` gives one label each, as arrays over
  the fields of the ensemble's distinct labels (``qcore.FieldsMap``). Each
  image is evaluated once per step.

An algorithm with ``num_queries == 0`` needs no ``_rounds``. The per-answer
``initial_state(instance)`` and ``advance(j, state, instance)`` of the
algorithms build and run the same states one instance at a time; they are
the reference the ensemble path is tested against, and they refuse an
instance whose list size is not the algorithm's ``n``. Amplitudes are real
on both paths, so W and every drop are ``float``s.
"""
from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .qcore import (
    QUERY,
    BasisLabel,
    Ensemble,
    QueryLabel,
    SparseState,
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


def _inverse_distance(d: np.ndarray) -> np.ndarray:
    d = np.asarray(d, dtype=float)
    return np.divide(1.0, d, out=np.zeros_like(d), where=d > 0)


@dataclass(frozen=True)
class WeightSpec:
    """Non-negative, finite pairwise weight over answers ``0 .. n-1`` that
    depends only on the distance ``d = b - a``.

    ``weight(d)`` is called once, at construction, on the float array of
    distances ``-(n-1) .. n-1``; a scalar result stands for every distance.
    The values are checked there and kept in ``kernel``, whose entry
    ``d + n - 1`` is the weight of every pair ``(a, a + d)``. Calling the spec
    looks one pair up, for the per-pair reference loops.
    """

    n: int
    weight: Callable[[np.ndarray], np.ndarray]
    kernel: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
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

    def _spectrum(self, size: int) -> np.ndarray:
        """Real FFT of the kernel wrapped onto ``size`` points, d at d mod size.

        Only the distances below ``(size + 1) // 2`` are placed, so a column
        spanning at most that many answers correlates without wrap-around.
        """
        reach = min((size + 1) // 2, self.n)
        centre = self.n - 1
        wrapped = np.zeros(size)
        # Distances 0, -1, .., -(reach-1) first, then reach-1, .., 1 last.
        wrapped[:reach] = self.kernel[centre - reach + 1 : centre + 1][::-1]
        wrapped[size - reach + 1 :] = self.kernel[centre + 1 : centre + reach][::-1]
        return np.fft.rfft(wrapped)


def _check_state_count(count: int, w: WeightSpec) -> None:
    if count != w.n:
        raise ValueError(f"expected {w.n} states, got {count}")


# Entries of one batched FFT (blocks x FFT length): bounds the temporaries of
# many or long label columns to a few MiB instead of growing with n.
_BATCH_ENTRIES = 1 << 16


def _kernel_sum(blocks, answers, amps, left, right, w: WeightSpec) -> float:
    """Sum of w(a_p, a_q) * x_p * x_q over the pairs of each block.

    The entries (``answers``, real ``amps``) are grouped into blocks by the block
    number in ``blocks``: each block's entries are contiguous and its answers
    ascend. A pair draws its first member from the entries marked in
    ``left`` and its second from those marked in ``right``, within one block.

    Because the weight depends only on b - a, each block's sums over q are a
    correlation of its right amplitudes, scattered over the block's answer
    span, with the kernel. Blocks are grouped by FFT length, the smallest
    power of two >= 2 * span - 1, and each group's right sides go through
    batched real FFTs of at most ``_BATCH_ENTRIES`` entries, one row per
    block; every left entry then takes its product, and the products are
    summed in entry order, so the result does not depend on the batching.
    The sum is a ``float``. The peak memory of a chain-verified run grows
    linearly in n (README.md gives measured figures).
    """
    if not len(answers):
        return 0.0
    first = np.diff(blocks, prepend=blocks[0] - 1) != 0
    block = np.cumsum(first) - 1
    starts = np.flatnonzero(first)
    lows = answers[starts]
    spans = answers[np.append(starts[1:], len(answers)) - 1] - lows + 1
    # A circle of at least 2 * span - 1 points keeps the distances
    # -(span-1) .. span-1 of a block apart.
    sizes = np.left_shift(1, np.frexp(2 * spans - 2)[1], dtype=np.int64)

    # Blocks are taken in order of FFT length; a batch is a run of at most
    # max(1, _BATCH_ENTRIES // length) blocks of one length.
    order = np.argsort(sizes, kind="stable")
    sorted_sizes = sizes[order].tolist()
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    entry_position = position[block]
    entry_order = np.argsort(entry_position, kind="stable")
    entry_starts = np.searchsorted(
        entry_position[entry_order], np.arange(len(order) + 1)
    )
    entry_cols = answers - lows[block]

    # The real products are summed as complex numbers: numpy's pairwise
    # summation blocks a complex array differently from a float one, and
    # this order gives the bits the trajectories and chain reports pin.
    products = np.zeros(len(answers), dtype=complex)
    group_start = 0
    while group_start < len(order):
        size = sorted_sizes[group_start]
        group_end = bisect.bisect_right(sorted_sizes, size)
        kernel_spectrum = w._spectrum(size)
        step = max(1, _BATCH_ENTRIES // size)
        for p0 in range(group_start, group_end, step):
            p1 = min(p0 + step, group_end)
            batch = entry_order[entry_starts[p0] : entry_starts[p1]]
            rs, ls = batch[right[batch]], batch[left[batch]]
            scattered = np.zeros((p1 - p0, size))
            scattered[entry_position[rs] - p0, entry_cols[rs]] = amps[rs]
            correlated = np.fft.irfft(np.fft.rfft(scattered) * kernel_spectrum, size)
            sums = correlated[entry_position[ls] - p0, entry_cols[ls]]
            products[ls] = amps[ls] * sums
        group_start = group_end
    return float(products.sum().real)


def weighted_overlap(ensemble: Ensemble, w: WeightSpec) -> float:
    """The weighted all-pairs inner product of one state per answer.

    Only answers sharing a basis label overlap, so the sum runs over the
    ordered pairs of each label's column of amplitudes.
    """
    _check_state_count(ensemble.size, w)
    every = np.ones(len(ensemble.answers), dtype=bool)
    return _kernel_sum(
        ensemble.label_ids, ensemble.answers, ensemble.amps, every, every, w
    )


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
    rows of the steps taken are ever written.
    """
    steps = LANCZOS_STEPS
    basis = np.empty((steps + 1, n))
    basis[0] = 1.0 / math.sqrt(n)
    tridiagonal = np.zeros((steps + 1, steps + 1))
    for k in range(steps):
        w = matvec(basis[k])
        tridiagonal[k, k] = basis[k] @ w
        spanned = basis[: k + 1]
        for _ in range(2):
            w -= spanned.T @ (spanned @ w)
        beta = float(np.linalg.norm(w))
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


@dataclass
class MassProfile:
    """The per-answer states split by the index each label queries.

    ``ensemble`` holds the states and ``index[e]`` the index that entry
    ``e``'s label queries. ``gammas[d]`` is the root of the mass queried
    ``d`` positions at or above each answer, ``deltas[d]`` of the mass
    queried ``d + 1`` positions below. Only
    in-range indices (0 .. n-1) contribute; queries in the zero-padding
    region never distinguish instances.
    """

    ensemble: Ensemble = field(repr=False)
    index: np.ndarray = field(repr=False)
    gammas: np.ndarray = field(repr=False)
    deltas: np.ndarray = field(repr=False)


def mass_profile(ensemble: Ensemble) -> MassProfile:
    """Aggregate the masses of the states in ``ensemble`` by offset i - a."""
    n = ensemble.size
    kind, _, _, _, index = ensemble.fields
    require_fields(kind == QUERY, ensemble.fields, query_index)
    index = index[ensemble.label_ids]
    mass = ensemble.amps * ensemble.amps
    offset = index - ensemble.answers
    queried = (0 <= index) & (index < n)
    # Offset n - 1 (a = 0, i = n - 1) pairs with no delta; below the answer,
    # a - i - 1 is at most n - 2.
    size = max(n - 1, 0)
    above = queried & (offset >= 0) & (offset < size)
    below = queried & (offset < 0)
    gammas_sq = np.bincount(offset[above], mass[above], minlength=size)
    deltas_sq = np.bincount(-1 - offset[below], mass[below], minlength=size)
    return MassProfile(ensemble, index, np.sqrt(gammas_sq), np.sqrt(deltas_sq))


def pairwise_drop(profile: MassProfile, w: WeightSpec) -> float:
    """The per-query drop recomputed from the queried label columns.

    Equals ``W_j - W_(j+1)`` exactly (up to float error) when the round is
    one query followed by shared unitaries: only indices where two instances
    disagree, i.e. ``a <= i < b``, contribute.
    """
    ensemble = profile.ensemble
    label_ids, answers, amps = ensemble.label_ids, ensemble.answers, ensemble.amps
    if not len(answers):
        return 0.0
    left = answers <= profile.index
    # Only a column with answers on both sides of its index holds a pair.
    left_count = np.bincount(label_ids, left)
    mixed = ((0 < left_count) & (left_count < np.bincount(label_ids)))[label_ids]
    left, right = left[mixed], ~left[mixed]
    return 2.0 * _kernel_sum(
        label_ids[mixed], answers[mixed], amps[mixed], left, right, w
    )


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


# A few sizes suffice: a trajectory applies one size at every step.
@functools.lru_cache(maxsize=4)
def _hankel(size: int) -> tuple[Callable[[np.ndarray], np.ndarray], float]:
    """The product of ``hankel_matrix(size)`` with a vector, and its norm.

    Row k of the matrix is h_(k+l) = 1/(k+l+1) cut at k + l < size, so its
    product with v is the slice [size-1, 2*size-1) of the convolution of h
    with v reversed: one rfft pair per product, O(size) memory. The norm is
    :func:`_lanczos_norm` on this product at every size, so it agrees with
    ``spectral_norm(hankel_matrix(size))`` to rounding (1e-14), not bit for
    bit.
    """
    length = 1 << (2 * size - 2).bit_length()
    h_spectrum = np.fft.rfft(1.0 / np.arange(1, size + 1), length)

    def matvec(v: np.ndarray) -> np.ndarray:
        product = np.fft.irfft(np.fft.rfft(v[::-1], length) * h_spectrum, length)
        return product[size - 1 : 2 * size - 1]

    return matvec, _lanczos_norm(matvec, size)


def _require_inverse_distance(w: WeightSpec) -> None:
    """Refuse weights the drop chain is not derived for.

    The chain's double sum weights distance d by 1/d, and its cap pi*n rests
    on the norm of the inverse-distance Hankel matrix; for any other kernel
    its links compare unrelated numbers.
    """
    inverse = _inverse_distance(np.arange(1 - w.n, w.n, dtype=float))
    if not np.array_equal(w.kernel, inverse):
        raise ValueError(
            "the drop chain is derived for the inverse-distance weights "
            "1/(b-a) only; this WeightSpec has another kernel"
        )


def verify_drop_chain(
    profile: MassProfile, drop: float, w: WeightSpec
) -> ChainReport:
    """Check the drop chain for one (query, unitary) round.

    ``profile`` is the :func:`mass_profile` of the states entering the query
    and ``drop`` is W_before - W_after. Computes D = |drop|, the explicit
    double sum S = 2 * sum_d sum_i (1/d) gamma_i delta_(d-i-1), the matrix
    bound B = 2 ||gamma|| ||M|| ||delta||, and the cap pi*n, and verifies
    D <= S + tol <= B + tol <= pi*n + tol with tol = ``CHAIN_TOL``. Also
    checks that the drop recomputed by :func:`pairwise_drop` matches
    ``drop`` within tol. Every link is tested as ``not lhs <= rhs + tol``,
    so a NaN fails it. Raises ``ValueError`` unless ``w`` is the
    inverse-distance weight.
    """
    _check_state_count(profile.ensemble.size, w)
    _require_inverse_distance(w)
    n = w.n
    drop_abs = abs(drop)
    identity_err = abs(drop - pairwise_drop(profile, w))

    gammas, deltas = profile.gammas, profile.deltas
    if n >= 2:
        matvec, m_norm = _hankel(n - 1)
        # sum_d sum_i (1/d) gamma_i delta_(d-1-i) is gamma^T M delta.
        pair_bound = 2.0 * float(gammas @ matvec(deltas))
        norm_bound = (
            2.0 * float(np.linalg.norm(gammas)) * m_norm * float(np.linalg.norm(deltas))
        )
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
    snapshots = ensemble_snapshots(algorithm, algorithm.initial_ensemble())
    # Each snapshot gives W_j and, entering query j, the mass profile of that
    # step's chain report.
    before = next(snapshots)
    overlaps = [weighted_overlap(before, w)]
    reports: list[ChainReport] = []
    for j, after in enumerate(snapshots):
        overlaps.append(weighted_overlap(after, w))
        if verify_chain:
            drop = overlaps[j] - overlaps[j + 1]
            reports.append(verify_drop_chain(mass_profile(before), drop, w))
        before = after

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
