"""The FFT correlation pass over label columns: the differential oracle of
``lowerbound.weighted_overlap`` and ``lowerbound.pairwise_drop``.

It is the kernel pass that ``lowerbound`` ran before W and the pair drop
became closed forms over label runs, and it gives the bits they had then:
W, and half the pair drop, the pair sum over the columns split by a
``left`` mask. Because the
weight depends only on b - a, each label column's sums over its second
members are a correlation of its amplitudes, scattered over the column's
answer span, with the kernel: one row of all of them for W, one row of the
right-hand ones of a mixed column for the pair sum. Rows are grouped by FFT
length, the smallest power of two >= 2 * span - 1, and each group goes
through batched real FFTs of at most ``BATCH_ENTRIES`` entries; every first
member then takes its product. Each sum keeps its own products in entry
order and sums them as complex numbers, so neither sum depends on the
batching or on the other.
"""
from __future__ import annotations

import bisect

import numpy as np

from per_instance_oracle import column_ids
from qordsearch.qcore import Ensemble, _run_indices

# Entries of one batched FFT (rows x FFT length).
BATCH_ENTRIES = 1 << 16


def kernel_spectrum(w, size: int) -> np.ndarray:
    """Real FFT of the kernel of ``w`` wrapped onto ``size`` points, d at d mod size.

    Only the distances below ``(size + 1) // 2`` are placed, so a column
    spanning at most that many answers correlates without wrap-around.
    """
    reach = min((size + 1) // 2, w.n)
    centre = w.n - 1
    wrapped = np.zeros(size)
    # Distances 0, -1, .., -(reach-1) first, then reach-1, .., 1 last.
    wrapped[:reach] = w.kernel[centre - reach + 1 : centre + 1][::-1]
    wrapped[size - reach + 1 :] = w.kernel[centre + 1 : centre + reach][::-1]
    return np.fft.rfft(wrapped)


def fft_kernel_sums(
    ensemble: Ensemble, w, left: np.ndarray | None = None
) -> tuple[float, float]:
    """W, and the pair sum of ``left`` against the rest (0.0 without it), by
    batched FFT correlations of the columns."""
    label_ids, answers, amps = column_ids(ensemble), ensemble.answers, ensemble.amps
    if not len(answers):
        return 0.0, 0.0
    count = np.bincount(label_ids)
    ends = count.cumsum()
    starts = ends - count
    lows = answers[starts]
    # A circle of at least 2 * span - 1 points keeps the distances
    # -(span-1) .. span-1 of a column apart.
    sizes = np.left_shift(
        1, np.frexp(2 * (answers[ends - 1] - lows))[1], dtype=np.int64
    )
    cols = answers - lows.repeat(count)

    # Rows 0 .. overlap_rows-1 are W's, one per label; the pair's, one per
    # mixed label, follow. The pair's products hold the mixed labels'
    # entries only: entry e of label k is product e - skipped[k].
    overlap_rows = len(count)
    overlap_products = np.zeros(len(answers), dtype=complex)
    row_labels = np.arange(overlap_rows)
    pair_products = np.zeros(0, dtype=complex)
    if left is not None:
        left_count = np.bincount(label_ids, left, len(count))
        mixed = (0 < left_count) & (left_count < count)
        mixed_count = count * mixed
        skipped = starts - (mixed_count.cumsum() - mixed_count)
        pair_products = np.zeros(mixed_count.sum(), dtype=complex)
        row_labels = np.concatenate((row_labels, np.flatnonzero(mixed)))

    # A batch is a run of at most max(1, BATCH_ENTRIES // length) rows of
    # one length, in which W's rows come first.
    row_sizes = sizes[row_labels]
    order = row_sizes.argsort(kind="stable")
    sorted_sizes = row_sizes[order].tolist()
    group_start = 0
    while group_start < len(order):
        size = sorted_sizes[group_start]
        group_end = bisect.bisect_right(sorted_sizes, size)
        spectrum = kernel_spectrum(w, size)
        step = max(1, BATCH_ENTRIES // size)
        for p0 in range(group_start, group_end, step):
            rows = order[p0 : min(p0 + step, group_end)]
            labels = row_labels[rows]
            lengths = count[labels]
            entry = _run_indices(starts[labels], lengths)
            row, col, amp = np.arange(len(rows)).repeat(lengths), cols[entry], amps[entry]
            split = int(lengths[: rows.searchsorted(overlap_rows)].sum())
            scattered = np.zeros((len(rows), size))
            scattered[row[:split], col[:split]] = amp[:split]
            if split < len(entry):
                pair_left = left[entry[split:]]
                firsts = split + np.flatnonzero(pair_left)
                seconds = split + np.flatnonzero(~pair_left)
                scattered[row[seconds], col[seconds]] = amp[seconds]
            correlated = np.fft.irfft(np.fft.rfft(scattered) * spectrum, size)
            overlap_products[entry[:split]] = (
                amp[:split] * correlated[row[:split], col[:split]]
            )
            if split < len(entry):
                first = entry[firsts]
                pair_products[first - skipped[label_ids[first]]] = (
                    amp[firsts] * correlated[row[firsts], col[firsts]]
                )
        group_start = group_end
    return float(overlap_products.sum().real), float(pair_products.sum().real)
