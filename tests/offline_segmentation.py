"""Offline segmenters of Keogh et al. (ICDM 2001), for tests and ablations.

The engine fits online with :class:`repro.fitting.OnlineSegmenter`.  The
three classic strategies of the same paper run here over whole arrays:

* **sliding window** — grow a segment until the fit error exceeds the
  tolerance, then cut (refitting the whole window at every point);
* **bottom-up** — start from finest segments and greedily merge the pair
  with the cheapest merge cost (offline, best quality);
* **SWAB** (Sliding Window And Bottom-up) — bottom-up over a small
  buffer, emitting the leftmost segment as the buffer slides (online,
  near bottom-up quality).

All three return :class:`SegmentFit` pieces; tolerance is the maximum
absolute residual per segment.  ``benchmarks/bench_ablation_segmentation.py``
compares them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.fitting import SegmentFit, fit_polynomial


def _piece(times, values, degree, end_time=None) -> SegmentFit:
    fit = fit_polynomial(times, values, degree)
    t_end = end_time if end_time is not None else float(times[-1])
    # A segment must have positive extent; extend a point fit minimally.
    t_start = float(times[0])
    if t_end <= t_start:
        t_end = t_start + 1e-9
    return SegmentFit(t_start, t_end, fit.poly, fit.max_error)


def sliding_window_segmentation(
    times: Sequence[float],
    values: Sequence[float],
    tolerance: float,
    degree: int = 1,
) -> list[SegmentFit]:
    """Online sliding-window segmentation.

    Grows each segment point by point, cutting when the best fit's max
    residual exceeds ``tolerance``.  Each piece's ``t_end`` is the next
    piece's ``t_start``, so consecutive pieces tile the time axis.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size == 0:
        return []
    pieces: list[SegmentFit] = []
    anchor = 0
    i = anchor + 1
    while i < t.size:
        fit = fit_polynomial(t[anchor : i + 1], y[anchor : i + 1], degree)
        if fit.max_error > tolerance:
            pieces.append(_piece(t[anchor:i], y[anchor:i], degree, end_time=t[i]))
            anchor = i
        i += 1
    pieces.append(_piece(t[anchor:], y[anchor:], degree))
    return pieces


def bottom_up_segmentation(
    times: Sequence[float],
    values: Sequence[float],
    tolerance: float,
    degree: int = 1,
    initial_size: int = 2,
) -> list[SegmentFit]:
    """Offline bottom-up segmentation.

    Starts from runs of ``initial_size`` points and repeatedly merges the
    adjacent pair whose merged fit has the smallest max residual, until
    no merge stays within ``tolerance``.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size == 0:
        return []
    # Segment boundaries as index ranges [start, end).
    bounds = [
        (i, min(i + initial_size, t.size))
        for i in range(0, t.size, initial_size)
    ]
    if len(bounds) == 1:
        return [_piece(t, y, degree)]

    def merge_cost(a: tuple[int, int], b: tuple[int, int]) -> float:
        return fit_polynomial(t[a[0] : b[1]], y[a[0] : b[1]], degree).max_error

    costs = [merge_cost(bounds[i], bounds[i + 1]) for i in range(len(bounds) - 1)]
    while costs:
        best = int(np.argmin(costs))
        if costs[best] > tolerance:
            break
        bounds[best] = (bounds[best][0], bounds[best + 1][1])
        del bounds[best + 1]
        del costs[best]
        if best > 0:
            costs[best - 1] = merge_cost(bounds[best - 1], bounds[best])
        if best < len(costs):
            costs[best] = merge_cost(bounds[best], bounds[best + 1])
    pieces = []
    for idx, (a, b) in enumerate(bounds):
        end_time = t[bounds[idx + 1][0]] if idx + 1 < len(bounds) else None
        pieces.append(_piece(t[a:b], y[a:b], degree, end_time=end_time))
    return pieces


def swab_segmentation(
    times: Sequence[float],
    values: Sequence[float],
    tolerance: float,
    degree: int = 1,
    buffer_size: int = 60,
) -> list[SegmentFit]:
    """SWAB: online segmentation with bottom-up quality.

    Keeps a point buffer roughly ``buffer_size`` long, runs bottom-up on
    it, emits the leftmost resulting segment, and refills.
    """
    t = np.asarray(times, dtype=float)
    y = np.asarray(values, dtype=float)
    if t.size == 0:
        return []
    pieces: list[SegmentFit] = []
    start = 0
    while start < t.size:
        end = min(start + buffer_size, t.size)
        window = bottom_up_segmentation(
            t[start:end], y[start:end], tolerance, degree
        )
        if end == t.size:
            pieces.extend(window)
            break
        # Emit only the leftmost segment, slide the buffer past it.
        first = window[0]
        emitted_points = int(np.searchsorted(t, first.t_end, side="left")) - start
        emitted_points = max(emitted_points, 1)
        boundary = start + emitted_points
        boundary_time = t[boundary] if boundary < t.size else None
        pieces.append(
            _piece(
                t[start:boundary],
                y[start:boundary],
                degree,
                end_time=boundary_time,
            )
        )
        start = boundary
    return pieces
