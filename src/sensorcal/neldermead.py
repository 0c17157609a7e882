"""Nelder-Mead simplex search (Nelder & Mead, 1965) for the edge and polish solves.

``minimize`` repeats scipy 1.17.1's ``_minimize_neldermead`` step for step in
the one configuration the estimators use: standard coefficients
(``adaptive=False``), no bounds, no iteration cap, a caller-built initial
simplex, and ``maxfev``/``xatol``/``fatol``.  Every update is the same numpy
expression in the same order, so the returned point and cost match scipy's
bit for bit and the objective sees the same candidates; the tests pin that
against scipy itself.  Two details of scipy's loop that matter for that are
kept on purpose:

- when the budget runs out inside an iteration, the candidate that would
  have needed one more evaluation is dropped, and a shrink that runs out
  leaves the vertex it just moved with that vertex's old cost;
- the simplex is ordered with ``np.argsort`` (not a stable sort), twice
  after the initial evaluations and once per iteration.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

__all__ = ["minimize"]

# reflection, expansion, contraction and shrink coefficients
_RHO = 1
_CHI = 2
_PSI = 0.5
_SIGMA = 0.5


def _ordered(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    ind = np.argsort(fsim)
    return np.take(sim, ind, 0), np.take(fsim, ind, 0)


def minimize(
    fun: Callable[[np.ndarray], float], x0: np.ndarray, *, options: dict
) -> tuple[np.ndarray, float]:
    """Minimize ``fun`` from ``options["initial_simplex"]``; return ``(x, f)``.

    ``options`` holds ``initial_simplex`` (shape ``(N + 1, N)``, evaluated in
    float64), ``maxfev`` (the evaluation budget), and ``xatol``/``fatol``:
    the search stops early once every vertex lies within ``xatol`` of the
    best one in each coordinate and within ``fatol`` of it in cost.  ``x0``
    only fixes ``N``; the simplex is the start.  ``fun`` receives a new
    array on every call, never a view of the simplex, and must not modify it
    (a candidate joins the simplex after its evaluation); it may return
    ``inf``.  ``x`` is the best vertex and ``f`` the lowest cost in the
    final simplex.
    """
    maxfev = options["maxfev"]
    xatol = options["xatol"]
    fatol = options["fatol"]
    sim = np.array(options["initial_simplex"], dtype=float)
    if sim.ndim != 2 or sim.shape[0] != sim.shape[1] + 1:
        raise ValueError("initial_simplex must have shape (N + 1, N)")
    n = sim.shape[1]
    if len(x0) != n:
        raise ValueError("initial_simplex does not match the length of x0")

    fsim = np.full((n + 1,), np.inf, dtype=float)
    nfev = min(n + 1, maxfev)
    for k in range(nfev):
        fsim[k] = fun(sim[k].copy())
    sim, fsim = _ordered(sim, fsim)
    sim, fsim = _ordered(sim, fsim)

    while nfev < maxfev:
        # +inf vertices (no overlap) make fsim[0] - fsim[1:] compute inf - inf;
        # the NaN fails the test, which is what should happen
        with np.errstate(invalid="ignore"):
            if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                break

        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = fun(xr)
        nfev += 1

        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = fun(xe)
                nfev += 1
                if fxe < fxr:
                    sim[-1] = xe
                    fsim[-1] = fxe
                else:
                    sim[-1] = xr
                    fsim[-1] = fxr
        elif fxr < fsim[-2]:
            sim[-1] = xr
            fsim[-1] = fxr
        elif nfev < maxfev:
            if fxr < fsim[-1]:
                xc = (1 + _PSI * _RHO) * xbar - _PSI * _RHO * sim[-1]
                fxc = fun(xc)
                nfev += 1
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                    shrink = False
                else:
                    shrink = True
            else:
                xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxcc = fun(xcc)
                nfev += 1
                if fxcc < fsim[-1]:
                    sim[-1] = xcc
                    fsim[-1] = fxcc
                    shrink = False
                else:
                    shrink = True
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + _SIGMA * (sim[j] - sim[0])
                    if nfev >= maxfev:
                        break
                    fsim[j] = fun(sim[j].copy())
                    nfev += 1
        sim, fsim = _ordered(sim, fsim)

    return sim[0], float(np.min(fsim))
