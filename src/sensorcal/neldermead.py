"""Nelder-Mead simplex search (Nelder & Mead, 1965) for the edge and polish solves.

``search`` repeats scipy 1.17.1's ``_minimize_neldermead`` step for step in
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

``search`` is a generator: it yields each candidate and is sent its cost, so
the caller decides how candidates are scored.  An objective scores a list of
candidates.  ``lockstep`` advances several searches together and scores each
round's candidates with one call, which lets a vectorized objective project
them as one batch; ``minimize`` is ``lockstep`` of one search.  A search
sees the same candidates and ends with the same bits either way.
``lockstep`` can also race its searches: at given rounds it retires every
search that trails the best cost reached so far by more than a margin.  A
retired search is sent no further cost and reports its best candidate so
far; every other search still sees the same candidates and ends with the
same bits.
"""

from __future__ import annotations

import math
from typing import Callable, Generator, Sequence

import numpy as np

__all__ = ["lockstep", "minimize", "search"]

Search = Generator[np.ndarray, float, "tuple[np.ndarray, float]"]
# an objective: the costs of a list of candidates, in their order
Costs = Callable[[list[np.ndarray]], Sequence[float]]

# reflection, expansion, contraction and shrink coefficients
_RHO = 1
_CHI = 2
_PSI = 0.5
_SIGMA = 0.5


def _ordered(sim: np.ndarray, fsim: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the methods behind np.argsort and np.take, without their wrappers
    ind = fsim.argsort()
    return sim.take(ind, 0), fsim.take(ind, 0)


def search(x0: np.ndarray, *, options: dict) -> Search:
    """Nelder-Mead from ``options["initial_simplex"]``, as a generator.

    Yields each candidate and expects its cost to be sent back; returns
    ``(x, f)`` through ``StopIteration``.  ``options`` holds
    ``initial_simplex`` (shape ``(N + 1, N)``, evaluated in float64),
    ``maxfev`` (the evaluation budget), and ``xatol``/``fatol``: the search
    stops early once every vertex lies within ``xatol`` of the best one in
    each coordinate and within ``fatol`` of it in cost.  ``x0`` only fixes
    ``N``; the simplex is the start.  Every yielded candidate is a new array,
    never a view of the simplex, and must not be modified (it joins the
    simplex after its evaluation); a cost may be ``inf``.  ``x`` is the best
    vertex and ``f`` the lowest cost in the final simplex.
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
        fsim[k] = yield sim[k].copy()
    sim, fsim = _ordered(sim, fsim)
    sim, fsim = _ordered(sim, fsim)

    while nfev < maxfev:
        if np.abs(sim[1:] - sim[0]).max() <= xatol:
            # +inf vertices (no overlap) make fsim[0] - fsim[1:] compute
            # inf - inf; the NaN fails the test, which is what should happen
            with np.errstate(invalid="ignore"):
                if np.abs(fsim[0] - fsim[1:]).max() <= fatol:
                    break

        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = (1 + _RHO) * xbar - _RHO * sim[-1]
        fxr = yield xr
        nfev += 1

        if fxr < fsim[0]:
            if nfev < maxfev:
                xe = (1 + _RHO * _CHI) * xbar - _RHO * _CHI * sim[-1]
                fxe = yield xe
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
                fxc = yield xc
                nfev += 1
                if fxc <= fxr:
                    sim[-1] = xc
                    fsim[-1] = fxc
                    shrink = False
                else:
                    shrink = True
            else:
                xcc = (1 - _PSI) * xbar + _PSI * sim[-1]
                fxcc = yield xcc
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
                    fsim[j] = yield sim[j].copy()
                    nfev += 1
        sim, fsim = _ordered(sim, fsim)

    return sim[0], float(np.min(fsim))


def minimize(costs: Costs, x0: np.ndarray, *, options: dict) -> tuple[np.ndarray, float]:
    """Run ``search(x0, options=options)`` alone, scoring with ``costs``."""
    return lockstep([search(x0, options=options)], costs)[0]


def lockstep(
    searches: Sequence[Search], costs: Costs, race: Sequence[tuple[int, float]] = ()
) -> list[tuple[np.ndarray, float]]:
    """Advance every search by one candidate per round; return their ``(x, f)``.

    Each round hands the pending candidates of the searches still running,
    in the order of ``searches``, to one ``costs`` call, which returns their
    costs in the same order.  A search that finishes drops out of later
    rounds; the others run on unchanged, so each result equals what
    ``minimize`` with the same objective returns.

    ``race`` holds ``(rounds, margin)`` checkpoints.  After round ``rounds``
    (every running search has then been sent ``rounds`` costs) the leader is
    the lowest cost any search has been sent, or has returned if it already
    finished; every running search whose lowest cost so far is above
    ``leader + (margin - 1) * |leader|`` (``margin`` times a positive
    leader) is closed and reports that lowest cost and its candidate (its
    first candidate and +inf if no cost was finite).  A search at +inf is
    retired against a finite leader; with no finite leader none retires.
    The searches not retired still end with ``minimize``'s bits.
    """
    results: list = [None] * len(searches)
    pending: dict[int, np.ndarray] = {}
    # the lowest cost each search has been sent, and its candidate
    best_f = [math.inf] * len(searches)
    best_x: list = [None] * len(searches)

    def advance(i: int, cost: float | None) -> None:
        # sending None starts a generator, as next() does
        try:
            pending[i] = searches[i].send(cost)
        except StopIteration as stop:
            pending.pop(i, None)
            results[i] = stop.value

    def retire(margin: float) -> None:
        leader = math.inf
        for i, result in enumerate(results):
            f = best_f[i] if result is None else result[1]
            if f < leader:  # NaN never leads
                leader = f
        bar = leader + (margin - 1.0) * abs(leader)
        for i in [i for i in pending if best_f[i] > bar]:
            searches[i].close()
            del pending[i]
            results[i] = best_x[i], best_f[i]

    for i in range(len(searches)):
        advance(i, None)
        best_x[i] = pending.get(i)
    margins = dict(race)
    rounds = 0
    while pending:
        order = list(pending)
        for i, cost in zip(order, costs([pending[i] for i in order]), strict=True):
            if cost < best_f[i]:
                best_f[i], best_x[i] = cost, pending[i]
            advance(i, cost)
        rounds += 1
        if rounds in margins:
            retire(margins[rounds])
    return results
