"""The in-repo Nelder-Mead against scipy's, lock-step against one at a time,
a race of starts against a replay of its rule, and the package's import
graph.

scipy is only the reference here: ``sensorcal.neldermead.minimize`` must
return the same bits for ``x`` and ``f`` and hand the objective the same
candidates in the same order, so the evaluation count matches too.  The
cases pin the corners of scipy's loop: budgets that end during the initial
evaluations, before an expansion, a contraction or inside a shrink; +inf
plateaus and an all-+inf simplex; tied costs; and runs that stop on
``xatol``/``fatol``, among them the final polish's ``xatol = 1e-4`` on a
quantised cost.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sensorcal
from sensorcal.data import PointCloud
from sensorcal.estimate import (
    _RACE,
    _RACE_MIN_MAXFEV,
    AlignmentCostConfig,
    _initial_simplex,
    _multistart,
    alignment_cost,
)
from sensorcal.neldermead import lockstep, minimize, search
from sensorcal.projection import ProjectionConfig, project_equirect
from sensorcal.transform import from_euler


@pytest.fixture(scope="module")
def scipy_minimize():
    return pytest.importorskip("scipy.optimize").minimize


def _recorded(fun, calls):
    def wrapped(x):
        assert x.flags.owndata  # never a view of the simplex
        calls.append(x.tobytes())
        return fun(x)

    return wrapped


def _one_at_a_time(fun):
    return lambda xs: [fun(x) for x in xs]


def same_run(scipy_minimize, fun, simplex, maxfev, *, fatol=1e-12, xatol=1e-7):
    """Run both solvers; assert equal bits and candidates; return the candidates."""
    options = {"maxfev": maxfev, "fatol": fatol, "xatol": xatol, "initial_simplex": simplex}
    ours, ref = [], []
    x, f = minimize(_one_at_a_time(_recorded(fun, ours)), simplex[0].copy(), options=dict(options))
    res = scipy_minimize(
        _recorded(fun, ref), simplex[0].copy(), method="Nelder-Mead", options=dict(options)
    )
    assert ours == ref
    assert len(ours) == res.nfev <= maxfev
    assert x.tobytes() == np.asarray(res.x, dtype=float).tobytes()
    assert np.float64(f).tobytes() == np.float64(res.fun).tobytes()
    return [np.frombuffer(c) for c in ours]


def _bumpy(n, seed):
    rng = np.random.default_rng(seed)
    centre = rng.uniform(-0.5, 0.5, n)
    weight = rng.uniform(0.5, 4.0, n)

    def fun(x):
        d = x - centre
        return float(np.sum(weight * d * d) + 0.05 * np.sum(np.cos(9.0 * x)))

    return fun


def _box_simplex(n, seed, step_fraction=0.35):
    rng = np.random.default_rng(seed)
    box = np.array([0.3] * (n // 2) + [1.0] * (n - n // 2))
    return _initial_simplex(rng.uniform(-0.2, 0.2, n), box, step_fraction)


@pytest.mark.parametrize("n", [6, 18])
def test_budgets_from_one_to_past_the_first_iterations(scipy_minimize, n):
    fun, simplex = _bumpy(n, n), _box_simplex(n, n)
    budgets = sorted({1, n, n + 1, n + 2, *range(1, 4 * n + 40, 1 if n == 6 else 3)})
    for maxfev in budgets:
        same_run(scipy_minimize, fun, simplex, maxfev)


@pytest.mark.parametrize("n", [6, 18])
def test_long_runs(scipy_minimize, n):
    for seed in range(3):
        calls = same_run(scipy_minimize, _bumpy(n, seed), _box_simplex(n, seed + 10), 200 * n // 6)
        assert len(calls) == 200 * n // 6


def test_budget_ends_before_an_expansion(scipy_minimize):
    # a plane: the reflection beats every vertex, so an expansion comes next
    n = 6
    simplex = _box_simplex(n, 1)
    fun = lambda x: float(np.sum(x))  # noqa: E731
    calls = same_run(scipy_minimize, fun, simplex, n + 3)
    assert fun(calls[n + 1]) < min(fun(c) for c in calls[: n + 1])
    same_run(scipy_minimize, fun, simplex, n + 2)


def test_budget_ends_before_a_contraction(scipy_minimize):
    # a bowl centred on the first vertex: the reflection overshoots it
    n = 6
    simplex = _box_simplex(n, 2)
    centre = simplex[0].copy()
    fun = lambda x: float(np.sum((x - centre) ** 2))  # noqa: E731
    calls = same_run(scipy_minimize, fun, simplex, n + 3)
    first = sorted(fun(c) for c in calls[: n + 1])
    assert fun(calls[n + 1]) >= first[-2]
    same_run(scipy_minimize, fun, simplex, n + 2)


@pytest.mark.parametrize("n", [6, 18])
@pytest.mark.parametrize("plateau", [math.inf, math.nan])
def test_budget_ends_inside_a_shrink(scipy_minimize, n, plateau):
    # finite only near the first vertex: reflection and contraction land on
    # the plateau, so the first iteration shrinks; every budget from "before
    # the shrink's first evaluation" to "after its last" is checked.  A NaN
    # plateau also pins f as the simplex minimum, which is then NaN
    simplex = _box_simplex(n, 3)
    centre = simplex[0].copy()

    def fun(x):
        d = float(np.max(np.abs(x - centre)))
        return d if d < 0.05 else plateau

    for maxfev in range(n + 3, 2 * n + 5):
        calls = same_run(scipy_minimize, fun, simplex, maxfev)
    assert all(not fun(c) < math.inf for c in calls[n + 1 : n + 3])


@pytest.mark.parametrize("n", [6, 18])
@pytest.mark.parametrize("elsewhere", [1.0, math.nan])
def test_shrink_cut_short_among_tied_vertices(scipy_minimize, n, elsewhere):
    # every initial vertex costs 0 and every other point more (or NaN), so
    # the first iteration shrinks; a vertex moved just before the budget ran
    # out keeps its old cost of 0 and ties with the best, and the sort decides
    simplex = _box_simplex(n, 8)
    vertices = {row.tobytes() for row in simplex}

    def fun(x):
        return 0.0 if x.tobytes() in vertices else elsewhere

    for maxfev in range(n + 3, 2 * n + 5):
        same_run(scipy_minimize, fun, simplex, maxfev)


@pytest.mark.parametrize("n", [6, 18])
def test_all_inf_simplex(scipy_minimize, n):
    # every cost is +inf: the simplex shrinks below xatol, but the termination
    # test then sees inf - inf = NaN and never stops
    simplex = _box_simplex(n, 4)
    for maxfev in (1, n + 1, n + 2, n + 3, 2 * n + 2, 120, 40 * n):
        with np.errstate(invalid="ignore"):  # scipy's own inf - inf
            calls = same_run(scipy_minimize, lambda x: math.inf, simplex, maxfev)
        assert len(calls) == maxfev


@pytest.mark.parametrize("n", [6, 18])
def test_tied_costs(scipy_minimize, n):
    # coarse quantisation makes plateaus with many exactly equal vertices, so
    # the unstable argsort's tie order decides which vertex is best
    bowl = _bumpy(n, 5)
    simplex = _box_simplex(n, 5)
    for quantum in (0.5, 2.0):
        fun = lambda x, q=quantum: q * math.floor(bowl(x) / q)  # noqa: E731
        for maxfev in range(1, 3 * n + 20):
            same_run(scipy_minimize, fun, simplex, maxfev)
        same_run(scipy_minimize, fun, simplex, 60 * n)


def test_runs_that_stop_on_tolerance(scipy_minimize):
    for n, tol in ((6, 1e-3), (6, 1e-6), (18, 1e-2)):
        calls = same_run(
            scipy_minimize, _bumpy(n, 6), _box_simplex(n, 6), 100_000, fatol=tol, xatol=tol
        )
        assert len(calls) < 100_000
    # a flat objective stops as soon as the simplex is inside xatol
    tiny = np.vstack([np.zeros(6), 1e-8 * np.eye(6)])
    assert len(same_run(scipy_minimize, lambda x: 1.0, tiny, 50)) == 7


@pytest.mark.parametrize(("n", "maxfev"), [(6, 250), (18, 800)])
def test_quantised_runs_that_stop_on_the_final_polish_tolerance(scipy_minimize, n, maxfev):
    # the final polish's tolerances (xatol 1e-4, fatol 1e-5) on a cost
    # quantised like a raster's: the simplex settles on one plateau, and the
    # search stops on xatol before maxfev, which it reaches with xatol 1e-7
    bowl = _bumpy(n, 6)
    fun = lambda x: round(bowl(x), 3)  # noqa: E731
    simplex = _box_simplex(n, 6)
    calls = same_run(scipy_minimize, fun, simplex, maxfev, fatol=1e-5, xatol=1e-4)
    assert len(calls) < maxfev
    assert len(same_run(scipy_minimize, fun, simplex, maxfev, fatol=1e-5, xatol=1e-7)) == maxfev


def test_edge_cost_objective(scipy_minimize):
    # the estimators' objective: float32 raster costs with +inf off-overlap
    rng = np.random.default_rng(7)
    xyz = rng.normal(0.0, 8.0, (600, 3))
    cfg = AlignmentCostConfig(projection=ProjectionConfig.equirect(96, 48))
    source = PointCloud.bare(xyz)
    target = project_equirect(source, cfg.projection)

    def cost(x):
        return alignment_cost(source, from_euler(x), target, cfg)

    box = np.array([0.2] * 3 + [1.5] * 3)
    for x0, maxfev in ((np.zeros(6), 150), (np.array([0.15, -0.1, 0.1, 1.0, -1.2, 0.8]), 90)):
        same_run(scipy_minimize, cost, _initial_simplex(x0, box, 0.35), maxfev, fatol=1e-6)


@given(st.sampled_from([6, 18]), st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.5, 2.0]))
def test_minimize_never_returns_more_than_the_cost_of_x0(n, seed, quantum):
    # the first vertex is x0, and the best cost of the simplex never rises:
    # estimate_pairwise relies on it to drop its start as a candidate
    bowl = _bumpy(n, seed)
    simplex = _box_simplex(n, seed)
    centre = simplex[0].copy()

    def quantised(x):
        return quantum * math.floor(bowl(x) / quantum) if quantum else bowl(x)

    def plateau(x):
        # reflection and contraction miss, so the first iteration shrinks
        d = float(np.max(np.abs(x - centre)))
        return d if d < 0.05 else math.inf

    # n + 5 runs out after the shrink's second evaluation
    for fun, maxfev in ((quantised, 1), (quantised, 2), (quantised, 7), (plateau, n + 5)):
        calls = []
        options = {"maxfev": maxfev, "fatol": 1e-12, "xatol": 1e-7, "initial_simplex": simplex}
        _, f = minimize(_one_at_a_time(_recorded(fun, calls)), centre, options=options)
        assert len(calls) == maxfev
        assert f <= fun(centre)
    assert all(plateau(np.frombuffer(c)) == math.inf for c in calls[n + 1 : n + 3])


# --- lock-step searches --------------------------------------------------------


def _recording(gen, calls):
    """The search gen, recording the bytes of each candidate it yields."""
    try:
        x = next(gen)
        while True:
            calls.append(x.tobytes())
            x = gen.send((yield x))
    except StopIteration as stop:
        return stop.value


def _lowest(values):
    """The lowest value and its index, by ``<`` from +inf (NaN never wins)."""
    low, at = math.inf, None
    for k, v in enumerate(values):
        if v < low:
            low, at = v, k
    return low, at


def expected_retirements(fun, alone, race):
    """Replay the race rule on the searches run alone: the round and the bar
    at which each retired search retires, and every search's costs."""
    costs = [[fun(np.frombuffer(c)) for c in calls] for calls, _, _ in alone]
    retired = {}
    for k, margin in sorted(dict(race).items()):
        # a search finished by round k counts with its f, a running one with
        # its lowest cost so far, a retired one with the cost it reported
        standing = [
            _lowest(c[: retired.get(i, (k,))[0]])[0] if len(c) > k or i in retired else f
            for i, (c, (_, _, f)) in enumerate(zip(costs, alone))
        ]
        leader = _lowest(standing)[0]
        bar = leader + (margin - 1.0) * abs(leader)
        for i, c in enumerate(costs):
            if i not in retired and len(c) > k and standing[i] > bar:
                retired[i] = k, bar
    return retired, costs


def same_in_lockstep(fun, runs, *, fatol=1e-12, xatol=1e-7, race=()):
    """Run searches from runs = [(simplex, maxfev), ...] one at a time with
    minimize and together with lockstep(..., race); assert that every search
    the race does not retire sees the same candidates in the same order and
    returns the same bits, that every round scores one candidate of each
    search still running, and that the searches retired are the ones the
    rule names: each was sent exactly the candidates it saw alone up to its
    checkpoint, and reports its lowest cost so far, which is above the bar.
    Returns the number of candidates each search had scored, the retired
    searches and every search's reported f."""
    options = [
        {"maxfev": maxfev, "fatol": fatol, "xatol": xatol, "initial_simplex": simplex}
        for simplex, maxfev in runs
    ]
    alone = []
    for opts in options:
        calls = []
        x, f = minimize(
            _one_at_a_time(_recorded(fun, calls)), opts["initial_simplex"][0].copy(), options=dict(opts)
        )
        alone.append((calls, x, f))
    together = [[] for _ in runs]
    rounds = []

    def costs(xs):
        rounds.append(len(xs))
        return [fun(x) for x in xs]

    searches = [
        _recording(search(opts["initial_simplex"][0].copy(), options=dict(opts)), calls)
        for opts, calls in zip(options, together)
    ]
    results = lockstep(searches, costs, race)
    retired, scored = expected_retirements(fun, alone, race)
    survivors = [f for i, (_, f) in enumerate(results) if i not in retired]
    for i, ((calls, x, f), seen, (x_lock, f_lock)) in enumerate(zip(alone, together, results)):
        if i not in retired:
            assert seen == calls
            assert x_lock.tobytes() == x.tobytes()
            assert np.float64(f_lock).tobytes() == np.float64(f).tobytes()
            continue
        # scored up to its checkpoint; the candidate it yielded next was
        # never scored, and the search was closed
        k, bar = retired[i]
        assert seen == calls[: k + 1] and len(calls) > k
        del seen[k:]
        low, at = _lowest(scored[i][:k])
        assert x_lock.tobytes() == seen[at or 0]
        assert np.float64(f_lock).tobytes() == np.float64(low).tobytes()
        assert f_lock > bar and f_lock > _lowest(survivors)[0]  # it can never win
    lengths = [len(seen) for seen in together]
    assert rounds == [sum(n > k for n in lengths) for k in range(max(lengths))]
    return lengths, retired, [f for _, f in results]


@pytest.mark.parametrize("n", [6, 18])
def test_lockstep_equals_minimize_for_every_start(n):
    # different simplices and budgets: one evaluation (the starved starts of
    # a wide first stage), N + 1, and runs that end at different rounds
    fun = _bumpy(n, n)
    budgets = [1, n + 1, n + 2, 2 * n + 3, 40, 200 * n // 6, 1, 7]
    runs = [(_box_simplex(n, 20 + k), maxfev) for k, maxfev in enumerate(budgets)]
    lengths, *_ = same_in_lockstep(fun, runs, race=())
    assert lengths == budgets


@pytest.mark.parametrize("n", [6, 18])
@pytest.mark.parametrize("plateau", [math.inf, math.nan])
def test_lockstep_budgets_that_end_inside_a_shrink(n, plateau):
    simplex = _box_simplex(n, 3)
    centre = simplex[0].copy()

    def fun(x):
        d = float(np.max(np.abs(x - centre)))
        return d if d < 0.05 else plateau

    runs = [(simplex, maxfev) for maxfev in range(n + 3, 2 * n + 5)]
    runs += [(_box_simplex(n, 9), 3 * n), (simplex, 1)]
    same_in_lockstep(fun, runs)


@pytest.mark.parametrize("n", [6, 18])
def test_lockstep_tied_costs_and_all_inf(n):
    bowl = _bumpy(n, 5)
    for quantum in (0.5, 2.0):
        fun = lambda x, q=quantum: q * math.floor(bowl(x) / q)  # noqa: E731
        runs = [(_box_simplex(n, 5 + k % 3), maxfev) for k, maxfev in enumerate(range(1, 3 * n + 20, 3))]
        same_in_lockstep(fun, runs + [(_box_simplex(n, 5), 60 * n)])
    with np.errstate(invalid="ignore"):
        same_in_lockstep(lambda x: math.inf, [(_box_simplex(n, 4), m) for m in (1, n + 2, 120)])


def test_lockstep_searches_that_stop_on_tolerance():
    # each search stops on xatol/fatol at its own round, long before maxfev
    runs = [(_box_simplex(6, 30 + k), 100_000) for k in range(5)]
    lengths, *_ = same_in_lockstep(_bumpy(6, 6), runs, fatol=1e-4, xatol=1e-4)
    assert max(lengths) < 100_000 and len(set(lengths)) > 1


def test_lockstep_on_the_edge_cost_objective():
    rng = np.random.default_rng(7)
    xyz = rng.normal(0.0, 8.0, (600, 3))
    cfg = AlignmentCostConfig(projection=ProjectionConfig.equirect(96, 48))
    source = PointCloud.bare(xyz)
    target = project_equirect(source, cfg.projection)

    def cost(x):
        return alignment_cost(source, from_euler(x), target, cfg)

    box = np.array([0.2] * 3 + [1.5] * 3)
    starts = [np.zeros(6), np.array([0.15, -0.1, 0.1, 1.0, -1.2, 0.8]), rng.uniform(-1, 1, 6) * box]
    runs = [(_initial_simplex(x0, box, 0.35), maxfev) for x0, maxfev in zip(starts, (150, 90, 7))]
    same_in_lockstep(cost, runs, fatol=1e-6)


def test_lockstep_of_no_searches_and_of_searches_without_budget():
    assert lockstep([], lambda xs: pytest.fail("nothing to score")) == []
    options = {"maxfev": 0, "fatol": 1e-6, "xatol": 1e-7, "initial_simplex": _box_simplex(6, 1)}
    ((x, f),) = lockstep([search(np.zeros(6), options=options)], lambda xs: pytest.fail("no budget"))
    assert x.tobytes() == _box_simplex(6, 1)[0].tobytes() and f == math.inf


# --- racing the searches ----------------------------------------------------------


def _quantised(n, seed, quantum, offset):
    """_bumpy plus offset, floored to a multiple of quantum as a raster cost
    steps by pixels; an offset above 0.05 n keeps it positive."""
    bowl = _bumpy(n, seed)
    if quantum == 0.0:
        return lambda x: bowl(x) + offset
    return lambda x: quantum * math.floor((bowl(x) + offset) / quantum)


def _field(n, count, seed, maxfev):
    return [(_box_simplex(n, seed + k), maxfev) for k in range(count)]


def _default_race(maxfev):
    return [(int(part * maxfev), margin) for part, margin in _RACE]


@given(
    n=st.sampled_from([6, 18]),
    seed=st.integers(0, 1000),
    count=st.integers(1, 8),
    maxfev=st.integers(1, 240),
    quantum=st.sampled_from([0.0, 1e-3, 0.05]),
    offset=st.sampled_from([-5.0, 0.0, 1.0, 6.0]),
    tol=st.sampled_from([1e-7, 1e-3]),
    race=st.lists(st.tuples(st.floats(0.0, 1.0), st.floats(1.0, 1.5)), max_size=3),
)
@settings(max_examples=40)
def test_a_race_retires_exactly_the_starts_its_rule_names(
    n, seed, count, maxfev, quantum, offset, tol, race
):
    # costs that are negative, mixed, zero-led or positive, with and without
    # starts that stop on xatol/fatol, against any checkpoint schedule
    fun = _quantised(n, seed, quantum, offset)
    checkpoints = [(int(part * maxfev), margin) for part, margin in race]
    fatol = 1e-12 if tol < 1e-6 else tol
    same_in_lockstep(fun, _field(n, count, seed, maxfev), fatol=fatol, xatol=tol, race=checkpoints)


@pytest.mark.parametrize("n", [6, 18])
def test_the_default_race_retires_some_starts_and_keeps_the_rest_exact(n):
    maxfev = 200 * n // 6
    fun = _quantised(n, 7, 1e-3, 0.05 * n + 0.01)
    runs = _field(n, 8, 40, maxfev)
    lengths, retired, _ = same_in_lockstep(fun, runs, race=_default_race(maxfev))
    assert 0 < len(retired) < 8
    assert {lengths[i] for i in retired} <= {maxfev // 2, maxfev * 3 // 4}


@pytest.mark.parametrize("n", [6, 18])
def test_a_race_retires_starts_at_inf_unless_every_start_is(n):
    # the last four starts sit where the cost is +inf everywhere their
    # simplex can reach, so they retire at the first checkpoint
    bowl = _quantised(n, 3, 1e-3, 0.05 * n + 0.01)
    box = np.array([0.3] * (n // 2) + [1.0] * (n - n // 2))
    far = np.full(n, 0.8)
    runs = _field(n, 4, 50, 200)
    runs += [(_initial_simplex(far + 0.01 * k, box, 0.35), 200) for k in range(4)]
    fun = lambda x: bowl(x) if x[0] < 0.5 else math.inf  # noqa: E731
    _, retired, _ = same_in_lockstep(fun, runs, race=_default_race(200))
    assert {i for i, (k, _) in retired.items() if k == 100} >= {4, 5, 6, 7}
    with np.errstate(invalid="ignore"):
        lengths, retired, _ = same_in_lockstep(lambda x: math.inf, runs, race=_default_race(200))
    assert not retired and lengths == [200] * 8


@pytest.mark.parametrize("n", [6, 18])
def test_a_race_keeps_starts_tied_with_the_leader(n):
    # coarse steps: several starts reach the leader's cost exactly, and a
    # tie is not a trail, so those run on
    fun = _quantised(n, 5, 0.5, 0.05 * n + 0.01)
    _, retired, fs = same_in_lockstep(fun, _field(n, 8, 60, 200), race=_default_race(200))
    tied = {i for i, f in enumerate(fs) if f == min(fs)}
    assert retired and len(tied) > 1 and not tied & retired.keys()


def test_a_race_on_negative_costs_keeps_its_leader():
    # a margin scales the leader's distance from zero, so a negative leader
    # is not above its own bar
    fun = _quantised(6, 4, 1e-3, -0.1)
    _, retired, fs = same_in_lockstep(fun, _field(6, 8, 70, 200), race=[(100, 1.05), (150, 1.02)])
    assert max(fs) < 0 and retired and fs.index(min(fs)) not in retired


def test_a_race_counts_a_start_that_stopped_with_its_final_cost():
    # xatol/fatol stop some starts before the checkpoint; the rest race
    # against the best of them
    fun = _quantised(6, 6, 0.0, 0.31)
    runs = _field(6, 6, 30, 100_000)
    alone, *_ = same_in_lockstep(fun, runs, fatol=1e-4, xatol=1e-4)
    k = sorted(alone)[2]
    _, retired, fs = same_in_lockstep(fun, runs, fatol=1e-4, xatol=1e-4, race=[(k, 1.0)])
    # the leader is a start that had stopped, and it retired the others
    assert alone[fs.index(min(fs))] <= k < max(alone) and retired


def test_multistarts_below_the_race_floor_retire_nothing():
    # 8 x 199 evaluations leave 199 per start, one short of _RACE_MIN_MAXFEV
    bowl = _quantised(6, 9, 1e-3, 0.31)
    box = np.array([0.02] * 3 + [0.2] * 3)
    runs = {}
    for budget in (8 * (_RACE_MIN_MAXFEV - 1), 8 * _RACE_MIN_MAXFEV):
        for race in (False, True):
            calls = []

            def costs(xs):
                calls.extend(xs)
                return [bowl(x) for x in xs]

            x, f = _multistart(costs, box, budget, np.random.default_rng(4), race=race)
            runs[budget, race] = x.tobytes(), f, len(calls)
    below, at = 8 * (_RACE_MIN_MAXFEV - 1), 8 * _RACE_MIN_MAXFEV
    assert runs[below, True] == runs[below, False]
    assert runs[at, True][2] < runs[at, False][2] == at


def test_rejects_a_simplex_of_the_wrong_shape():
    options = {"maxfev": 10, "fatol": 1e-6, "xatol": 1e-7}
    with pytest.raises(ValueError, match="shape"):
        minimize(np.sum, np.zeros(3), options={**options, "initial_simplex": np.zeros((3, 3))})
    with pytest.raises(ValueError, match="x0"):
        minimize(np.sum, np.zeros(2), options={**options, "initial_simplex": np.zeros((4, 3))})


def test_importing_the_package_loads_no_scipy():
    code = (
        "import sys, sensorcal, sensorcal.cli; "
        "print(sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy'))"
    )
    src = str(Path(sensorcal.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={"PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"
