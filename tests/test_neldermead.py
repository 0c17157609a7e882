"""The in-repo Nelder-Mead against scipy's, lock-step against one at a time,
and the package's import graph.

scipy is only the reference here: ``sensorcal.neldermead.minimize`` must
return the same bits for ``x`` and ``f`` and hand the objective the same
candidates in the same order, so the evaluation count matches too.  The
cases pin the corners of scipy's loop: budgets that end during the initial
evaluations, before an expansion, a contraction or inside a shrink; +inf
plateaus and an all-+inf simplex; tied costs; and runs that stop on
``xatol``/``fatol``, among them the final polish's ``xatol = 1e-5`` on a
quantised cost.
"""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sensorcal
from sensorcal.data import PointCloud
from sensorcal.estimate import AlignmentCostConfig, _initial_simplex, alignment_cost
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
    # the final polish's tolerances (xatol 1e-5, fatol 1e-5) on a cost
    # quantised like a raster's: the simplex settles on one plateau, and the
    # search stops on xatol before maxfev, which it reaches with xatol 1e-7
    bowl = _bumpy(n, 6)
    fun = lambda x: round(bowl(x), 3)  # noqa: E731
    simplex = _box_simplex(n, 6)
    calls = same_run(scipy_minimize, fun, simplex, maxfev, fatol=1e-5, xatol=1e-5)
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


def same_in_lockstep(fun, runs, *, fatol=1e-12, xatol=1e-7):
    """Run searches from runs = [(simplex, maxfev), ...] one at a time with
    minimize and together with lockstep; assert that each search sees the
    same candidates in the same order and returns the same bits, and that
    every round scores one candidate of each search still running."""
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
    results = lockstep(searches, costs)
    for (calls, x, f), seen, (x_lock, f_lock) in zip(alone, together, results):
        assert seen == calls
        assert x_lock.tobytes() == x.tobytes()
        assert np.float64(f_lock).tobytes() == np.float64(f).tobytes()
    lengths = [len(calls) for calls, _, _ in alone]
    assert rounds == [sum(n > k for n in lengths) for k in range(max(lengths))]
    return lengths


@pytest.mark.parametrize("n", [6, 18])
def test_lockstep_equals_minimize_for_every_start(n):
    # different simplices and budgets: one evaluation (the starved starts of
    # a wide first stage), N + 1, and runs that end at different rounds
    fun = _bumpy(n, n)
    budgets = [1, n + 1, n + 2, 2 * n + 3, 40, 200 * n // 6, 1, 7]
    runs = [(_box_simplex(n, 20 + k), maxfev) for k, maxfev in enumerate(budgets)]
    lengths = same_in_lockstep(fun, runs)
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
    lengths = same_in_lockstep(_bumpy(6, 6), runs, fatol=1e-4, xatol=1e-4)
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
