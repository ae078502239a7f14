"""Column-wise constraint matrices: the SparseMatrix store, equality of every
assembled program with the dense assembly it replaced, and the memory the
real river's programs take to build and solve."""

import tracemalloc

import numpy as np
import pytest

from hydrosp import lshaped
from hydrosp.core import (FiniteProgram, build_deterministic_equivalent,
                          scenario_stages, scenario_values,
                          solve_deterministic)
from hydrosp.hydro import Resolution, default_river
from hydrosp.lp import LinearProgram, SparseMatrix
from hydrosp.models import (CostParams, WaterValuePool,
                            build_capacity, build_day_ahead,
                            build_maintenance, build_week_ahead,
                            total_capacity)
from hydrosp.models.common import RowSet
from hydrosp.scenarios import (SamplerConfig, default_blocks, price_levels,
                               sample_capacity_horizon, sample_day_ahead_set)
from _reference import (dense_deterministic_equivalent, dense_master,
                        dense_materialize)
from _toys import capacity_toy, day_ahead_toy, maintenance_toy

MIB = 2 ** 20


def _sparse_dense(rng, m=7, n=9):
    """A dense matrix with exact zeros, negative zeros and an empty column
    and row."""
    A = rng.uniform(-1.0, 1.0, (m, n)) * (rng.uniform(size=(m, n)) < 0.4)
    A[:, 3] = 0.0
    A[2, :] = -0.0
    A[0, 0] = -0.0
    return A


# ------------------------------------------------------------ the store

def test_store_is_column_major_without_zeros(rng):
    A = _sparse_dense(rng)
    S = SparseMatrix.from_dense(A)
    assert S.shape == A.shape and S.nnz == np.count_nonzero(A)
    assert np.all(S.value != 0.0)
    for j in range(A.shape[1]):
        rows = S.index[S.start[j]:S.start[j + 1]]
        assert rows.tolist() == np.flatnonzero(A[:, j]).tolist()
        assert np.array_equal(S.value[S.start[j]:S.start[j + 1]], A[rows, j])
    assert np.array_equal(S.dense(), A)
    # triplets in any order, with explicit zeros, give the same store
    r, c = np.nonzero(np.ones_like(A))
    perm = rng.permutation(r.size)
    T = SparseMatrix.from_triplets(A.shape, r[perm], c[perm],
                                   A[r, c][perm])
    assert T == S


def test_products_equal_the_column_order_loop(rng):
    A = _sparse_dense(rng)
    S = SparseMatrix.from_dense(A)
    x = rng.normal(size=A.shape[1])
    y = rng.normal(size=A.shape[0])
    ax = np.zeros(A.shape[0])
    ya = np.zeros(A.shape[1])
    for j in range(A.shape[1]):
        for i in np.flatnonzero(A[:, j]):
            ax[i] += A[i, j] * x[j]
            ya[j] += y[i] * A[i, j]
    assert np.array_equal(S @ x, ax)
    assert np.array_equal(y @ S, ya)
    empty = SparseMatrix.from_triplets((0, 4))
    assert (empty @ np.ones(4)).shape == (0,)
    assert np.array_equal(np.zeros(0) @ empty, np.zeros(4))


def test_take_and_hstack_match_the_dense_matrix(rng):
    for _ in range(20):
        m = int(rng.integers(3, 8))
        blocks = [_sparse_dense(rng, m, int(rng.integers(4, 9)))
                  for _ in range(int(rng.integers(1, 4)))]
        A = np.hstack(blocks)
        S = SparseMatrix.hstack([SparseMatrix.from_dense(B) for B in blocks])
        assert S == SparseMatrix.from_dense(A)
        cols = rng.integers(0, A.shape[1], int(rng.integers(0, 12)))
        T = S.take(cols)
        assert T.shape == (m, len(cols))
        assert np.array_equal(T.dense(), A[:, cols])
    assert np.array_equal(S.columns(), S.triplets()[1])
    assert S.columns() is S.columns()
    with pytest.raises(ValueError, match="row count"):
        SparseMatrix.hstack([S, SparseMatrix.from_dense(np.ones((m + 1, 2)))])


def test_store_is_immutable(rng):
    S = SparseMatrix.from_dense(_sparse_dense(rng))
    for arr in (S.start, S.index, S.value):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1


@pytest.mark.parametrize("rows, cols, match", [
    ([0, 0], [1, 1], "twice"),
    ([3], [0], "outside"),
    ([0], [-1], "outside"),
    ([0, 1], [0], "length"),
])
def test_bad_triplets_are_rejected(rows, cols, match):
    with pytest.raises(ValueError, match=match):
        SparseMatrix.from_triplets((3, 2), rows, cols, np.ones(len(rows)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
def test_stores_reject_non_finite_values(bad):
    # a store is finite by construction, so no program scans it again
    with pytest.raises(ValueError, match="^triplet values must be finite$"):
        SparseMatrix.from_triplets((2, 2), [0, 1], [0, 1], [1.0, bad])
    A = np.eye(2)
    A[1, 0] = bad
    with pytest.raises(ValueError, match="^A must be finite$"):
        SparseMatrix.from_dense(A)
    with pytest.raises(ValueError, match="^T must be finite$"):
        SparseMatrix.from_dense(A, "T")


def test_linear_program_converts_a_dense_matrix_once(rng):
    A = _sparse_dense(rng)
    lp = LinearProgram(np.ones(A.shape[1]), A, ["<="] * A.shape[0],
                       np.ones(A.shape[0]))
    assert lp.matrix == SparseMatrix.from_dense(A)
    assert np.array_equal(lp.A, A)
    assert LinearProgram(lp.c, lp.matrix, lp.senses, lp.b).matrix is lp.matrix
    bad = A.copy()
    bad[1, 1] = np.inf
    with pytest.raises(ValueError, match="finite"):
        LinearProgram(lp.c, bad, lp.senses, lp.b)


# ------------------------------------- equality with the dense assembly

def _river_model(name):
    """One of the four models on the 15-plant river, with two scenarios;
    only that model is built."""
    net = default_river()
    sc = SamplerConfig(seed=11)
    samples = sample_day_ahead_set(sc, net, 2)
    levels = price_levels(samples, 5)
    if name == "day_ahead":
        # a pool with a zero slope, so the model skips that coefficient
        slopes = np.arange(len(net.plants), dtype=np.float64)
        pool = WaterValuePool(net.plant_ids, [3.0], slopes[None, :])
        program = build_day_ahead(net, levels, blocks=default_blocks(24, 4),
                                  water_value=pool).program
    elif name == "maintenance":
        program = build_maintenance(net, levels).program
    elif name == "capacity":
        res = Resolution(24)
        program = build_capacity(net, res, 1,
                                 CostParams(total_cap_mw=1e5)).program
        samples = [sample_capacity_horizon(sc, net, 1, res, i)
                   for i in range(2)]
    else:
        program, _, _ = build_week_ahead(net, Resolution(1), horizon_hours=24)
        samples = [sample_capacity_horizon(sc, net, 1, Resolution(1), i)
                   for i in range(2)]
    return FiniteProgram(program, samples)


_MODELS = ("day_ahead", "maintenance", "capacity", "week_ahead")


@pytest.fixture(scope="module")
def river_models():
    """The four models on the 15-plant river, each with two scenarios."""
    return {name: _river_model(name) for name in _MODELS}


@pytest.mark.parametrize("name", _MODELS)
def test_river_stages_equal_dense_rows(monkeypatch, name):
    # the recourse rows are materialized once, when the model is built,
    # and equal the dense assembly; the stages only share them
    materialize = RowSet.materialize
    checked = []

    def compare(self):
        T, W, senses, h = materialize(self)
        if self.n_second:
            Td, Wd, sd, hd = dense_materialize(self)
            assert np.array_equal(T.dense(), Td)
            assert np.array_equal(W.dense(), Wd)
            assert np.array_equal(senses, sd) and np.array_equal(h, hd)
            checked.append(W.nnz)
        return T, W, senses, h

    monkeypatch.setattr(RowSet, "materialize", compare)
    fp = _river_model(name)
    assert len(checked) == 1 and checked[0] > 0
    stages = scenario_stages(fp)
    assert len(checked) == 1 and len(stages) == 2
    for attr in ("W", "senses", "lb", "ub"):
        assert getattr(stages[1], attr) is getattr(stages[0], attr)


def test_maintenance_de_equals_dense_blocks(river_models):
    fp = river_models["maintenance"]
    de = build_deterministic_equivalent(fp)
    c, A, senses, b, lb, ub = dense_deterministic_equivalent(
        fp.program.first_stage, de.stages, fp.probabilities, de.sign)
    assert de.binaries
    assert np.array_equal(de.lp.matrix.dense(), A)
    assert np.array_equal(de.lp.senses, senses)
    for got, want in ((de.lp.c, c), (de.lp.b, b), (de.lp.lb, lb),
                      (de.lp.ub, ub)):
        assert np.array_equal(got, want)


def _assert_master_equal(lp, dense):
    c, A, senses, b, lb, ub = dense
    assert np.array_equal(lp.matrix.dense(), A)
    assert np.array_equal(lp.senses, senses)
    for got, want in ((lp.c, c), (lp.b, b), (lp.lb, lb), (lp.ub, ub)):
        assert np.array_equal(got, want)


def test_capacity_master_after_three_iterations_equals_dense(river_models):
    # one cut group per scenario (groups None or K = N = 2), and K = 1 < N:
    # the single-cut master of --solver.groups 1
    fp = river_models["capacity"]
    fs, sign = fp.program.first_stage, fp.program.sign
    N = fp.n_scenarios
    for groups in (None, 1, 2):
        result = lshaped.solve(fp, lshaped.LShapedConfig(max_iterations=3,
                                                         groups=groups))
        assert result.iterations == 3 and len(result.cuts) > 2, groups
        pg = lshaped._groups(N if groups is None else groups, N) \
            @ fp.probabilities
        args = (fs, sign, result.cuts, pg)
        _assert_master_equal(lshaped._build_master(*args),
                             dense_master(*args))


def test_binary_master_after_three_iterations_equals_dense():
    _, fp = maintenance_toy(n_scen=2)
    fs, sign = fp.program.first_stage, fp.program.sign
    result = lshaped.solve(fp, lshaped.LShapedConfig(max_iterations=3))
    args = (fs, sign, result.cuts, fp.probabilities)
    lp = lshaped._build_master(*args)
    assert lp.nrows == fs.A.shape[0] + len(result.cuts) > fs.A.shape[0]
    _assert_master_equal(lp, dense_master(*args))


def test_solvers_never_densify(monkeypatch):
    def refuse(self):
        raise AssertionError("dense export of a constraint matrix")

    day_model, day = day_ahead_toy()
    _, cap = capacity_toy(n_scen=3)
    _, maint = maintenance_toy(n_scen=2)
    monkeypatch.setattr(SparseMatrix, "dense", refuse)
    x = np.zeros(day.program.first_stage.nvars)
    x[day_model.layout.xi(0)] = 1.0
    assert np.all(np.isfinite(scenario_values(day, x)))
    assert lshaped.solve(cap).converged
    assert solve_deterministic(maint).solution.ok
    assert solve_deterministic(cap).solution.ok


# ----------------------------------------------------------------- memory

def _traced(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_river_day_ahead_de_at_50_scenarios_builds_small():
    # the dense matrix of this program is about 13.5 GB
    net = default_river()
    samples = sample_day_ahead_set(SamplerConfig(seed=3), net, 50)
    levels = price_levels(samples, 5)
    model = build_day_ahead(net, levels, blocks=default_blocks(24, 4),
                            water_value=WaterValuePool.zero(net.plant_ids))
    fp = FiniteProgram(model.program, samples)
    de, peak = _traced(lambda: build_deterministic_equivalent(fp))
    assert de.lp.nrows > 20000 and de.lp.nvars > 75000
    assert peak < 100 * MIB, peak / MIB


def test_week_ahead_stages_build_small():
    # each dense 168-hour W is 2,520 x 10,080, about 194 MiB
    net = default_river()
    program, _, _ = build_week_ahead(net)
    sc = SamplerConfig(seed=5)
    samples = [sample_capacity_horizon(sc, net, 7, Resolution(1), i)
               for i in range(3)]
    stages, peak = _traced(lambda: scenario_stages(
        FiniteProgram(program, samples)))
    assert stages[0].W.shape == (2520, 10080)
    assert peak < 50 * MIB, peak / MIB


def test_river_day_ahead_evaluation_peaks_small():
    # one call of the benchmark's dayahead-eval workload: a fixed bid of
    # 30 % of capacity every hour on six scenarios of the 15-plant river
    net = default_river()
    samples = sample_day_ahead_set(SamplerConfig(seed=1), net, 6)
    levels = price_levels(samples, 5)
    model = build_day_ahead(net, levels, blocks=default_blocks(24, 4),
                            water_value=WaterValuePool.zero(net.plant_ids))
    x = np.zeros(model.layout.n_first)
    for t in range(model.layout.horizon):
        x[model.layout.xi(t)] = 0.3 * total_capacity(net)
    fp = FiniteProgram(model.program, samples)
    vals, peak = _traced(lambda: scenario_values(fp, x))
    assert vals.shape == (6,)
    # a refactorization drops the old B^-1 before it inverts, so it holds
    # two m x m arrays (inv's dense B and its output), not three
    m = model.program.recourse.W.shape[0]
    assert peak < 3 * m * m * 8, peak / (m * m * 8)
