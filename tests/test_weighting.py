import numpy as np
import pytest

from wpkrylov.linalg import cholesky
from wpkrylov.solvers import LinearSystem, SolveConfig, wp_gcr_right
from wpkrylov.weighting import (
    InvalidWeightError,
    PreconditionerHandle,
    WeightOperator,
    w_inner,
    w_norm,
)

from conftest import make_pd_system, make_spd


def test_w_inner_identity():
    w = WeightOperator.identity(2)
    assert w_inner(w, np.array([1.0, 2.0]), np.array([3.0, 4.0])) == pytest.approx(11.0)


def test_w_inner_diagonal():
    w = WeightOperator.from_dense(np.diag([2.0, 3.0]))
    assert w_inner(w, np.ones(2), np.ones(2)) == pytest.approx(5.0)


def test_w_inner_random_spd_positive():
    rng = np.random.default_rng(1)
    s = make_spd(rng, 12)
    cholesky(s)  # SPD by construction
    w = WeightOperator.from_dense(s)
    x = rng.standard_normal(12)
    assert w_inner(w, x, x) > 0.0


def test_w_norm_examples():
    assert w_norm(WeightOperator.identity(2), np.array([3.0, 4.0])) == pytest.approx(5.0)
    assert w_norm(WeightOperator.identity(3), np.zeros(3)) == 0.0
    assert w_norm(WeightOperator.from_dense([[4.0]]), np.array([1.0])) == pytest.approx(2.0)


def test_w_norm_flags_indefinite_weight():
    w = WeightOperator.from_dense(np.eye(2))
    w._op = type(w._op)(2, lambda x: np.array([x[0], -x[1]]))  # break it after validation
    with pytest.raises(InvalidWeightError):
        w_norm(w, np.array([0.0, 1.0]))


def test_construction_rejects_asymmetric():
    bad = np.array([[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(InvalidWeightError):
        WeightOperator.from_dense(bad)


def test_construction_rejects_indefinite():
    with pytest.raises(InvalidWeightError):
        WeightOperator.from_dense(np.diag([1.0, -1.0]))


def test_w_gram_of_solver_directions_is_diagonal():
    a, h, b = make_pd_system(42, n=10)
    w = WeightOperator.from_dense(h)
    result = wp_gcr_right(
        LinearSystem(a, b),
        PreconditionerHandle.from_dense(h, hermitian_flag=True),
        w,
        SolveConfig(rel_tolerance=1e-8),
    )
    assert result.status == "converged"
    q = np.array(result.q_directions)
    gram = q @ np.array([w.apply(row) for row in q]).T
    off = gram - np.diag(np.diag(gram))
    assert np.abs(off).max() <= 1e-8 * np.diag(gram).max()


def test_cauchy_schwarz():
    rng = np.random.default_rng(33)
    w = WeightOperator.from_dense(make_spd(rng, 15))
    for _ in range(25):
        x = rng.standard_normal(15)
        y = rng.standard_normal(15)
        assert abs(w_inner(w, x, y)) <= w_norm(w, x) * w_norm(w, y) * (1.0 + 1e-12)


def test_identity_weight_matches_euclidean():
    rng = np.random.default_rng(35)
    w = WeightOperator.identity(40)
    for _ in range(10):
        x = rng.standard_normal(40)
        assert abs(w_norm(w, x) - np.linalg.norm(x)) <= 1e-14 * np.linalg.norm(x)


def test_dense_weight_matches_quadratic_form():
    rng = np.random.default_rng(37)
    s = make_spd(rng, 10)
    w = WeightOperator.from_dense(s)
    for _ in range(10):
        x = rng.standard_normal(10)
        y = rng.standard_normal(10)
        ref = y @ s @ x
        assert abs(w_inner(w, x, y) - ref) <= 1e-13 * max(abs(ref), 1.0)


def test_preconditioner_as_weight_requires_flag():
    h = PreconditionerHandle.from_dense(np.eye(3), hermitian_flag=False)
    with pytest.raises(Exception):
        h.as_weight()
