import numpy as np
import pytest

from wpkrylov import weighting
from wpkrylov.linalg import cholesky
from wpkrylov.schwarz import PartitionSpec, SchwarzPreconditioner, build_partition, build_preconditioner
from wpkrylov.solvers import LinearSystem, SolveConfig, wp_gcr_right
from wpkrylov.weighting import (
    InvalidWeightError,
    PreconditionerHandle,
    WeightOperator,
)

from conftest import make_pd_system, make_spd
from dense_reference import w_inner, w_norm


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


@pytest.mark.parametrize("cls", [WeightOperator, PreconditionerHandle])
def test_only_identity_marks_the_identity(cls):
    # a marker the constructor took would let an operator's action be
    # skipped; only identity() sets it, and views of it keep their action
    assert cls.identity(3).is_identity
    assert not cls(3, lambda x: 2.0 * x).is_identity
    assert not PreconditionerHandle.identity(3).as_weight().is_identity
    with pytest.raises(TypeError):
        cls(3, lambda x: 2.0 * x, is_identity=True)


def _two_level_weight(cdr_assembled):
    assembled = cdr_assembled(20)
    maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid"),
                           coords=assembled.dof_coords)
    return build_preconditioner(assembled.m_matrix, maps, "two_level_sym").as_weight()


def _skewed_spd(n):
    rng = np.random.default_rng(3)
    s = make_spd(rng, n)
    skew = rng.standard_normal((n, n))
    skew = (skew - skew.T) / np.linalg.norm(skew - skew.T, 2)
    return s + 1e-8 * np.linalg.norm(s, 2) * skew


@pytest.mark.parametrize("make, verdict", [
    (lambda build: WeightOperator.from_dense(make_spd(np.random.default_rng(2), 50)), None),
    (_two_level_weight, None),
    (lambda build: WeightOperator.from_dense(_skewed_spd(50)), "failed a symmetry probe"),
    (lambda build: WeightOperator.from_dense(np.diag([1.0] * 49 + [-50.0])),
     "failed a positivity probe"),
    (lambda build: WeightOperator.from_dense([[1.0, np.nan], [np.nan, 1.0]]),
     "gave a non-finite image"),
    (lambda build: WeightOperator.from_dense([[1.0, np.inf], [np.inf, 1.0]]),
     "gave a non-finite image"),
], ids=["dense-spd", "two-level-schwarz", "skew-1e-8", "diag-minus-n", "nan", "inf"])
def test_probe_verdicts(cdr_assembled, make, verdict):
    # no RuntimeWarning may escape either: the suite turns warnings into errors
    if verdict is None:
        assert isinstance(make(cdr_assembled), WeightOperator)
    else:
        with pytest.raises(InvalidWeightError, match=verdict):
            make(cdr_assembled)


@pytest.mark.parametrize("kind", ["dense", "two-level-schwarz"])
def test_probe_applies_w_64_times_to_single_vectors(cdr_assembled, monkeypatch, kind):
    seen = []
    if kind == "dense":
        s = make_spd(np.random.default_rng(4), 30)
        WeightOperator(30, lambda v: seen.append(v.copy()) or s @ v)
    else:
        apply = SchwarzPreconditioner.apply
        monkeypatch.setattr(SchwarzPreconditioner, "__call__",
                            lambda self, v: seen.append(np.array(v)) or apply(self, v))
        _two_level_weight(cdr_assembled)
    # 32 pairs, each drawn uniform on [-1/2, 1/2) in one call, x applied before y
    rng = np.random.default_rng(weighting._PROBE_SEED)
    want = [v for _ in range(32) for v in rng.random((2, seen[0].size)) - 0.5]
    assert len(seen) == 64 and all(v.ndim == 1 for v in seen)
    assert all(np.array_equal(v, w) for v, w in zip(seen, want))
