import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.sparse

from wpkrylov import solvers
from wpkrylov.linalg import LinearOperator, aslinearoperator, densify

from wpkrylov.solvers import (
    IterationTrace,
    LinearSystem,
    SolveConfig,
    gmres_arnoldi_oracle,
    whp_gcr,
    whp_gcr_alt_a,
    whp_gcr_alt_b,
    wp_gcr_left,
    wp_gcr_right,
    _Directions,
    _drifted,
    _recurrence_norm,
    _REORTH_ETA,
)
from wpkrylov.weighting import (
    NotHermitianPreconditionerError,
    PreconditionerHandle,
    WeightOperator,
)

from conftest import make_pd_system, make_spd


def identity_setup(n=4):
    return (
        PreconditionerHandle.identity(n),
        WeightOperator.identity(n),
        SolveConfig(),
    )


def dense_setup(a, h_dense, w_dense=None, **cfg_kw):
    n = a.shape[0]
    h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
    w = WeightOperator.from_dense(w_dense if w_dense is not None else h_dense)
    return h, w, SolveConfig(**cfg_kw)


def krylov_ls_residuals(a, h_dense, w_dense, b, n_steps):
    """Independent oracle: explicit Krylov basis + dense least squares (QR)
    for min ||b - A x||_W over x in the span, x0 = 0."""
    lw = np.linalg.cholesky(w_dense)
    r0 = b.copy()
    res = [np.linalg.norm(lw.T @ r0)]
    v = h_dense @ r0
    cols = []
    for _ in range(n_steps):
        cols.append(v)
        img = lw.T @ (a @ np.column_stack(cols))
        q, _ = np.linalg.qr(img)
        rw = lw.T @ r0
        res.append(float(np.linalg.norm(rw - q @ (q.T @ rw))))
        v = h_dense @ (a @ v)
    return res


def assert_sequences_close(got, expected, rtol=1e-9):
    """Pointwise relative agreement, treating values at the round-off floor
    (below 1e-12 of the initial residual) as equal zeros."""
    floor = 1e-12 * max(got[0], expected[0])
    for x, y in zip(got, expected):
        if max(x, y) <= floor:
            continue
        assert abs(x - y) <= rtol * max(x, y)


class TestRightGcr:
    def test_identity_one_iteration(self):
        h, w, cfg = identity_setup(5)
        b = np.array([1.0, -2.0, 0.5, 3.0, 1.0])
        res = wp_gcr_right(LinearSystem(np.eye(5), b), h, w, cfg)
        assert res.status == "converged"
        assert res.iterations == 1
        assert res.trace.residual_norm_weighted[-1] <= 1e-14

    def test_skew_breakdown_at_zero(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        h, w, cfg = identity_setup(2)
        res = wp_gcr_right(LinearSystem(a, np.array([1.0, 0.0])), h, w, cfg)
        assert res.status == "breakdown"
        assert res.trace.breakdown is not None
        assert res.trace.breakdown.iteration == 0

    def test_orthodir_recovery_solves_skew_system(self):
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        h = PreconditionerHandle.identity(2)
        w = WeightOperator.identity(2)
        cfg = SolveConfig(breakdown_policy="restart_orthodir_style")
        res = wp_gcr_right(LinearSystem(a, np.array([1.0, 0.0])), h, w, cfg)
        assert res.status == "converged"
        assert np.allclose(res.x, [0.0, 1.0])
        assert res.trace.breakdown is not None

    def test_orthodir_recovery_under_truncation_and_restart(self):
        # window trimming must not lose the recovery source direction
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        h = PreconditionerHandle.identity(2)
        w = WeightOperator.identity(2)
        for overrides in ({}, {"truncation_window": 0}, {"truncation_window": 1},
                          {"restart_period": 1}):
            cfg = SolveConfig(breakdown_policy="restart_orthodir_style", **overrides)
            res = wp_gcr_right(LinearSystem(a, np.array([1.0, 0.0])), h, w, cfg)
            assert res.status == "converged", overrides
            assert np.allclose(res.x, [0.0, 1.0])

    def test_matches_explicit_krylov_least_squares(self):
        rng = np.random.default_rng(101)
        n = 8
        sym = make_spd(rng, n)
        skew = rng.standard_normal((n, n))
        a = sym + 0.4 * (skew - skew.T)
        b = rng.standard_normal(n)
        h, w, cfg = identity_setup(n)
        res = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        assert res.status == "converged"
        oracle = krylov_ls_residuals(a, np.eye(n), np.eye(n), b, res.iterations)
        assert_sequences_close(res.trace.residual_norm_weighted, oracle)

    def test_converged_true_residual(self):
        a, h_dense, b = make_pd_system(5)
        h, w, cfg = dense_setup(a, h_dense)
        res = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        assert res.status == "converged"
        true_res = b - a @ res.x
        w_mat = h_dense
        rw = np.sqrt(true_res @ w_mat @ true_res)
        bw = np.sqrt(b @ w_mat @ b)
        assert rw <= 2.0 * cfg.rel_tolerance * bw

    def test_monotone_and_orthogonal_residuals(self):
        a, h_dense, b = make_pd_system(8)
        h, w, cfg = dense_setup(a, h_dense, record_iterates=True)
        res = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        norms = res.trace.residual_norm_weighted
        for prev, cur in zip(norms, norms[1:]):
            assert cur <= prev * (1.0 + 1e-12)
        # every residual is W-orthogonal to the directions already taken
        for i, x_i in enumerate(res.trace.iterates):
            r_i = b - a @ x_i
            wr = h_dense @ r_i
            rw = np.sqrt(max(r_i @ wr, 0.0))
            for q in res.q_directions[:i]:
                qn = np.sqrt(q @ h_dense @ q)
                assert abs(wr @ q) <= 1e-8 * max(rw * qn, 1e-30)

    def test_direction_norm_never_exceeds_image_norm(self):
        a, h_dense, b = make_pd_system(12)
        h, w, cfg = dense_setup(a, h_dense)
        for res in (wp_gcr_right(LinearSystem(a, b), h, w, cfg),
                    whp_gcr(LinearSystem(a, b), h, cfg)):
            assert len(res.trace.az_norm_weighted) == len(res.trace.delta) == res.iterations
            for az_norm, delta in zip(res.trace.az_norm_weighted, res.trace.delta):
                assert np.sqrt(delta) <= az_norm * (1.0 + 1e-12)

    def test_deltas_positive(self):
        a, h_dense, b = make_pd_system(6)
        h, w, cfg = dense_setup(a, h_dense)
        res = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        assert all(d > 0.0 for d in res.trace.delta)

    def test_nonzero_initial_guess(self):
        a, h_dense, b = make_pd_system(21, n=10)
        h, w, cfg = dense_setup(a, h_dense)
        x0 = np.linalg.solve(a, b) + 1e-3
        res = wp_gcr_right(LinearSystem(a, b, x0=x0), h, w, cfg)
        assert res.status == "converged"
        assert np.allclose(a @ res.x, b, atol=1e-5 * np.linalg.norm(b))


    def test_euclidean_weight_is_never_applied(self):
        # with W = I the norms are Euclidean and W(Az) is Az itself
        a, h_dense, b = make_pd_system(45)
        n = a.shape[0]
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.identity(n)
        calls = [0]
        apply = w.apply

        def counted(x):
            calls[0] += 1
            return apply(x)

        w.apply = counted
        res = wp_gcr_right(LinearSystem(a, b), h, w, SolveConfig())
        assert res.status == "converged" and res.iterations > 0
        assert calls[0] == 0
        # the same solve through the general path, with I as a non-identity weight
        ref = wp_gcr_right(LinearSystem(a, b), h, WeightOperator.from_dense(np.eye(n)),
                           SolveConfig())
        assert ref.iterations == res.iterations
        assert np.allclose(res.trace.residual_norm_weighted, ref.trace.residual_norm_weighted,
                           rtol=1e-10, atol=0.0)
        assert np.allclose(res.x, ref.x, rtol=1e-10, atol=0.0)


class TestVariants:
    def test_mr_per_step_identity_exact(self):
        rng = np.random.default_rng(7)
        a = make_spd(rng, 10)
        b = rng.standard_normal(10)
        h, w, _ = identity_setup(10)
        cfg = SolveConfig(truncation_window=0, max_iterations=200)
        res = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        tr = res.trace
        for i in range(res.iterations):
            lhs = tr.residual_norm_weighted[i + 1] ** 2 / tr.residual_norm_weighted[i] ** 2
            rhs = 1.0 - tr.gamma[i] ** 2 / (tr.delta[i] * tr.residual_norm_weighted[i] ** 2)
            assert abs(lhs - rhs) <= 1e-10

    def test_orthomin_full_window_equals_gcr(self):
        a, h_dense, b = make_pd_system(3, n=12)
        h, w, _ = dense_setup(a, h_dense)
        full = wp_gcr_right(LinearSystem(a, b), h, w, SolveConfig(record_iterates=True))
        trunc = wp_gcr_right(LinearSystem(a, b), h, w,
                             SolveConfig(record_iterates=True, truncation_window=12))
        assert full.iterations == trunc.iterations
        for xa, xb in zip(full.trace.iterates, trunc.trace.iterates):
            assert np.allclose(xa, xb, atol=1e-12 * max(np.abs(xa).max(), 1.0))

    def test_restart_markers(self):
        a, h_dense, b = make_pd_system(9, n=15)
        h, w, _ = dense_setup(a, h_dense)
        res = wp_gcr_right(LinearSystem(a, b), h, w, SolveConfig(restart_period=3))
        assert res.status == "converged"
        assert res.trace.restart_markers
        assert all(m % 3 == 0 for m in res.trace.restart_markers)

    def test_truncated_monotone(self):
        a, h_dense, b = make_pd_system(11, n=15)
        h, w, _ = dense_setup(a, h_dense)
        for k in (0, 1, 3):
            res = wp_gcr_right(LinearSystem(a, b), h, w,
                               SolveConfig(max_iterations=400, truncation_window=k))
            assert res.status == "converged"
            norms = res.trace.residual_norm_weighted
            for prev, cur in zip(norms, norms[1:]):
                assert cur <= prev * (1.0 + 1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SolveConfig(rel_tolerance=0.0)
        for tolerance in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="rel_tolerance must be positive and finite"):
                SolveConfig(rel_tolerance=tolerance)
        with pytest.raises(ValueError):
            SolveConfig(restart_period=2, truncation_window=1)
        with pytest.raises(ValueError):
            SolveConfig(stopping_norm="elsewhere")
        # counts are integers: a float, even integral, NaN or a bool is
        # rejected by name, not left to fail in the direction store
        for name in ("max_iterations", "truncation_window", "restart_period"):
            for value in (3.0, 1.5, float("nan"), True, np.float64(2.0)):
                with pytest.raises(ValueError, match=f"{name} must be an integer"):
                    SolveConfig(**{name: value})
            assert getattr(SolveConfig(**{name: np.int64(3)}), name) == 3
        with pytest.raises(ValueError, match="max_iterations must be an integer"):
            SolveConfig(max_iterations=None)
        with pytest.raises(ValueError, match="truncation_window must be >= 0"):
            SolveConfig(truncation_window=np.int32(-1))


def loop_gcr(a, h_dense, w_dense, b, cfg):
    """Reference right GCR with one Python step per held direction: classical
    Gram-Schmidt against a list trimmed to the window or cleared on restart.
    Returns the weighted residual norms and the iterates, x0 = 0 first."""
    r = b.copy()
    x = np.zeros_like(b)
    norms, iterates = [np.sqrt(r @ w_dense @ r)], [x]
    target = cfg.rel_tolerance * norms[0]
    held = []  # (p, q, W q, delta)
    for i in range(cfg.max_iterations):
        p = h_dense @ r
        q = a @ p
        wq = w_dense @ q
        coefficients = [(wqj @ q) / dj for _, _, wqj, dj in held]
        for beta, (pj, qj, wqj, _) in zip(coefficients, held):
            p = p - beta * pj
            q = q - beta * qj
            wq = wq - beta * wqj
        delta = wq @ q
        alpha = (wq @ r) / delta
        x = x + alpha * p
        r = r - alpha * q
        norms.append(np.sqrt(r @ w_dense @ r))
        iterates.append(x)
        if norms[-1] < target:
            break
        held.append((p, q, wq, delta))
        if cfg.truncation_window is not None:
            held = held[-cfg.truncation_window:] if cfg.truncation_window else []
        if cfg.restart_period is not None and (i + 1) % cfg.restart_period == 0:
            held = []
    return norms, iterates


def assert_vectors_close(got, expected, rtol):
    assert np.linalg.norm(got - expected) <= rtol * np.linalg.norm(expected)


class BlockReads:
    """Every read of a direction-store block during a solve, as (kind,
    start, stop) with kind counted from 0, in order."""

    def __init__(self, monkeypatch):
        self.reads = []
        block = _Directions.block

        def counted(store, kind, start, stop):
            self.reads.append((kind % store.rows.shape[1], start, stop))
            return block(store, kind, start, stop)

        monkeypatch.setattr(_Directions, "block", counted)

    def of(self, kind):
        return [read for read in self.reads if read[0] == kind]


class TestDirectionStore:
    def test_orthomin_holds_only_its_window(self):
        a, h_dense, b = make_pd_system(11, n=15)
        h, w, _ = dense_setup(a, h_dense)
        res = wp_gcr_right(LinearSystem(a, b), h, w,
                           SolveConfig(max_iterations=400, truncation_window=2))
        assert res.status == "converged" and res.iterations >= 10
        assert len(res.p_directions) == len(res.q_directions) == 2

    def test_restarted_holds_at_most_one_cycle(self):
        a, h_dense, b = make_pd_system(9, n=15)
        h, w, _ = dense_setup(a, h_dense)
        res = wp_gcr_right(LinearSystem(a, b), h, w, SolveConfig(restart_period=5))
        assert res.status == "converged" and res.iterations > 5
        assert 1 <= len(res.p_directions) == len(res.q_directions) <= 5

    def test_restart_clears_on_schedule_after_degenerate_recovery(self):
        # singular A: iteration 7 has a vanishing projected image at a cycle
        # end; the cycle must still end there and hold at most two directions
        a = np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                      [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0]])
        b = np.array([-1.0, -1.0, 0.0, 1.0])
        h, w, _ = identity_setup(4)
        cfg = SolveConfig(breakdown_policy="restart_orthodir_style", restart_period=2,
                          max_iterations=12)
        res = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        assert res.trace.breakdown is not None
        assert res.trace.restart_markers == [2, 4, 6, 8, 10, 12]
        assert len(res.q_directions) <= 2

    def test_full_gcr_holds_every_direction(self):
        a, h_dense, b = make_pd_system(8)
        h, w, cfg = dense_setup(a, h_dense)
        res = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        assert len(res.p_directions) == len(res.q_directions) == res.iterations
        for p, q in zip(res.p_directions, res.q_directions):
            assert np.allclose(a @ p, q, atol=1e-12 * np.linalg.norm(q))

    def test_held_directions_map_to_held_images(self):
        # p_j is formed from its source only when read: A p_j = q_j must hold
        # for Orthomin(k) after its rows moved, for GCR(k) within a cycle and
        # for whp_gcr
        a, h_dense, b = make_pd_system(11, n=15)
        h, w, _ = dense_setup(a, h_dense)
        system = LinearSystem(a, b)
        cfg = SolveConfig(max_iterations=400)
        orthomin = wp_gcr_right(system, h, w, dataclasses.replace(cfg, truncation_window=3))
        restarted = wp_gcr_right(system, h, w, dataclasses.replace(cfg, restart_period=6))
        whp = whp_gcr(system, h, cfg)
        assert orthomin.iterations > 2 * 6  # the 6 rows of the window moved twice
        assert restarted.iterations % 6 != 0  # it stopped within a cycle
        for res, held in ((orthomin, 3), (restarted, restarted.iterations % 6),
                          (whp, whp.iterations)):
            assert res.status == "converged"
            assert len(res.p_directions) == len(res.q_directions) == held
            for p, q in zip(res.p_directions, res.q_directions):
                assert np.allclose(a @ p, q, atol=1e-12 * np.linalg.norm(q))

    def test_window_and_restart_match_reference_loop(self):
        # windows that fill and shift their rows several times, and restarts:
        # the residual norms, and x, the sum of the steps along the held
        # directions, which no norm of the trace reads
        a, h_dense, b = make_pd_system(4, n=24, skew_scale=0.5)
        h, w, _ = dense_setup(a, h_dense)
        system = LinearSystem(a, b)
        for overrides in ({}, {"truncation_window": 0}, {"truncation_window": 1},
                          {"truncation_window": 2}, {"truncation_window": 3},
                          {"truncation_window": 5}, {"restart_period": 1},
                          {"restart_period": 4}):
            for record in (False, True):
                cfg = SolveConfig(max_iterations=400, rel_tolerance=1e-8,
                                  record_iterates=record, **overrides)
                res = wp_gcr_right(system, h, w, cfg)
                reference, iterates = loop_gcr(a, h_dense, h_dense, b, cfg)
                assert res.status == "converged", overrides
                assert len(res.trace.residual_norm_weighted) == len(reference), overrides
                assert_sequences_close(res.trace.residual_norm_weighted, reference, rtol=1e-8)
                assert_vectors_close(res.x, iterates[-1], 1e-12)
                if record:
                    assert len(res.trace.iterates) == len(iterates)
                    for got, expected in zip(res.trace.iterates[1:], iterates[1:]):
                        assert_vectors_close(got, expected, 1e-12)
        # whp_gcr and whp_gcr_alt_a take the steps of GCR with W = H
        cfg = SolveConfig(max_iterations=400, rel_tolerance=1e-8)
        reference, iterates = loop_gcr(a, h_dense, h_dense, b, cfg)
        for solver in (whp_gcr, whp_gcr_alt_a):
            res = solver(system, h, cfg)
            assert res.status == "converged" and res.iterations == len(reference) - 1
            assert_vectors_close(res.x, iterates[-1], 1e-12)
        # whp_gcr_alt_b breaks down on this draw; its x must still carry the
        # residual its trace reports last
        res = whp_gcr_alt_b(system, h, cfg)
        assert res.iterations > 10
        r = b - a @ res.x
        assert np.isclose(np.sqrt(r @ h_dense @ r), res.trace.residual_norm_weighted[-1],
                          rtol=1e-7, atol=0.0)

    def test_store_memory_is_bounded(self):
        # a window of 2 moves its rows about 190 times; neither its rows nor
        # its coefficients grow with the iterations or max_iterations
        a, _, b = make_pd_system(11, n=100, skew_scale=3.0, spd_shift=0.05)
        n = len(b)
        h, w = PreconditionerHandle.identity(n), WeightOperator.identity(n)
        cfg = SolveConfig(max_iterations=10**6, rel_tolerance=1e-10)
        res = wp_gcr_right(LinearSystem(a, b), h, w, dataclasses.replace(cfg, truncation_window=2))
        assert res.status == "converged" and res.iterations > 300
        assert res._store.rows.shape[0] == 4 and res._store.coefficients.shape == (4, 4)
        assert np.linalg.norm(b - a @ res.x) <= 1.1e-10 * np.linalg.norm(b)
        # full GCR: the coefficients double with the held rows (64, then
        # 128 for 97 of them), not max_iterations squared
        res = wp_gcr_right(LinearSystem(a, b), h, w, SolveConfig(max_iterations=10**4))
        assert res.status == "converged" and 64 < res.iterations <= 128
        assert res._store.coefficients.shape == (128, 128)


    def test_corrective_pass_restores_orthogonality(self):
        # a new image almost inside the span of the held ones: the classical
        # projection cancels and leaves a visible component, the second pass
        # removes it.  The source z is never projected; the coefficients of
        # both passes, summed, are what turns it into p
        rng = np.random.default_rng(5)
        n = 50
        basis, _ = np.linalg.qr(rng.standard_normal((n, 2)))
        store = _Directions(np.zeros(n), 1, SolveConfig(max_iterations=3))  # (z, q), Euclidean
        for q in basis.T:
            store.record(q)[0] = q
            store.append(1.0, 0.0, np.zeros(len(store)))
        u = basis @ np.array([1.0, 1.0]) + 1e-12 * rng.standard_normal(n)
        record = store.record(u)
        record[0] = u
        q, z = record[0], store.block(0, 2, 3)[0]
        _, beta = store.project(u, record)

        def leak():
            return np.abs(basis.T @ q).max() / np.linalg.norm(q)

        assert leak() > 1e-6
        delta, beta2, twice = store.reorthogonalize(record, beta, np.linalg.norm(u))
        assert twice
        assert leak() <= 1e-12
        assert np.isclose(delta, q @ q, rtol=1e-14)
        assert np.array_equal(z, u)
        assert np.allclose(beta2, [1.0, 1.0], rtol=1e-10)
        assert not np.array_equal(beta2, beta)
        assert np.allclose(u - beta2 @ basis.T, q, rtol=0.0, atol=1e-15 * np.linalg.norm(u))

    def test_no_second_pass_without_cancellation(self):
        # the first pass keeps 1/sqrt(1.5) of the image's norm, above eta:
        # no dot against the held rows, no vector touched
        rng = np.random.default_rng(6)
        n = 50
        basis, _ = np.linalg.qr(rng.standard_normal((n, 3)))
        store = _Directions(np.zeros(n), 1, SolveConfig(max_iterations=3))  # (z, q), Euclidean
        for q in basis.T[:2]:
            store.record(q)[0] = q
            store.append(1.0, 0.0, np.zeros(len(store)))
        u = basis @ np.array([0.5, 0.5, 1.0])
        record = store.record(u)
        record[0] = u
        q, z = record[0], store.block(0, 2, 3)[0]
        _, beta = store.project(u, record)
        projected, coefficients = q.copy(), beta.copy()
        assert np.sqrt(q @ q) >= _REORTH_ETA * np.linalg.norm(u)
        assert np.array_equal(z, u)

        held_calls = []
        held = store.held
        store.held = lambda kind: held_calls.append(kind) or held(kind)
        delta, beta2, twice = store.reorthogonalize(record, beta, np.linalg.norm(u))
        assert not twice
        assert held_calls == []
        assert np.array_equal(q, projected) and np.array_equal(z, u)
        assert np.array_equal(beta2, coefficients)
        assert delta == q @ q

    def test_full_gcr_reads_its_sources_once(self, monkeypatch):
        # a step without a second pass reads the coefficient block twice, for
        # the coefficients and for the update of the images; the sources
        # (block 0) are read once, by the fold that forms x at the end.  The
        # result then takes its q_directions as views of block 1
        a, h_dense, b = make_pd_system(8)
        h, w, cfg = dense_setup(a, h_dense)
        for weight, kinds in ((WeightOperator.identity(len(b)), 2), (w, 3)):
            blocks = BlockReads(monkeypatch)
            res = wp_gcr_right(LinearSystem(a, b), h, weight, cfg)
            k = res.iterations
            assert res.status == "converged" and k > 5 and res.trace.reorthogonalized == []
            loop, end = blocks.reads[:-2], blocks.reads[-2:]
            assert end == [(0, 0, k), (1, 0, k)]
            steps = [[(kind, 0, j) for kind in (kinds - 1, *range(1, kinds))]
                     for j in range(1, k)]
            assert loop == [read for step in steps for read in step]

    def test_restarted_gcr_folds_once_per_cycle(self, monkeypatch):
        a, h_dense, b = make_pd_system(4, n=24, skew_scale=0.5)
        h, w, _ = dense_setup(a, h_dense)
        blocks = BlockReads(monkeypatch)
        res = wp_gcr_right(LinearSystem(a, b), h, w,
                           SolveConfig(rel_tolerance=1e-8, restart_period=4))
        cycles = len(res.trace.restart_markers)
        assert res.status == "converged" and cycles > 3 and res.iterations % 4
        assert blocks.of(0) == [(0, 0, 4)] * cycles + [(0, 0, res.iterations % 4)]

    def test_a_loop_reading_x_folds_every_step(self, monkeypatch):
        # record_iterates and whp_gcr_alt_a, which forms r = b - A x, form each
        # p_j against the held p as the step is taken: one read of block 0
        # per step after the first, and none at the end
        a, h_dense, b = make_pd_system(8)
        h, w, cfg = dense_setup(a, h_dense)
        for solve in (lambda: wp_gcr_right(LinearSystem(a, b), h, w,
                                           SolveConfig(record_iterates=True)),
                      lambda: whp_gcr_alt_a(LinearSystem(a, b), h, cfg)):
            blocks = BlockReads(monkeypatch)
            res = solve()
            assert res.status == "converged" and res.iterations > 5
            assert blocks.of(0) == [(0, 0, j) for j in range(1, res.iterations)]

    def test_second_pass_is_traced_on_a_near_dependent_image(self, monkeypatch):
        # the shear maps r_1, orthogonal to q_0 = A b, almost onto q_0: the
        # first pass keeps 1 % of the second image's norm.  The second pass
        # reads the held images twice more.  With H = I the store keeps no
        # sources: the fold at the end reads the images once more
        a = np.array([[1.0, 10.0], [0.0, 1.0]])
        b = np.ones(2)
        h, w, _ = identity_setup(2)
        blocks = BlockReads(monkeypatch)
        res = wp_gcr_right(LinearSystem(a, b), h, w, SolveConfig(rel_tolerance=1e-12))
        assert res.status == "converged" and res.iterations == 2
        assert res.trace.reorthogonalized == [1]
        assert blocks.reads == [(0, 0, 1)] * 4 + [(0, 0, 2), (0, 0, 2)]
        q0, q1 = res.q_directions
        assert abs(q0 @ q1) <= 1e-12 * np.linalg.norm(q0) * np.linalg.norm(q1)

    def test_no_second_pass_on_a_well_conditioned_solve(self):
        a, h_dense, b = make_pd_system(8)
        h, w, cfg = dense_setup(a, h_dense)
        for res in (wp_gcr_right(LinearSystem(a, b), h, w, cfg),
                    whp_gcr(LinearSystem(a, b), h, cfg)):
            assert res.status == "converged" and res.iterations > 5
            assert res.trace.reorthogonalized == []


def panel_rows(monkeypatch, rows, n, images=1):
    """Make each Gram-Schmidt panel hold rows rows of length n for a record
    of images images, however few."""
    monkeypatch.setattr(solvers, "_PANEL_BYTES", rows * images * n * np.dtype(float).itemsize)
    monkeypatch.setattr(solvers, "_PANEL_MIN_ROWS", 1)


def gram_schmidt_step(seed, images, recurrence, second, window=None, held=7, n=50):
    """One record projected against held random rows, and a second pass
    that runs when ``second``: (phi, beta, record, delta, twice).  The
    weighted image is a positive diagonal scaling of q."""
    rng = np.random.default_rng(seed)
    scale = rng.uniform(0.5, 2.0, n)
    cfg = SolveConfig(max_iterations=held + 1, truncation_window=window)
    store = _Directions(np.zeros(n), images, cfg, recurrence)

    def written(record):
        record[0] = rng.standard_normal(n)
        record[-1] = scale * record[0]
        return record

    for _ in range(held):
        written(store.record(rng.standard_normal(n)))
        store.append(float(rng.uniform(0.5, 2.0)), 0.0, rng.standard_normal(len(store)))
    record = written(store.record(rng.standard_normal(n)))
    u = record[0].copy()
    phi, beta = store.project(u, record)
    az_norm = 1e3 * np.linalg.norm(u) if second else 0.0
    delta, beta, twice = store.reorthogonalize(record, beta, az_norm)
    assert twice == second
    return phi, beta, record.copy(), delta, twice


class TestPanels:
    """project walks the held rows in panels of about _PANEL_BYTES; only
    the summation order of the update depends on the panel size."""

    # (images, recurrence, window): 1, 2 and 3 kinds, with and without a
    # source block, and an Orthomin window that moved its rows once and
    # holds rows 1:4
    STORES = {"q": (1, 0, None), "z, q": (1, None, None), "q, Wq": (2, -1, None),
              "z, q, Wq": (2, None, None), "Orthomin(3), lo > 0": (2, None, 3)}

    @pytest.mark.parametrize("second", [False, True], ids=["one pass", "second pass"])
    @pytest.mark.parametrize("store", STORES, ids=str)
    def test_panels_agree_with_one_panel(self, monkeypatch, store, second):
        images, recurrence, window = self.STORES[store]
        whole = gram_schmidt_step(3, images, recurrence, second, window)
        for rows in (1, 2, 3):
            with monkeypatch.context() as patched:
                panel_rows(patched, rows, 50, images)
                panelled = gram_schmidt_step(3, images, recurrence, second, window)
            for got, expected in zip(panelled[:3], whole[:3]):
                assert_vectors_close(got, expected, 1e-14)
            assert abs(panelled[3] - whole[3]) <= 1e-14 * whole[3]

    def test_each_panel_is_read_for_its_coefficients_then_its_images(self, monkeypatch):
        # kinds (z, q, Wq): a panel reads its Wq rows, then updates q and Wq
        # from its rows; seven held rows in panels of three are 0:3, 3:6 and
        # 6:7, and the second pass walks them again, so each held row of each
        # block is read once per pass
        panel_rows(monkeypatch, 3, 50, images=2)
        blocks = BlockReads(monkeypatch)
        gram_schmidt_step(4, 2, None, second=True)
        one_pass = [(kind, s, t) for s, t in ((0, 3), (3, 6), (6, 7)) for kind in (2, 1, 2)]
        assert blocks.reads == one_pass * 2

    def test_rows_too_long_for_a_panel_are_one_panel(self, monkeypatch):
        # a panel of _PANEL_BYTES would hold 3 rows, fewer than
        # _PANEL_MIN_ROWS: the held rows are read as one panel
        monkeypatch.setattr(solvers, "_PANEL_BYTES", 3 * 2 * 50 * np.dtype(float).itemsize)
        assert solvers._PANEL_MIN_ROWS > 3
        blocks = BlockReads(monkeypatch)
        gram_schmidt_step(4, 2, None, second=False)
        assert blocks.reads == [(2, 0, 7), (1, 0, 7), (2, 0, 7)]

    def test_full_gcr_solve_is_that_of_one_panel(self, cdr_assembled, monkeypatch):
        assembled = cdr_assembled(40)
        n = assembled.dof_count
        system = LinearSystem(assembled.operator(), assembled.rhs)
        eye_h, eye_w = PreconditionerHandle.identity(n), WeightOperator.identity(n)
        cfg = SolveConfig(max_iterations=1000)
        whole = wp_gcr_right(system, eye_h, eye_w, cfg)
        panel_rows(monkeypatch, 3, n)
        panelled = wp_gcr_right(system, eye_h, eye_w, cfg)
        assert whole.status == panelled.status == "converged" and whole.iterations > 60
        assert panelled.iterations == whole.iterations
        assert_vectors_close(panelled.x, whole.x, 1e-12)


TRACE_LISTS = ("residual_norm_weighted", "residual_norm_euclidean", "alpha", "gamma", "delta",
               "az_norm_weighted", "reorthogonalized", "restart_markers")


def assert_traces_equal(trace, other):
    """Every trace list the same bits; the coefficient rows are arrays,
    whose repr rounds, so they are compared byte by byte."""
    for name in TRACE_LISTS:
        assert repr(getattr(trace, name)) == repr(getattr(other, name)), name
    for name in ("beta_rows", "phi_rows"):
        rows, others = getattr(trace, name), getattr(other, name)
        assert len(rows) == len(others), name
        for row, expected in zip(rows, others):
            assert row.dtype == expected.dtype == float, name
            assert row.tobytes() == expected.tobytes(), name


def skew_system(seed, half=8):
    """A random nonsingular skew-symmetric A of even order below 2 * half,
    an SPD H and b: <A r, r> = 0, so every other step of GCR is an
    Orthodir recovery."""
    rng = np.random.default_rng(seed)
    n = 2 * int(rng.integers(1, half))
    g = rng.standard_normal((n, n))
    b = rng.standard_normal(n)
    return g - g.T, make_spd(rng, n), b


class TestSourceBlock:
    """whp_gcr and full GCR with the identity preconditioner, halting at a
    breakdown, take each source from a recurrence over the held images;
    the store keeps no source block for them."""

    def test_source_block_only_where_the_images_do_not_imply_it(self):
        a, h_dense, b = make_pd_system(8)
        n = len(b)
        system = LinearSystem(a, b)
        h, w, cfg = dense_setup(a, h_dense)
        eye_h, eye_w = PreconditionerHandle.identity(n), WeightOperator.identity(n)
        every_step = SolveConfig(record_iterates=True)
        recover = SolveConfig(breakdown_policy="restart_orthodir_style")
        gcr3 = SolveConfig(restart_period=3)
        # result, held vectors per row, whether one of them is the source
        cases = {
            "whp_gcr": (whp_gcr(system, h, cfg), 2, False),
            "identity H": (wp_gcr_right(system, eye_h, eye_w, cfg), 1, False),
            "identity H, W = H": (wp_gcr_right(system, eye_h, w, cfg), 2, False),
            "left": (wp_gcr_left(system, h, eye_w, cfg), 1, False),
            "left, W = H": (wp_gcr_left(system, h, w, cfg), 2, False),
            "identity H, GCR(3)": (wp_gcr_right(system, eye_h, eye_w, gcr3), 2, True),
            "identity H, recovery": (wp_gcr_right(system, eye_h, eye_w, recover), 2, True),
            "whp_gcr, recovery": (whp_gcr(system, h, recover), 3, True),
            "general H": (wp_gcr_right(system, h, w, cfg), 3, True),
            "general H, Euclidean W": (wp_gcr_right(system, h, eye_w, cfg), 2, True),
            "general H, GCR(3)": (wp_gcr_right(system, h, w, gcr3), 3, True),
            "Orthomin(2)": (wp_gcr_right(system, eye_h, eye_w,
                                         SolveConfig(truncation_window=2)), 2, True),
            "MR": (wp_gcr_right(system, eye_h, eye_w, SolveConfig(truncation_window=0)), 2, True),
            "alt_a": (whp_gcr_alt_a(system, h, cfg), 2, True),
            "alt_b": (whp_gcr_alt_b(system, h, cfg), 2, True),
            "identity H, record_iterates": (wp_gcr_right(system, eye_h, eye_w, every_step),
                                            2, True),
            "whp_gcr, record_iterates": (whp_gcr(system, h, every_step), 3, True),
        }
        for name, (res, vectors, sources) in cases.items():
            assert res.status == "converged", name
            assert res._store.rows.shape[1:] == (vectors, n), name
            assert (res._store.recurrence is None) == sources, name

    def test_solves_match_the_loop_that_keeps_its_sources(self, monkeypatch):
        # the store kept every source before it derived them; with the source
        # block forced back on, each trace list and p_directions must be the
        # same bits and x the same to rounding, also when the solve halts at
        # a breakdown
        a, h_dense, b = make_pd_system(8)
        n = len(b)
        h, w, cfg = dense_setup(a, h_dense)
        eye_h, eye_w = PreconditionerHandle.identity(n), WeightOperator.identity(n)
        system = LinearSystem(a, b)
        singular = LinearSystem(np.array([[0.0, 1.0, 1.0, 1.0], [1.0, 0.0, 0.0, 0.0],
                                          [1.0, -1.0, 1.0, 1.0], [1.0, 1.0, -1.0, -1.0]]),
                                np.array([-1.0, -1.0, 0.0, 1.0]))
        eye4 = (PreconditionerHandle.identity(4), WeightOperator.identity(4))
        halts = SolveConfig(max_iterations=12)
        solves = [
            lambda: whp_gcr(system, h, cfg),
            lambda: wp_gcr_right(system, eye_h, eye_w, cfg),
            lambda: wp_gcr_right(system, eye_h, w, cfg),
            lambda: wp_gcr_left(system, h, w, cfg),
            lambda: wp_gcr_right(singular, *eye4, halts),
            lambda: whp_gcr(singular, eye4[0], halts),
        ]
        for solve in solves:
            res = solve()
            with monkeypatch.context() as patched:
                patched.setattr(solvers, "_recurrence_image", lambda *args: None)
                kept = solve()
            assert res._store.recurrence is not None and kept._store.recurrence is None
            assert_traces_equal(res.trace, kept.trace)
            assert res.trace.breakdown == kept.trace.breakdown
            assert res.status == kept.status and res.iterations == kept.iterations
            assert np.array(res.q_directions).tobytes() == np.array(kept.q_directions).tobytes()
            assert np.array(res.p_directions).tobytes() == np.array(kept.p_directions).tobytes()
            assert_vectors_close(res.x, kept.x, 1e-14)
        assert [solve().status for solve in solves[-2:]] == ["breakdown"] * 2

    def test_attainable_accuracy_is_that_of_the_kept_sources(self, cdr_assembled, monkeypatch):
        # x = x_0 + sum_j y_j r_j with the residuals written out forward as
        # r_0 - sum_{i<j} alpha_i q_i is the image basis [r_0, A P] of
        # Walker & Zhou's simpler GMRES, whose conditioning grows with
        # ||r_0|| / ||r_k|| (Jiranek, Rozloznik & Gutknecht 2008): here its
        # true residual was 5 times the kept sources' at 1e-13.  Written
        # out back from the last residual, the terms shrink with r_j
        assembled = cdr_assembled(40)
        n = assembled.dof_count
        a, b = assembled.operator(), assembled.rhs
        system = LinearSystem(a, b)
        eye_h, eye_w = PreconditionerHandle.identity(n), WeightOperator.identity(n)
        cfg = SolveConfig(rel_tolerance=1e-13, max_iterations=1000)
        res = wp_gcr_right(system, eye_h, eye_w, cfg)
        monkeypatch.setattr(solvers, "_recurrence_image", lambda *args: None)
        kept = wp_gcr_right(system, eye_h, eye_w, cfg)
        assert res.status == kept.status == "converged" and res.iterations > 150
        residual, kept_residual = (np.linalg.norm(b - a.apply(r.x)) for r in (res, kept))
        assert residual <= 1.2 * kept_residual <= 2e-13 * np.linalg.norm(b)
        assert_vectors_close(res.x, kept.x, 1e-14)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_recovery_rows_give_directions_and_x(self, seed):
        # every other step of these solves is an Orthodir recovery, whose
        # source is the image of the direction before it: the store keeps
        # the sources, and p_directions and x come out of them
        a, h_dense, b = skew_system(seed)
        n = len(b)
        system = LinearSystem(a, b)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        cfg = SolveConfig(breakdown_policy="restart_orthodir_style", rel_tolerance=1e-10)
        generic = wp_gcr_right(system, h, WeightOperator.from_dense(h_dense), cfg)
        for res in (whp_gcr(system, h, cfg), wp_gcr_right(
                system, PreconditionerHandle.identity(n), WeightOperator.identity(n), cfg)):
            assert res.status == "converged" and res._store.recurrence is None
            assert res.trace.alpha.count(0.0) == n // 2
            assert len(res.p_directions) == len(res.q_directions) == res.iterations
            for p, q in zip(res.p_directions, res.q_directions):
                assert_vectors_close(a @ p, q, 1e-12)
            assert_vectors_close(a @ res.x, b, 1e-9)
        assert_vectors_close(res.x, generic.x, 1e-12)

    def test_store_allocates_the_held_vectors_per_row(self, cdr_assembled):
        # tracemalloc sees numpy's allocations, so the peak is exact: the
        # store's rows dominate it at this capacity, one n-vector per row
        # for identity-H GCR and two (q, H q) for whp_gcr
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(20)
        n = assembled.dof_count
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        h = build_preconditioner(assembled.m_matrix, maps, "two_level_sym").as_handle()
        eye_h, eye_w = PreconditionerHandle.identity(n), WeightOperator.identity(n)
        system = LinearSystem(assembled.operator(), assembled.rhs)
        capacity = 2000
        cfg = SolveConfig(max_iterations=capacity)
        row = capacity * n * np.dtype(float).itemsize
        for solve, vectors in ((lambda: wp_gcr_right(system, eye_h, eye_w, cfg), 1),
                               (lambda: whp_gcr(system, h, cfg), 2)):
            tracemalloc.start()
            try:
                res = solve()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.status == "converged"
            assert vectors * row <= peak < (vectors + 0.5) * row


class TestRecoveryPolicy:
    @pytest.mark.parametrize("setup", ["identity H", "W = H", "whp_gcr"])
    def test_recovered_convergence_is_checked_on_the_formed_residual(self, setup):
        # with Orthodir recoveries the recurrence residual can part from
        # b - A x: identity-H GCR reported "converged" on seeds 84, 204 and
        # 364 with ||b - A x|| about ||b||.  A reported convergence must
        # hold for the formed residual; a miss is a breakdown that keeps
        # its event
        cfg = SolveConfig(breakdown_policy="restart_orthodir_style", rel_tolerance=1e-8)
        statuses = []
        for seed in range(400):
            a, h_dense, b = skew_system(seed, half=13)
            n = len(b)
            system = LinearSystem(a, b)
            h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
            if setup == "identity H":
                h_dense = np.eye(n)
                res = wp_gcr_right(system, PreconditionerHandle.identity(n),
                                   WeightOperator.identity(n), cfg)
            elif setup == "W = H":
                res = wp_gcr_right(system, h, WeightOperator.from_dense(h_dense), cfg)
            else:
                res = whp_gcr(system, h, cfg)
            assert res.status in ("converged", "breakdown") and res.trace.breakdown is not None
            r = b - a @ res.x
            if res.status == "converged":
                assert np.sqrt(r @ h_dense @ r) < cfg.rel_tolerance * np.sqrt(b @ h_dense @ b)
            statuses.append(res.status)
        assert 390 <= statuses.count("converged") < 400
        if setup == "identity H":
            assert [statuses[seed] for seed in (84, 204, 364)] == ["breakdown"] * 3


class TestNonFiniteInput:
    def test_rhs_rejected(self):
        with pytest.raises(ValueError, match="right-hand side"):
            LinearSystem(np.eye(3), np.array([1.0, np.nan, 0.0]))

    def test_initial_guess_rejected(self):
        with pytest.raises(ValueError, match="initial guess"):
            LinearSystem(np.eye(3), np.ones(3), x0=np.array([0.0, np.inf, 0.0]))

    @pytest.mark.parametrize("solver", [wp_gcr_right, whp_gcr, whp_gcr_alt_a, whp_gcr_alt_b],
                             ids=lambda solver: solver.__name__)
    def test_nan_in_operator_raises(self, solver):
        # a NaN in A is not a breakdown: the solve raises, naming the iteration
        a, h_dense, b = make_pd_system(5, n=8)
        a[3, 5] = np.nan
        h, w, cfg = dense_setup(a, h_dense)
        args = (h, w, cfg) if solver is wp_gcr_right else (h, cfg)
        with pytest.raises(FloatingPointError, match="at iteration 0"):
            solver(LinearSystem(a, b), *args)


def window_id(window: dict) -> str:
    return ",".join(f"{key}={value}" for key, value in window.items())


def windowed(**window):
    """wp_gcr_right with a window set in the SolveConfig it is given."""
    return lambda s, h, w, cfg: wp_gcr_right(s, h, w, dataclasses.replace(cfg, **window))


ZERO_RHS_SOLVERS = {
    "wp_gcr_right": wp_gcr_right,
    "wp_gcr_left": wp_gcr_left,
    "mr": windowed(truncation_window=0),
    "orthomin-2": windowed(truncation_window=2),
    "gcr-restart-5": windowed(restart_period=5),
    "gmres_arnoldi_oracle": gmres_arnoldi_oracle,
    "whp_gcr": lambda s, h, w, cfg: whp_gcr(s, h, cfg),
    "whp_gcr_alt_a": lambda s, h, w, cfg: whp_gcr_alt_a(s, h, cfg),
    "whp_gcr_alt_b": lambda s, h, w, cfg: whp_gcr_alt_b(s, h, cfg),
}


class TestZeroRightHandSide:
    @pytest.mark.parametrize("name", ZERO_RHS_SOLVERS)
    def test_zero_rhs_converges_at_once(self, name):
        # x = 0 is exact: a zero residual meets the target rel_tolerance * 0
        a, h_dense, _ = make_pd_system(7, n=8)
        h, w, cfg = dense_setup(a, h_dense)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            res = ZERO_RHS_SOLVERS[name](LinearSystem(a, np.zeros(8)), h, w, cfg)
        assert res.status == "converged"
        assert res.iterations == 0
        assert res.trace.breakdown is None
        assert np.array_equal(res.x, np.zeros(8))

    def test_nonzero_initial_guess_keeps_a_zero_target(self):
        # b = 0 with x0 != 0: no nonzero residual meets the target 0
        a, h_dense, _ = make_pd_system(7, n=8)
        h, w, _ = dense_setup(a, h_dense)
        res = wp_gcr_right(LinearSystem(a, np.zeros(8), x0=np.ones(8)), h, w,
                           SolveConfig(max_iterations=3))
        assert res.status != "converged"
        assert res.iterations == 3


class TestLeftGcr:
    def test_identity_one_iteration(self):
        h, w, cfg = identity_setup(3)
        res = wp_gcr_left(LinearSystem(np.eye(3), np.array([1.0, 2.0, 3.0])), h, w, cfg)
        assert res.status == "converged"
        assert res.iterations == 1

    def test_left_right_equivalence(self):
        for seed in (0, 1, 2):
            a, h_dense, b = make_pd_system(seed, n=12)
            h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
            w_right = WeightOperator.from_dense(h_dense)
            h_inv = np.linalg.inv(h_dense)
            w_left = WeightOperator.from_dense(0.5 * (h_inv + h_inv.T))
            cfg = SolveConfig(record_iterates=True, rel_tolerance=1e-8)
            right = wp_gcr_right(LinearSystem(a, b), h, w_right, cfg)
            left = wp_gcr_left(LinearSystem(a, b), h, w_left, cfg)
            count = min(len(right.trace.iterates), len(left.trace.iterates))
            for xr, xl in zip(right.trace.iterates[:count], left.trace.iterates[:count]):
                scale = max(np.linalg.norm(xr), 1e-30)
                assert np.linalg.norm(xr - xl) <= 1e-10 * scale

    def test_single_distinct_eigenvalue_converges_immediately(self):
        # H A is a multiple of the identity: the Krylov space is exact after one step
        a = np.diag([1.0, 2.0, 4.0])
        h_dense = np.diag([8.0, 4.0, 2.0])
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.identity(3)
        res = wp_gcr_left(LinearSystem(a, np.array([1.0, 1.0, 1.0])), h, w, SolveConfig())
        assert res.status == "converged"
        assert res.iterations == 1

    def test_matches_preconditioned_least_squares(self):
        rng = np.random.default_rng(55)
        a = np.diag(rng.uniform(1.0, 5.0, 9))
        h_dense = np.diag(rng.uniform(0.5, 2.0, 9))
        b = rng.standard_normal(9)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.identity(9)
        res = wp_gcr_left(LinearSystem(a, b), h, w, SolveConfig(rel_tolerance=1e-8))
        assert res.status == "converged"
        # the preconditioned operator has at most 9 distinct eigenvalues
        assert res.iterations <= 9
        # oracle on the preconditioned residual: min ||H b - H A x||_2
        oracle = krylov_ls_residuals(h_dense @ a, np.eye(9), np.eye(9), h_dense @ b,
                                     res.iterations)
        assert_sequences_close(res.trace.residual_norm_weighted, oracle)


class TestWhpFamily:
    def test_exact_inverse_preconditioner(self):
        rng = np.random.default_rng(3)
        a = make_spd(rng, 8)
        h = PreconditionerHandle.from_dense(np.linalg.inv(a), hermitian_flag=True)
        b = rng.standard_normal(8)
        res = whp_gcr(LinearSystem(a, b), h, SolveConfig())
        assert res.status == "converged"
        assert res.iterations == 1

    def test_requires_spd_flag(self):
        h = PreconditionerHandle.from_dense(np.eye(3), hermitian_flag=False)
        with pytest.raises(NotHermitianPreconditionerError):
            whp_gcr(LinearSystem(np.eye(3), np.ones(3)), h, SolveConfig())

    @pytest.mark.parametrize("window", [{"truncation_window": 0}, {"truncation_window": 1},
                                        {"truncation_window": 3}, {"restart_period": 1},
                                        {"restart_period": 2}], ids=window_id)
    def test_alt_b_alone_rejects_a_window(self, window):
        # whp_gcr_alt_b's unprojected H A z needs every direction held;
        # whp_gcr and whp_gcr_alt_a run any window
        a, h_dense, b = make_pd_system(3, n=12)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        cfg = SolveConfig(**window)
        with pytest.raises(ValueError, match="whp_gcr_alt_b runs with full orthogonalization"):
            whp_gcr_alt_b(LinearSystem(a, b), h, cfg)
        for solver in (whp_gcr, whp_gcr_alt_a):
            assert solver(LinearSystem(a, b), h, cfg).status == "converged"

    def test_matches_generic_engine(self):
        a, h_dense, b = make_pd_system(13, n=14)
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.from_dense(h_dense)
        cfg = SolveConfig(record_iterates=True)
        generic = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        special = whp_gcr(LinearSystem(a, b), h, cfg)
        count = min(len(generic.trace.iterates), len(special.trace.iterates))
        for xg, xs in zip(generic.trace.iterates[:count], special.trace.iterates[:count]):
            assert np.linalg.norm(xg - xs) <= 1e-10 * max(np.linalg.norm(xg), 1e-30)

    @pytest.mark.parametrize("solver", [whp_gcr, whp_gcr_alt_a, whp_gcr_alt_b],
                             ids=lambda solver: solver.__name__)
    def test_orthodir_recovery_solves_skew_system(self, solver):
        # H is applied iterations + 2 times also through the recovery step:
        # it continues from the H q of the step, held or as computed.  A
        # solve that took a recovery then applies H once more, for the
        # H-norm of the formed residual b - A x it checks before it reports
        # a convergence
        a = np.array([[0.0, 1.0], [-1.0, 0.0]])
        calls = [0]

        def counted(v):
            calls[0] += 1
            return np.array(v, dtype=float)

        h = PreconditionerHandle(2, counted, hermitian_flag=True)
        cfg = SolveConfig(breakdown_policy="restart_orthodir_style")
        res = solver(LinearSystem(a, np.array([1.0, 0.0])), h, cfg)
        assert res.status == "converged"
        assert np.allclose(res.x, [0.0, 1.0])
        assert res.trace.breakdown is not None and res.trace.breakdown.iteration == 0
        assert calls[0] == res.iterations + 3 == 5

    def test_two_by_two_step_ratio(self):
        # unit symmetric part plus unit-strength skew part: the per-step
        # contraction cannot exceed sqrt(1 - 1/2)
        a = np.array([[1.0, 1.0], [-1.0, 1.0]])
        h = PreconditionerHandle.identity(2)
        res = whp_gcr(LinearSystem(a, np.array([1.0, 0.3])), h, SolveConfig())
        assert res.status == "converged"
        norms = res.trace.residual_norm_weighted
        for prev, cur in zip(norms, norms[1:]):
            if prev > 1e-14:
                assert cur / prev <= 0.7072

    def test_alternates_identity_system(self):
        h, _, cfg = identity_setup(4)
        b = np.array([1.0, 2.0, 3.0, 4.0])
        for solver in (whp_gcr, whp_gcr_alt_a, whp_gcr_alt_b):
            res = solver(LinearSystem(np.eye(4), b), h, cfg)
            assert res.status == "converged"
            assert res.iterations == 1
            assert np.allclose(res.x, b)

    def test_alternates_match_primary(self):
        # clustered spectrum so the run ends before the dimension bound
        rng = np.random.default_rng(77)
        n = 12
        sym = make_spd(rng, n, shift=6.0)
        skew = rng.standard_normal((n, n))
        skew = 0.5 * (skew - skew.T)
        a = sym + 0.2 * np.linalg.norm(sym, 2) * skew / np.linalg.norm(skew, 2)
        b = rng.standard_normal(n)
        h = PreconditionerHandle.identity(n)
        cfg = SolveConfig(record_iterates=True, rel_tolerance=1e-9)
        base = whp_gcr(LinearSystem(a, b), h, cfg)
        for solver in (whp_gcr_alt_a, whp_gcr_alt_b):
            other = solver(LinearSystem(a, b), h, cfg)
            count = min(len(base.trace.iterates), len(other.trace.iterates))
            for xa, xb in zip(base.trace.iterates[:count], other.trace.iterates[:count]):
                scale = max(np.linalg.norm(xa), 1e-30)
                assert np.linalg.norm(xa - xb) <= 1e-9 * scale


    def test_drifted_recurrence_is_a_breakdown(self):
        # z = H r kept by recurrence has drifted so far that <r, z> < 0:
        # ||r||_H is then formed with one H apply, never read as 0, and
        # the solve ends in a breakdown that records <r, z>
        rng = np.random.default_rng(40)
        h_dense = make_spd(rng, 6)
        r = rng.standard_normal(6)
        z = -h_dense @ r
        calls = []

        def apply_h(v):
            calls.append(v)
            return h_dense @ v

        rw, rz = _recurrence_norm(r, z, apply_h)
        assert rz == float(z @ r) < 0.0
        assert len(calls) == 1
        assert rw == pytest.approx(np.sqrt(r @ h_dense @ r), rel=1e-14)
        trace = IterationTrace()
        assert _drifted(trace, 7, rz)
        assert trace.status == "breakdown"
        assert trace.breakdown.iteration == 7 and trace.breakdown.gamma_value == rz
        # an undrifted recurrence costs no H apply and does not stop the solve
        rw, rz = _recurrence_norm(r, -z, apply_h)
        assert len(calls) == 1 and rw == np.sqrt(rz)
        assert not _drifted(IterationTrace(), 8, rz)

class TestMeshProblemRuns:
    def test_whp_matches_generic_on_mesh_problem(self, cdr_assembled):
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "one_level_sym")
        h = precond.as_handle()
        w = precond.as_weight(validate=False)
        system = LinearSystem(assembled.operator(), assembled.rhs)
        cfg = SolveConfig(record_iterates=True)
        generic = wp_gcr_right(system, h, w, cfg)
        special = whp_gcr(system, h, cfg)
        assert generic.status == special.status == "converged"
        count = min(len(generic.trace.iterates), len(special.trace.iterates))
        for xg, xs in zip(generic.trace.iterates[:count], special.trace.iterates[:count]):
            scale = max(np.linalg.norm(xg), 1e-30)
            assert np.linalg.norm(xg - xs) <= 1e-10 * scale

    def test_restarted_gcr_respects_sharp_bound(self, cdr_assembled):
        from wpkrylov.bounds import compute_bound_report
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(20)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "strips"),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        h = precond.as_handle()
        w = precond.as_weight(validate=False)
        system = LinearSystem(assembled.operator(), assembled.rhs)
        res = wp_gcr_right(system, h, w, SolveConfig(restart_period=5))
        assert res.status == "converged"
        norms = res.trace.residual_norm_weighted
        for prev, cur in zip(norms, norms[1:]):
            assert cur <= prev * (1.0 + 1e-12)
        report = compute_bound_report(assembled.operator(), h, w)
        assert report.bound1 is not None and report.bound1 < 1.0
        for i, value in enumerate(norms):
            assert value / norms[0] <= report.bound1**i * (1.0 + 1e-10)

    def test_alt_b_breakdown_is_not_a_false_convergence(self, cdr_assembled):
        # at m = 40 whp_gcr_alt_b ends near iteration 15 while
        # ||b - A x||_H / ||b||_H is still about 8e-5, above the tolerance.
        # Which of its two breakdowns comes first there, a negative <r, z>
        # after an update or a degenerate delta before one, turns on
        # round-off in H; the drift rule itself is tested in
        # TestWhpFamily.test_drifted_recurrence_is_a_breakdown.
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(40)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        b = assembled.rhs
        cfg = SolveConfig()
        res = whp_gcr_alt_b(LinearSystem(assembled.operator(), b), precond.as_handle(), cfg)
        assert res.status == "breakdown"
        event = res.trace.breakdown
        assert event is not None
        # a drift is found after the update of the last iteration, a
        # degenerate delta before the update of the one after it
        last = res.iterations - 1 if event.gamma_value < 0.0 else res.iterations
        assert event.iteration == last
        r = b - assembled.operator().apply(res.x)
        true_norm = np.sqrt(r @ precond.apply(r))
        assert true_norm > cfg.rel_tolerance * np.sqrt(b @ precond.apply(b))

    def test_alt_a_convergence_is_checked_on_the_true_residual(self, cdr_assembled):
        # at m = 60 and 1e-10 the clamped recurrence for ||r||_H^2 of
        # whp_gcr_alt_a reads 0 while ||b - A x||_H / ||b||_H is still
        # about 7e-9; "converged" must hold for the true residual
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(60)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        b = assembled.rhs
        cfg = SolveConfig(rel_tolerance=1e-10)
        res = whp_gcr_alt_a(LinearSystem(assembled.operator(), b), precond.as_handle(), cfg)
        assert res.status == "converged"
        r = b - assembled.operator().apply(res.x)
        true_norm = np.sqrt(r @ precond.apply(r))
        assert true_norm < cfg.rel_tolerance * np.sqrt(b @ precond.apply(b))
        assert np.isclose(res.trace.residual_norm_weighted[-1], true_norm, rtol=1e-6)

    def test_h_application_counts_with_w_equal_h(self, cdr_assembled):
        # the paper's cost claim: with W = H, whp_gcr applies H once per
        # iteration (plus two), wp_gcr_right three times (H r, W(A z), W r).
        # whp_gcr_alt_a applies H as whp_gcr does, and A twice per
        # iteration, since it forms r = b - A x.  whp_gcr_alt_b breaks down
        # on this problem; its H count is checked on the skew system.
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(40)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        operator = assembled.operator()
        calls = {"h": 0, "a": 0}

        def counted(kind, apply):
            def wrapped(v):
                calls[kind] += 1
                return apply(v)
            return wrapped

        h = PreconditionerHandle(assembled.dof_count, counted("h", precond.apply),
                                 hermitian_flag=True)
        w = WeightOperator(assembled.dof_count, counted("h", precond.apply), validate=False)
        system = LinearSystem(LinearOperator(assembled.dof_count, counted("a", operator.apply)),
                              assembled.rhs)

        def run(solver, *args):
            calls.update(h=0, a=0)
            res = solver(system, *args, SolveConfig())
            assert res.status == "converged" and res.iterations > 0
            return res.iterations

        k = run(whp_gcr, h)
        assert calls == {"h": k + 2, "a": k + 1}

        assert run(whp_gcr_alt_a, h) == k
        assert calls == {"h": k + 2, "a": 2 * k + 1}

        assert run(wp_gcr_right, h, w) == k
        assert calls == {"h": 3 * k + 2, "a": k + 1}

    @pytest.mark.parametrize("window", [{"truncation_window": 0}, {"truncation_window": 2},
                                        {"truncation_window": 5}, {"restart_period": 10}],
                             ids=window_id)
    def test_windowed_h_application_counts_with_w_equal_h(self, cdr_assembled, window):
        # a window leaves whp_gcr's cost at one H apply per iteration (plus
        # two) against three for wp_gcr_right with W = H and that window
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(30)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        calls = [0]

        def counted(v):
            calls[0] += 1
            return precond.apply(v)

        h = PreconditionerHandle(assembled.dof_count, counted, hermitian_flag=True)
        system = LinearSystem(assembled.operator(), assembled.rhs)
        cfg = SolveConfig(max_iterations=1000, **window)
        whp = whp_gcr(system, h, cfg)
        assert whp.status == "converged" and calls[0] == whp.iterations + 2
        calls[0] = 0
        generic = wp_gcr_right(system, h, h.as_weight(), cfg)
        assert generic.iterations == whp.iterations
        assert calls[0] == 3 * generic.iterations + 2
        assert_vectors_close(whp.x, generic.x, 1e-12)


class TestGmresOracle:
    def test_identity_one_iteration(self):
        h, w, cfg = identity_setup(4)
        res = gmres_arnoldi_oracle(LinearSystem(np.eye(4), np.ones(4)), h, w, cfg)
        assert res.status == "converged"
        assert res.iterations == 1

    def test_matches_gcr_residuals(self):
        a, h_dense, b = make_pd_system(23)
        h, w, cfg = dense_setup(a, h_dense)
        gcr = wp_gcr_right(LinearSystem(a, b), h, w, cfg)
        oracle = gmres_arnoldi_oracle(LinearSystem(a, b), h, w, cfg)
        assert gcr.status == oracle.status == "converged"
        assert len(gcr.trace.residual_norm_weighted) == len(oracle.trace.residual_norm_weighted)
        for x, y in zip(gcr.trace.residual_norm_weighted,
                        oracle.trace.residual_norm_weighted):
            assert abs(x - y) <= 1e-9 * max(x, y)

    def test_euclidean_case_against_least_squares(self):
        rng = np.random.default_rng(66)
        n = 6
        sym = make_spd(rng, n)
        skew = rng.standard_normal((n, n))
        a = sym + 0.3 * (skew - skew.T)
        b = rng.standard_normal(n)
        h, w, cfg = identity_setup(n)
        res = gmres_arnoldi_oracle(LinearSystem(a, b), h, w, cfg)
        oracle = krylov_ls_residuals(a, np.eye(n), np.eye(n), b, res.iterations)
        assert_sequences_close(res.trace.residual_norm_weighted, oracle)

    def test_happy_breakdown_is_convergence(self):
        # rhs in a 2-dimensional invariant subspace of a 5x5 operator
        a = np.diag([2.0, 3.0, 4.0, 5.0, 6.0])
        b = np.zeros(5)
        b[0] = 1.0
        h, w, _ = identity_setup(5)
        cfg = SolveConfig(rel_tolerance=1e-13)
        res = gmres_arnoldi_oracle(LinearSystem(a, b), h, w, cfg)
        assert res.status == "converged"
        assert np.allclose(a @ res.x, b)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_h_is_applied_iterations_plus_one_times(self, cdr_assembled, weighted):
        # x is formed once, after the loop: the Euclidean norm of each step
        # is the Givens estimate (W = I) or comes from the Arnoldi relation
        from wpkrylov.schwarz import PartitionSpec, build_partition, build_preconditioner

        assembled = cdr_assembled(30)
        maps = build_partition(assembled.m_matrix, PartitionSpec(4, "grid", grid_shape=(2, 2)),
                               coords=assembled.dof_coords)
        precond = build_preconditioner(assembled.m_matrix, maps, "two_level_sym")
        calls = []

        def apply_h(v):
            calls.append(1)
            return precond.apply(v)

        n = assembled.dof_count
        h = PreconditionerHandle(n, apply_h, hermitian_flag=True)
        w = precond.as_weight(validate=False) if weighted else WeightOperator.identity(n)
        system = LinearSystem(assembled.operator(), assembled.rhs)
        for stop in ("weighted", "euclidean"):
            calls.clear()
            res = gmres_arnoldi_oracle(system, h, w, SolveConfig(stopping_norm=stop))
            assert res.status == "converged" and res.iterations > 10
            assert len(calls) == res.iterations + 1
            # the recorded norms are those of the iterates
            cfg = SolveConfig(stopping_norm=stop, record_iterates=True)
            formed = gmres_arnoldi_oracle(system, h, w, cfg).trace.residual_norm_euclidean
            got = res.trace.residual_norm_euclidean
            assert len(got) == len(formed)
            assert np.allclose(got, formed, rtol=0.0, atol=1e-13 * formed[0])

    @pytest.mark.parametrize("weighted", [False, True])
    def test_estimate_below_the_attainable_residual_restarts(self, weighted):
        # A applied in single precision: the formed residual floors near
        # 1e-7 relative while the recurrence norms keep falling.  A cycle
        # that stops on the recurrence but misses with the formed residual
        # restarts from the formed x; the solve ends at max_iterations or
        # with a formed residual that meets the target
        a, h_dense, b = make_pd_system(0, n=30, skew_scale=1.0, spd_shift=0.5)
        a32 = a.astype(np.float32)
        op = LinearOperator(30, lambda v: (a32 @ v.astype(np.float32)).astype(float))
        h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
        w = WeightOperator.from_dense(h_dense) if weighted else WeightOperator.identity(30)
        for tol in (3e-8, 3e-7):
            cfg = SolveConfig(rel_tolerance=tol, stopping_norm="euclidean", max_iterations=60)
            res = gmres_arnoldi_oracle(LinearSystem(op, b), h, w, cfg)
            true = np.linalg.norm(b - op.apply(res.x))
            if tol < 1e-7:  # below the floor: restarted to the last iteration
                assert res.status == "max_iter" and res.iterations == 60
                assert len(res.trace.restart_markers) > 1
            else:
                assert res.status == "converged" and res.iterations < 60
                assert true < tol * np.linalg.norm(b)

    def test_restarted_oracle(self):
        a, h_dense, b = make_pd_system(31, n=15)
        h, w, _ = dense_setup(a, h_dense)
        res = gmres_arnoldi_oracle(LinearSystem(a, b), h, w,
                                   SolveConfig(restart_period=4, max_iterations=300))
        assert res.status == "converged"


@pytest.mark.parametrize("sparse", [scipy.sparse.csr_matrix, scipy.sparse.csr_array,
                                    scipy.sparse.csc_array])
def test_scipy_sparse_operator_is_accepted(sparse):
    a, h_dense, b = make_pd_system(seed=41)
    a[np.abs(a) < 0.05] = 0.0
    m = sparse(a)
    assert np.array_equal(densify(m), m.toarray())
    assert np.array_equal(densify(aslinearoperator(m)), m.toarray())
    h = PreconditionerHandle.from_dense(h_dense, hermitian_flag=True)
    result = whp_gcr(LinearSystem(m, b), h, SolveConfig(rel_tolerance=1e-8))
    assert result.status == "converged"
    assert np.linalg.norm(a @ result.x - b) <= 1e-6 * np.linalg.norm(b)
