import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.csgraph

from wpkrylov.linalg import (
    LinearOperator,
    NotPositiveDefiniteError,
    SingularMatrixError,
    aslinearoperator,
    banded_spd_factor,
    check_symmetric,
    cholesky,
    densify,
    gen_sym_eig,
    sparse_lu_factor,
    sparse_spd_factor,
    sym_eig,
    _validated_csr,
)
from wpkrylov.schwarz import PartitionSpec, build_partition

from conftest import make_spd
from dense_reference import lu_solve
from schwarz_reference import symmetric_part


class TestSpmv:
    """The action of a scipy.sparse matrix through aslinearoperator."""

    def test_identity(self):
        op = aslinearoperator(scipy.sparse.eye_array(3, format="csr"))
        x = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(op.apply(x), x)

    def test_zero_matrix(self):
        op = aslinearoperator(scipy.sparse.csr_array((3, 3)))
        assert np.array_equal(op.apply(np.array([4.0, 5.0, 6.0])), np.zeros(3))

    def test_hand_example(self):
        op = aslinearoperator(scipy.sparse.csr_array(np.array([[2.0, 0.0], [1.0, 3.0]])))
        assert np.array_equal(op.apply(np.array([1.0, 1.0])), np.array([2.0, 4.0]))

    def test_dimension_mismatch(self):
        op = aslinearoperator(scipy.sparse.eye_array(3, format="csr"))
        with pytest.raises(ValueError):
            op.apply(np.ones(4))

    def test_matches_dense_on_random_sparse(self):
        rng = np.random.default_rng(7)
        for n in (5, 37, 200):
            dense = rng.standard_normal((n, n))
            dense[rng.random((n, n)) > 0.08] = 0.0
            op = aslinearoperator(scipy.sparse.csr_array(dense))
            x = rng.standard_normal(n)
            ref = dense @ x
            scale = max(np.abs(ref).max(), 1.0)
            assert np.abs(op.apply(x) - ref).max() <= 1e-13 * scale

    def test_duplicates_summed(self):
        m = _validated_csr(scipy.sparse.coo_array(
            ([2.0, 3.0, 1.0], ([0, 0, 1], [1, 1, 0])), shape=(2, 2)))
        assert m.nnz == 2
        assert np.allclose(m.toarray(), [[0.0, 5.0], [1.0, 0.0]])


def _unsorted(csr):
    """The same matrix with every row's entries stored in reverse order."""
    out = csr.copy()
    for row in range(out.shape[0]):
        part = slice(out.indptr[row], out.indptr[row + 1])
        out.indices[part], out.data[part] = out.indices[part][::-1], out.data[part][::-1]
    out.has_sorted_indices = False
    return out


def _duplicated(csr):
    """The same matrix with each stored entry split into two halves."""
    coo = csr.tocoo()
    return scipy.sparse.csr_array(
        (np.concatenate([0.5 * coo.data, 0.5 * coo.data]),
         (np.concatenate([coo.row, coo.row]), np.concatenate([coo.col, coo.col]))),
        shape=csr.shape)


def _asymmetric_pattern(csr):
    """A stored entry (0, 5) of 1e-12 with nothing at (5, 0)."""
    lil = csr.tolil()
    lil[0, 5] = 1e-12
    return lil.tocsr()


class TestCheckSymmetric:
    """The data-array path for a canonical CSR matrix with a symmetric
    pattern, and the sparse-sum path for every other input, give the
    arrays of 0.5 (S + S^T) formed by sparse sums."""

    @staticmethod
    def inputs(cdr_assembled):
        m = cdr_assembled(12).m_matrix
        zeros = cdr_assembled(12, c0=0.0).m_matrix
        assert np.any(zeros.data == 0.0)  # elimination stores NE/SW zeros where c0 = 0
        return {
            "assembled": m,
            "explicit-zeros": zeros,
            "unsorted": _unsorted(m),
            "duplicates": _duplicated(m),
            "csc": m.tocsc(),
            "dense": m.toarray(),
            "asymmetric-pattern": _asymmetric_pattern(m),
            "integer": (100 * m).astype(np.int64),
        }

    @pytest.mark.parametrize("case", ["assembled", "explicit-zeros", "unsorted", "duplicates",
                                      "csc", "dense", "asymmetric-pattern", "integer"])
    def test_matches_sparse_sums(self, cdr_assembled, case):
        s = self.inputs(cdr_assembled)[case]
        want = symmetric_part(s)
        got = check_symmetric(s)
        assert type(got) is type(want)
        if isinstance(want, np.ndarray):
            assert got.tobytes() == want.tobytes()
            return
        assert got.format == want.format
        for part in ("indptr", "indices", "data"):
            assert getattr(got, part).dtype == getattr(want, part).dtype
            assert getattr(got, part).tobytes() == getattr(want, part).tobytes()

    @pytest.mark.parametrize("case", ["assembled", "explicit-zeros"])
    def test_canonical_input_takes_no_sparse_sum(self, cdr_assembled, monkeypatch, case):
        s = self.inputs(cdr_assembled)[case]

        def refuse(*args):
            raise AssertionError("a sparse sum was formed")

        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__abs__"):
            monkeypatch.setattr(type(s), name, refuse)
        got = check_symmetric(s)
        monkeypatch.undo()
        assert got.data.tobytes() == symmetric_part(s).data.tobytes()

    @pytest.mark.parametrize("case", ["assembled", "csc", "dense"])
    def test_value_asymmetry_raises_as_the_sparse_sums_do(self, cdr_assembled, case):
        s = self.inputs(cdr_assembled)[case]
        s = s.copy()
        s[0, 1] = s[0, 1] + 1e-6 * abs(s[0, 1])
        with pytest.raises(ValueError) as want:
            symmetric_part(s)
        with pytest.raises(ValueError) as got:
            check_symmetric(s)
        assert str(got.value) == str(want.value) == "matrix is not symmetric"


class TestComplexInput:
    """A complex matrix, vector or operator image is rejected by name,
    not cast to float with its imaginary part dropped."""

    A = np.diag([3.0 + 1.0j, 3.0, 3.0])

    @pytest.mark.parametrize("make", [np.asarray, scipy.sparse.csr_array])
    def test_matrix(self, make):
        with pytest.raises(ValueError, match="^matrix is complex"):
            aslinearoperator(make(self.A))

    @pytest.mark.parametrize("call", [densify, cholesky, sym_eig])
    def test_dense_matrix_routines(self, call):
        with pytest.raises(ValueError, match="^matrix is complex"):
            call(self.A)

    def test_validated_csr(self):
        with pytest.raises(ValueError, match="^matrix is complex"):
            _validated_csr(scipy.sparse.csr_array(self.A))

    def test_vector(self):
        with pytest.raises(ValueError, match="^vector is complex"):
            LinearOperator.identity(3).apply(np.ones(3) * 1j)

    @pytest.mark.parametrize("method", ["apply", "apply_transpose"])
    def test_operator_image(self, method):
        op = LinearOperator(3, lambda v: v * 1j, transpose=lambda v: v * 1j)
        with pytest.raises(ValueError, match="^operator image is complex"):
            getattr(op, method)(np.ones(3))


class TestCholesky:
    def test_identity(self):
        fac = cholesky(np.eye(4))
        assert np.allclose(fac.lower, np.eye(4))

    def test_hand_example(self):
        fac = cholesky(np.array([[4.0, 2.0], [2.0, 5.0]]))
        assert np.allclose(fac.lower, [[2.0, 0.0], [1.0, 2.0]])

    def test_hilbert_12(self):
        # numerically semidefinite: either the pivot threshold trips, or a
        # returned factor must still reconstruct the input accurately
        n = 12
        hilbert = scipy.linalg.hilbert(n)
        try:
            fac = cholesky(hilbert)
        except NotPositiveDefiniteError:
            return
        err = np.linalg.norm(fac.lower @ fac.lower.T - hilbert, "fro")
        assert err <= 1e-10 * np.linalg.norm(hilbert, "fro")

    def test_reconstruction_random_spd(self):
        rng = np.random.default_rng(3)
        for n in (5, 20, 60):
            g = rng.standard_normal((n, n))
            s = g.T @ g + n * np.eye(n)
            fac = cholesky(s)
            rel = np.linalg.norm(fac.lower @ fac.lower.T - s, "fro") / np.linalg.norm(s, "fro")
            assert rel <= 1e-10

    def test_indefinite_raises_with_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            cholesky(np.diag([1.0, -1.0, 2.0]))
        assert info.value.pivot == 1

    def test_sparse_indefinite_raises_with_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            sparse_spd_factor(np.diag([1.0, -1.0, 2.0]))
        assert info.value.pivot == 1

    def test_solve(self):
        rng = np.random.default_rng(5)
        s = make_spd(rng, 10)
        fac = cholesky(s)
        b = rng.standard_normal(10)
        assert np.allclose(s @ fac.solve(b), b)



def local_blocks(matrix, subdomains):
    """The block-diagonal matrix of the blocks R_s M R_s^T."""
    return scipy.sparse.block_diag([matrix[sub][:, sub] for sub in subdomains], format="csr")


def bandwidth(s, order):
    """Bandwidth of a sparse matrix with its rows and columns in ``order``."""
    position = np.argsort(order)
    coo = s.tocoo()
    return int(np.abs(position[coo.row] - position[coo.col]).max())


class TestBandedCholesky:
    def test_solves_match_dense_cholesky(self, cdr_assembled):
        # the local blocks of a 2 x 2 grid and of strips, both factored in
        # RCM order, and a tridiagonal matrix, factored in its own order;
        # the solve runs in the factored order, so the test permutes
        assembled = cdr_assembled(12)
        cases = [(local_blocks(assembled.m_matrix, build_partition(
                     assembled.m_matrix, spec, coords=coords).subdomains), True)
                 for spec, coords in ((PartitionSpec(4, "grid", grid_shape=(2, 2)),
                                       assembled.dof_coords),
                                      (PartitionSpec(6, "strips"), None))]
        cases.append((scipy.sparse.diags_array([-1.0, 4.0, -1.0], offsets=[-1, 0, 1],
                                               shape=(50, 50), format="csr"), False))
        rng = np.random.default_rng(11)
        for s, reordered in cases:
            factor = banded_spd_factor(s)
            assert (factor.perm is not None) == reordered
            perm = np.arange(s.shape[0]) if factor.perm is None else factor.perm
            dense = scipy.linalg.cho_factor(s.toarray())
            for b in (rng.standard_normal(s.shape[0]), rng.standard_normal((s.shape[0], 3))):
                want = scipy.linalg.cho_solve(dense, b)
                got = np.empty_like(b)
                got[perm] = factor.solve_in_factored_order(np.asfortranarray(b[perm]))
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("count, layout, with_coords", [(6, "strips", False),
                                                           (3, "strips", True),
                                                           (4, "grid", True)])
    def test_band_is_the_narrower_of_two_orders(self, cdr_assembled, count, layout,
                                                with_coords):
        assembled = cdr_assembled(30)
        coords = assembled.dof_coords if with_coords else None
        maps = build_partition(assembled.m_matrix, PartitionSpec(count, layout), coords=coords)
        s = local_blocks(assembled.m_matrix, maps.subdomains)
        own = bandwidth(s, np.arange(s.shape[0]))
        rcm = bandwidth(s, scipy.sparse.csgraph.reverse_cuthill_mckee(s, symmetric_mode=True))
        factor = banded_spd_factor(s)
        assert factor.bandwidth == min(own, rcm)
        if not with_coords:
            # strips of a few lattice rows: RCM numbers across the strip
            assert factor.perm is not None and rcm < own

    @pytest.mark.parametrize("scramble", [False, True])
    def test_indefinite_block_is_named_in_the_callers_order(self, scramble):
        rng = np.random.default_rng(12)
        blocks = [make_spd(rng, 5) for _ in range(3)]
        blocks[0][2, 2] = -10.0
        s = scipy.sparse.block_diag(blocks, format="csr")
        inside = np.arange(5)
        if scramble:  # a random order, which RCM narrows; it puts the first block last
            order = rng.permutation(15)
            s = s[order][:, order]
            inside = np.flatnonzero(np.isin(order, inside))
        with pytest.raises(NotPositiveDefiniteError) as info:
            banded_spd_factor(s)
        assert info.value.pivot in inside

    def test_semidefinite_input_trips_the_pivot_threshold(self):
        # the second pivot is 2 eps > 0, which LAPACK accepts, at or below
        # dim * eps * max(diag)
        eps = np.finfo(float).eps
        s = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 2 * eps, 0.0], [0.0, 0.0, 1.0]])
        with pytest.raises(NotPositiveDefiniteError) as info:
            banded_spd_factor(s)
        assert info.value.pivot == 1

    def test_indefinite_raises_with_pivot(self):
        with pytest.raises(NotPositiveDefiniteError) as info:
            banded_spd_factor(np.diag([1.0, -1.0, 2.0]))
        assert info.value.pivot == 1

class TestSymEig:
    def test_diagonal(self):
        vals, _ = sym_eig(np.diag([3.0, 1.0, 2.0]))
        assert np.allclose(vals, [1.0, 2.0, 3.0])

    def test_off_diagonal(self):
        vals, _ = sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(vals, [-1.0, 1.0])

    def test_random_residual_and_orthogonality(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal((50, 50))
        s = 0.5 * (s + s.T)
        vals, vecs = sym_eig(s)
        norm_s = np.linalg.norm(s, 2)
        for k in range(50):
            assert np.linalg.norm(s @ vecs[:, k] - vals[k] * vecs[:, k]) <= 1e-9 * norm_s
        assert np.abs(vecs.T @ vecs - np.eye(50)).max() <= 1e-10
        assert np.all(np.diff(vals) >= 0.0)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestGenSymEig:
    def test_equal_pencil(self):
        rng = np.random.default_rng(2)
        m = make_spd(rng, 8)
        vals = gen_sym_eig(m, m)
        assert np.allclose(vals, 1.0)

    def test_scaled_pencil(self):
        rng = np.random.default_rng(4)
        m = make_spd(rng, 8)
        vals = gen_sym_eig(2.0 * m, m)
        assert np.allclose(vals, 2.0)

    def test_rayleigh_sampling_brackets_extremes(self):
        rng = np.random.default_rng(9)
        n = 20
        s = rng.standard_normal((n, n))
        s = 0.5 * (s + s.T)
        m = make_spd(rng, n)
        vals = gen_sym_eig(s, m)
        samples = []
        for _ in range(10_000):
            y = rng.standard_normal(n)
            samples.append((y @ s @ y) / (y @ m @ y))
        samples = np.asarray(samples)
        # every quotient lies inside the spectrum; the sampled extremes
        # approach the true ones within a generous slack
        assert samples.min() >= vals[0] - 1e-10
        assert samples.max() <= vals[-1] + 1e-10
        spread = vals[-1] - vals[0]
        assert samples.min() - vals[0] <= 0.75 * spread
        assert vals[-1] - samples.max() <= 0.75 * spread

    def test_identity_weight_matches_sym_eig(self):
        rng = np.random.default_rng(13)
        s = rng.standard_normal((15, 15))
        s = 0.5 * (s + s.T)
        vals = gen_sym_eig(s, np.eye(15))
        ref, _ = sym_eig(s)
        assert np.abs(vals - ref).max() <= 1e-9


class TestLuSolve:
    def test_identity(self):
        b = np.array([1.0, 2.0])
        assert np.allclose(lu_solve(np.eye(2), b), b)

    def test_pivoting(self):
        x = lu_solve(np.array([[0.0, 1.0], [1.0, 0.0]]), np.array([1.0, 2.0]))
        assert np.allclose(x, [2.0, 1.0])

    def test_random_residual(self):
        rng = np.random.default_rng(17)
        a = rng.standard_normal((30, 30)) + 30 * np.eye(30)
        b = rng.standard_normal(30)
        x = lu_solve(a, b)
        bound = 1e-9 * (np.linalg.norm(a) * np.linalg.norm(x) + np.linalg.norm(b))
        assert np.linalg.norm(a @ x - b) <= bound

    def test_singular(self):
        with pytest.raises(SingularMatrixError):
            lu_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 1.0]))

    def test_sparse_singular(self):
        with pytest.raises(SingularMatrixError):
            sparse_lu_factor(np.array([[1.0, 2.0], [2.0, 4.0]]))


class TestOperators:
    def test_linearity_probe(self):
        rng = np.random.default_rng(19)
        a = rng.standard_normal((12, 12))
        op = aslinearoperator(a)
        for _ in range(5):
            x = rng.standard_normal(12)
            y = rng.standard_normal(12)
            alpha, beta = rng.standard_normal(2)
            lhs = op.apply(alpha * x + beta * y)
            rhs = alpha * op.apply(x) + beta * op.apply(y)
            assert np.allclose(lhs, rhs, atol=1e-12 * max(np.abs(rhs).max(), 1.0))

    def test_densify_roundtrip(self):
        rng = np.random.default_rng(23)
        a = rng.standard_normal((9, 9))
        assert np.allclose(densify(LinearOperator.from_dense(a)), a)

    def test_densify_limit(self):
        op = LinearOperator(5000, lambda x: x)
        with pytest.raises(ValueError):
            densify(op)


class TestBlockAction:
    def test_from_dense_block_densify_matches_column_loop(self):
        a = np.random.default_rng(24).standard_normal((30, 30))
        block = densify(LinearOperator.from_dense(a))
        columns = densify(LinearOperator(30, lambda x: a @ x))
        assert np.linalg.norm(block - columns) <= 1e-14 * np.linalg.norm(columns)
        assert np.array_equal(block, a)

    def test_plain_callable_densifies_by_columns(self):
        a = np.random.default_rng(25).standard_normal((7, 7))
        calls = []

        def apply(x):
            calls.append(x.shape)
            return a @ x

        assert np.allclose(densify(aslinearoperator(apply, dim=7)), a, rtol=0, atol=1e-14)
        assert calls == [(7,)] * 7

    def test_wrongly_shaped_block_argument_rejected(self):
        # both actions take vectors of the operator's dimension only
        op = LinearOperator.identity(4)
        for bad in (np.ones(5), np.ones((4, 2)), np.ones((4, 2, 1))):
            for action in (op.apply, op.apply_transpose):
                with pytest.raises(ValueError):
                    action(bad)

    def test_sparse_matrix_operator(self):
        m = scipy.sparse.csr_array(np.array([[2.0, 0.0], [1.0, 3.0]]))
        op = LinearOperator.from_matrix(m)
        assert np.array_equal(op.apply(np.array([1.0, 1.0])), [2.0, 4.0])
        assert np.array_equal(densify(op), m.toarray())
        assert np.array_equal(densify(aslinearoperator(m)), m.toarray())


class TestTransposedAction:
    @pytest.mark.parametrize("kind", ["dense", "sparse", "identity"])
    def test_adjoint_identity(self, kind):
        rng = np.random.default_rng(31)
        a = rng.standard_normal((11, 11))
        op = {"dense": lambda: LinearOperator.from_dense(a),
              "sparse": lambda: LinearOperator.from_matrix(scipy.sparse.csr_array(a)),
              "identity": lambda: LinearOperator.identity(11)}[kind]()
        for _ in range(3):
            x, y = rng.standard_normal(11), rng.standard_normal(11)
            hx = op.apply(x)
            gap = abs(y @ hx - op.apply_transpose(y) @ x)
            assert gap <= 1e-13 * np.linalg.norm(y) * np.linalg.norm(hx)

    def test_bare_callable_has_no_transposed_action(self):
        op = aslinearoperator(lambda x: 2.0 * x, dim=3)
        assert np.array_equal(op.apply(np.ones(3)), [2.0, 2.0, 2.0])
        with pytest.raises(ValueError, match="no transposed action"):
            op.apply_transpose(np.ones(3))

    def test_callable_keeps_its_transposed_action(self):
        a = np.random.default_rng(32).standard_normal((5, 5))

        class Mapping:
            dim = 5

            def __call__(self, x):
                return a @ x

            def apply_transpose(self, x):
                return a.T @ x

        op = aslinearoperator(Mapping())
        e = np.eye(5)
        assert np.array_equal(np.column_stack([op.apply_transpose(c) for c in e]), a.T @ e)
        assert op.matrix is None

    def test_densify_returns_the_kept_matrix(self):
        a = np.random.default_rng(33).standard_normal((6, 6))
        assert densify(LinearOperator.from_dense(a)) is a
        calls = []
        op = LinearOperator(6, lambda x: calls.append(1) or a @ x, matrix=a)
        assert densify(op) is a and calls == []


class TestValuesOnlyEigen:
    def test_values_match_full_eigendecomposition(self):
        s = make_spd(np.random.default_rng(28), 12) - 1.5 * np.eye(12)
        vals, _ = sym_eig(s)
        assert np.array_equal(sym_eig(s, vectors=False), np.linalg.eigvalsh(s))
        assert np.allclose(sym_eig(s, vectors=False), vals, rtol=0, atol=1e-13)

    def test_values_only_checks_symmetry(self):
        with pytest.raises(ValueError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]), vectors=False)

    def test_pencil_accepts_its_factor(self):
        rng = np.random.default_rng(29)
        m = make_spd(rng, 9)
        s = rng.standard_normal((9, 9))
        s = s + s.T
        assert np.array_equal(gen_sym_eig(s, cholesky(m)), gen_sym_eig(s, m))
