import re

import numpy as np
import pytest
import scipy.sparse

from wpkrylov.matrixio import (
    ExperimentReport,
    IndexOutOfRangeError,
    MalformedHeaderError,
    NonRealFieldError,
    read_matrix_market,
    read_report_json,
    read_vector,
    write_matrix_market,
    write_report_csv,
    write_report_json,
    write_vector,
)


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")


class TestMatrixMarketRead:
    def test_identity(self, tmp_path):
        path = tmp_path / "eye.mtx"
        write_lines(path, [
            "%%MatrixMarket matrix coordinate real general",
            "2 2 2",
            "1 1 1.0",
            "2 2 1.0",
        ])
        m = read_matrix_market(path)
        assert np.allclose(m.toarray(), np.eye(2))

    def test_symmetric_expansion(self, tmp_path):
        path = tmp_path / "sym.mtx"
        write_lines(path, [
            "%%MatrixMarket matrix coordinate real symmetric",
            "% a comment",
            "2 2 1",
            "2 1 3.5",
        ])
        m = read_matrix_market(path)
        assert np.allclose(m.toarray(), [[0.0, 3.5], [3.5, 0.0]])

    def test_skew_expansion(self, tmp_path):
        path = tmp_path / "skew.mtx"
        write_lines(path, [
            "%%MatrixMarket matrix coordinate real skew-symmetric",
            "2 2 1",
            "2 1 -1.0",
        ])
        m = read_matrix_market(path)
        assert np.allclose(m.toarray(), [[0.0, 1.0], [-1.0, 0.0]])

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "bad.mtx"
        write_lines(path, ["%%NotMatrixMarket something", "1 1 0"])
        with pytest.raises(MalformedHeaderError):
            read_matrix_market(path)

    @pytest.mark.parametrize("lines, message", [
        (["%%MatrixMarket matrix array real general", "1 1", "1.0"],
         "only coordinate matrices are supported"),
        (["%%MatrixMarket matrix coordinate real hermitian", "1 1 1", "1 1 1.0"],
         "unsupported symmetry 'hermitian'"),
        (["%%MatrixMarket matrix coordinate real general", "% only a comment"],
         "missing size line"),
        (["%%MatrixMarket matrix coordinate real general", "2 2 1", "1 1"],
         "bad entry line '1 1'"),
        (["%%MatrixMarket matrix coordinate real general", "2 2 3", "1 1 1.0", "2 2 1.0"],
         "expected 3 entries, found 2"),
    ], ids=["array", "hermitian", "no-size-line", "short-entry", "too-few-entries"])
    def test_malformed_file(self, tmp_path, lines, message):
        path = tmp_path / "bad.mtx"
        write_lines(path, lines)
        with pytest.raises(MalformedHeaderError, match=f"^{re.escape(message)}$"):
            read_matrix_market(path)

    def test_comment_in_the_body_is_skipped(self, tmp_path):
        path = tmp_path / "commented.mtx"
        write_lines(path, [
            "%%MatrixMarket matrix coordinate real general",
            "2 2 2",
            "1 1 1.0",
            "% between the entries",
            "",
            "2 1 -2.0",
        ])
        assert np.array_equal(read_matrix_market(path).toarray(), [[1.0, 0.0], [-2.0, 0.0]])

    def test_complex_rejected(self, tmp_path):
        path = tmp_path / "cplx.mtx"
        write_lines(path, [
            "%%MatrixMarket matrix coordinate complex general",
            "1 1 1",
            "1 1 1.0 0.0",
        ])
        with pytest.raises(NonRealFieldError):
            read_matrix_market(path)

    def test_index_out_of_range(self, tmp_path):
        path = tmp_path / "oob.mtx"
        write_lines(path, [
            "%%MatrixMarket matrix coordinate real general",
            "2 2 1",
            "3 1 1.0",
        ])
        with pytest.raises(IndexOutOfRangeError):
            read_matrix_market(path)

    def test_duplicates_summed(self, tmp_path):
        path = tmp_path / "dup.mtx"
        write_lines(path, [
            "%%MatrixMarket matrix coordinate real general",
            "1 1 2",
            "1 1 1.5",
            "1 1 2.5",
        ])
        m = read_matrix_market(path)
        assert m.toarray()[0, 0] == pytest.approx(4.0)


class TestRoundTrips:
    def test_matrix_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        dense = rng.standard_normal((50, 50))
        dense[rng.random((50, 50)) > 0.05] = 0.0
        m = scipy.sparse.csr_array(dense)
        path = tmp_path / "m.mtx"
        write_matrix_market(m, path, comment="roundtrip")
        again = read_matrix_market(path)
        assert again.shape == m.shape
        assert np.array_equal(again.toarray(), m.toarray())

    def test_any_sparse_format_writes_the_csr_text(self, tmp_path):
        # duplicates summed and columns ascending, whatever the input format
        coo = scipy.sparse.coo_array(([1.5, 2.0, 0.25, -3.0], ([1, 0, 1, 1], [2, 1, 0, 2])),
                                     shape=(2, 3))
        want = ["%%MatrixMarket matrix coordinate real general", "2 3 3",
                "1 2 2", "2 1 0.25", "2 3 -1.5"]
        raw = scipy.sparse.csr_array(([2.0, 1.5, 0.25, -3.0], [1, 2, 0, 2], [0, 1, 4]),
                                     shape=(2, 3))  # row 2 unsorted, with a duplicate
        for m in (coo, coo.tocsc(), raw, scipy.sparse.csr_matrix(coo.toarray())):
            path = tmp_path / "m.mtx"
            write_matrix_market(m, path)
            assert path.read_text().splitlines() == want

    def test_vector_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(37)
        path = tmp_path / "v.txt"
        write_vector(x, path)
        assert np.array_equal(read_vector(path), x)

    def test_assembled_problem_export_roundtrip(self, tmp_path, cdr_assembled):
        assembled = cdr_assembled(6)
        m_path = tmp_path / "m.mtx"
        n_path = tmp_path / "n.mtx"
        b_path = tmp_path / "b.txt"
        write_matrix_market(assembled.m_matrix, m_path)
        write_matrix_market(assembled.n_matrix, n_path)
        write_vector(assembled.rhs, b_path)
        assert np.array_equal(read_matrix_market(m_path).toarray(),
                              assembled.m_matrix.toarray())
        assert np.array_equal(read_matrix_market(n_path).toarray(),
                              assembled.n_matrix.toarray())
        assert np.array_equal(read_vector(b_path), assembled.rhs)

    def test_report_roundtrip(self, tmp_path):
        report = ExperimentReport(
            metadata={"solver": "gcr", "tol": 1e-6},
            residual_norm_weighted=[1.0, 0.25, 1e-7],
            residual_norm_euclidean=[1.1, 0.3, 2e-7],
            iterations=2,
            status="converged",
            bound_report={"kappa": 3.0, "rho": None},
            wall_time_s=0.125,
        )
        path = tmp_path / "rep.json"
        write_report_json(report, path)
        again = read_report_json(path)
        assert again == report


class TestCsvReports:
    def test_empty_trace_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_report_csv(ExperimentReport(), path)
        lines = path.read_text().strip().splitlines()
        assert lines == ["iteration,res_w,res_euclid"]

    def test_single_entry_two_lines(self, tmp_path):
        path = tmp_path / "one.csv"
        report = ExperimentReport(residual_norm_weighted=[3.0],
                                  residual_norm_euclidean=[3.0])
        write_report_csv(report, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert lines[1] == "0,3,3"
