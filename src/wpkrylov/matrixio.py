"""Matrix Market and plain-vector file exchange, plus experiment reports.

Only real coordinate Matrix Market files are handled (general, symmetric
or skew-symmetric storage); anything else is rejected explicitly.
Floating point values are written with 17 significant digits so that
write/read round trips are bit faithful.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .linalg import _validated_csr

__all__ = [
    "MalformedHeaderError",
    "IndexOutOfRangeError",
    "NonRealFieldError",
    "ExperimentReport",
    "read_matrix_market",
    "write_matrix_market",
    "read_vector",
    "write_vector",
    "write_report_json",
    "read_report_json",
    "write_report_csv",
]

_FLOAT_FMT = "{:.17g}"


class MalformedHeaderError(ValueError):
    """The Matrix Market banner or size line could not be parsed."""


class IndexOutOfRangeError(ValueError):
    """A coordinate entry lies outside the declared matrix shape."""


class NonRealFieldError(ValueError):
    """Only real-valued Matrix Market files are supported."""


def read_matrix_market(path) -> scipy.sparse.csr_array:
    """Read a real coordinate Matrix Market file into a csr_array.

    Symmetric and skew-symmetric storage are expanded to full; indices
    are converted from 1-based; duplicate entries are summed.  Every
    malformed file raises a ValueError (the three errors above included,
    and a non-finite entry).
    """
    with open(path, "r", encoding="utf-8") as handle:
        banner = handle.readline()
        parts = banner.strip().split()
        if len(parts) != 5 or parts[0] != "%%MatrixMarket":
            raise MalformedHeaderError(f"bad banner {banner.strip()!r}")
        _, obj, fmt, fld, sym = (p.lower() for p in parts)
        if obj != "matrix" or fmt != "coordinate":
            raise MalformedHeaderError("only coordinate matrices are supported")
        if fld != "real":
            raise NonRealFieldError(f"field {fld!r} is not supported (real only)")
        if sym not in ("general", "symmetric", "skew-symmetric"):
            raise MalformedHeaderError(f"unsupported symmetry {sym!r}")

        size_line = None
        for line in handle:
            stripped = line.strip()
            if stripped and not stripped.startswith("%"):
                size_line = stripped
                break
        if size_line is None:
            raise MalformedHeaderError("missing size line")
        try:
            rows, cols, nnz = (int(tok) for tok in size_line.split())
        except ValueError as exc:
            raise MalformedHeaderError(f"bad size line {size_line!r}") from exc

        ii: list[int] = []
        jj: list[int] = []
        vv: list[float] = []
        count = 0
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            toks = stripped.split()
            if len(toks) != 3:
                raise MalformedHeaderError(f"bad entry line {stripped!r}")
            i, j = int(toks[0]), int(toks[1])
            v = float(toks[2])
            if not (1 <= i <= rows and 1 <= j <= cols):
                raise IndexOutOfRangeError(f"entry ({i}, {j}) outside {rows}x{cols}")
            count += 1
            ii.append(i - 1)
            jj.append(j - 1)
            vv.append(v)
            if sym == "symmetric" and i != j:
                ii.append(j - 1)
                jj.append(i - 1)
                vv.append(v)
            elif sym == "skew-symmetric" and i != j:
                ii.append(j - 1)
                jj.append(i - 1)
                vv.append(-v)
        if count != nnz:
            raise MalformedHeaderError(f"expected {nnz} entries, found {count}")
    return _validated_csr(scipy.sparse.coo_array((vv, (ii, jj)), shape=(rows, cols)))


def write_matrix_market(m, path, comment: str | None = None) -> None:
    """Write a scipy.sparse matrix as a general real coordinate Matrix
    Market file, row by row from its canonical CSR form (duplicates
    summed, columns ascending; stored zeros are written)."""
    csr = scipy.sparse.csr_array(m, dtype=float, copy=True)
    csr.sum_duplicates()  # sorts the indices of every row first
    rows, cols = csr.shape
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("%%MatrixMarket matrix coordinate real general\n")
        if comment:
            for line in comment.splitlines():
                handle.write(f"%{line}\n")
        handle.write(f"{rows} {cols} {csr.nnz}\n")
        row_of = np.repeat(np.arange(rows), np.diff(csr.indptr))
        for r, c, v in zip(row_of.tolist(), csr.indices.tolist(), csr.data.tolist()):
            handle.write(f"{r + 1} {c + 1} {_FLOAT_FMT.format(v)}\n")


def read_vector(path) -> np.ndarray:
    """Read a plain-text vector: one value per line, % comments skipped."""
    values = []
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            stripped = line.strip()
            if not stripped or stripped.startswith("%"):
                continue
            values.append(float(stripped))
    return np.asarray(values, dtype=float)


def write_vector(x, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for v in np.asarray(x, dtype=float):
            handle.write(_FLOAT_FMT.format(v) + "\n")


@dataclass
class ExperimentReport:
    """Everything one solver run produced, ready for serialization."""

    metadata: dict = field(default_factory=dict)
    residual_norm_weighted: list = field(default_factory=list)
    residual_norm_euclidean: list = field(default_factory=list)
    iterations: int = 0
    status: str = ""
    bound_report: dict | None = None
    wall_time_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "metadata": self.metadata,
            "residual_norm_weighted": list(map(float, self.residual_norm_weighted)),
            "residual_norm_euclidean": list(map(float, self.residual_norm_euclidean)),
            "iterations": int(self.iterations),
            "status": self.status,
            "bound_report": self.bound_report,
            "wall_time_s": float(self.wall_time_s),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentReport":
        return cls(
            metadata=data.get("metadata", {}),
            residual_norm_weighted=list(data.get("residual_norm_weighted", [])),
            residual_norm_euclidean=list(data.get("residual_norm_euclidean", [])),
            iterations=int(data.get("iterations", 0)),
            status=data.get("status", ""),
            bound_report=data.get("bound_report"),
            wall_time_s=float(data.get("wall_time_s", 0.0)),
        )


def write_report_json(report: ExperimentReport, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


def read_report_json(path) -> ExperimentReport:
    with open(path, "r", encoding="utf-8") as handle:
        return ExperimentReport.from_dict(json.load(handle))


def write_report_csv(report: ExperimentReport, path) -> None:
    """Per-iteration residual norms: columns iteration, res_w, res_euclid."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "res_w", "res_euclid"])
        for i, (rw, r2) in enumerate(
            zip(report.residual_norm_weighted, report.residual_norm_euclidean)
        ):
            writer.writerow([i, _FLOAT_FMT.format(rw), _FLOAT_FMT.format(r2)])
