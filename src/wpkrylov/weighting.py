"""Weighted inner products and preconditioner handles.

A weight operator realizes a symmetric positive definite W and with it
the inner product <x, y>_W = y^T W x and norm ||x||_W.  Weights may be
available only through their action (e.g. a domain-decomposition
preconditioner used as the inner product), so positive definiteness is
validated probabilistically at construction.
"""

from __future__ import annotations

import numpy as np

from .linalg import LinearOperator, aslinearoperator

__all__ = [
    "InvalidWeightError",
    "NotHermitianPreconditionerError",
    "WeightOperator",
    "PreconditionerHandle",
    "w_inner",
    "w_norm",
]

_PROBE_COUNT = 32
_PROBE_SEED = 0x5EED


class InvalidWeightError(Exception):
    """The supplied weight operator is not symmetric positive definite."""


class NotHermitianPreconditionerError(Exception):
    """A solver requiring a symmetric positive definite preconditioner got a general one."""


class WeightOperator:
    """Symmetric positive definite weight defining <.,.>_W.

    Parameters
    ----------
    dim : dimension of the space.
    apply_w : action of W on a vector.
    is_identity : marks the Euclidean inner product so callers may skip
        redundant applications (apply_w is then not used).
    validate : run the probabilistic symmetry/positivity probes.
    """

    def __init__(self, dim, apply_w, *, is_identity=False, validate=True):
        self.dim = int(dim)
        self._op = (LinearOperator.identity(self.dim) if is_identity
                    else aslinearoperator(apply_w, dim=self.dim))
        self.is_identity = bool(is_identity)
        if validate and not self.is_identity:
            self._probe_spd()

    def apply(self, x) -> np.ndarray:
        if self.is_identity:
            return np.asarray(x, dtype=float).copy()
        return self._op.apply(x)

    __call__ = apply

    def _probe_spd(self):
        rng = np.random.default_rng(_PROBE_SEED)
        for _ in range(_PROBE_COUNT):
            x = rng.standard_normal(self.dim)
            y = rng.standard_normal(self.dim)
            wx = self.apply(x)
            wy = self.apply(y)
            scale = np.linalg.norm(wx) * np.linalg.norm(y) + np.linalg.norm(wy) * np.linalg.norm(x)
            if abs(wx @ y - x @ wy) > 1e-12 * max(scale, 1e-300):
                raise InvalidWeightError("weight operator failed a symmetry probe")
            if x @ wx <= 0.0:
                raise InvalidWeightError("weight operator failed a positivity probe")

    @classmethod
    def identity(cls, dim: int) -> "WeightOperator":
        return cls(dim, lambda x: x, is_identity=True, validate=False)

    @classmethod
    def from_dense(cls, w, validate=True) -> "WeightOperator":
        m = np.asarray(w, dtype=float)
        return cls(m.shape[0], LinearOperator.from_dense(m), validate=validate)


class PreconditionerHandle:
    """Action of a nonsingular preconditioner H (and of H^T), with an SPD marker."""

    def __init__(self, dim, apply_h, *, hermitian_flag=False):
        self.dim = int(dim)
        self._op = aslinearoperator(apply_h, dim=self.dim)
        self.hermitian_flag = bool(hermitian_flag)

    def apply(self, x) -> np.ndarray:
        return self._op.apply(x)

    __call__ = apply

    def apply_transpose(self, x) -> np.ndarray:
        """H^T x: H x when H is marked SPD, else the wrapped operator's
        transposed action (ValueError when it has none)."""
        if self.hermitian_flag:
            return self.apply(x)
        return self._op.apply_transpose(x)

    @classmethod
    def identity(cls, dim: int) -> "PreconditionerHandle":
        return cls(dim, LinearOperator.identity(dim), hermitian_flag=True)

    @classmethod
    def from_dense(cls, h, *, hermitian_flag=False) -> "PreconditionerHandle":
        return cls(np.asarray(h).shape[0], LinearOperator.from_dense(h), hermitian_flag=hermitian_flag)

    def as_weight(self) -> WeightOperator:
        """View an SPD preconditioner as the inner-product weight W = H."""
        if not self.hermitian_flag:
            raise NotHermitianPreconditionerError(
                "only a symmetric positive definite preconditioner can define an inner product"
            )
        return WeightOperator(self.dim, self._op, validate=False)


def w_inner(w: WeightOperator, x, y) -> float:
    """<x, y>_W = y^T W x."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != (w.dim,) or y.shape != (w.dim,):
        raise ValueError("dimension mismatch in weighted inner product")
    return float(w.apply(x) @ y)


def w_norm(w: WeightOperator, x) -> float:
    """||x||_W, guarding against a slightly negative round-off radicand."""
    x = np.asarray(x, dtype=float)
    radicand = w_inner(w, x, x)
    if radicand < 0.0:
        # tolerate round-off; anything beyond it means the weight is not SPD
        if radicand < -1e-14 * float(x @ x):
            raise InvalidWeightError(f"negative weighted norm radicand {radicand}")
        radicand = 0.0
    return float(np.sqrt(radicand))

