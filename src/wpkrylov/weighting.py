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
    validate : run the probabilistic symmetry/positivity probes.

    ``is_identity`` marks the Euclidean inner product, so callers may skip
    redundant applications; only :meth:`identity` sets it.
    """

    is_identity = False

    def __init__(self, dim, apply_w, *, validate=True):
        self.dim = int(dim)
        self._op = aslinearoperator(apply_w, dim=self.dim)
        if validate:
            self._probe_spd()

    def apply(self, x) -> np.ndarray:
        if self.is_identity:
            return np.asarray(x, dtype=float).copy()
        return self._op.apply(x)

    __call__ = apply

    @property
    def matrix(self):
        """The matrix W was built from (shared: read it only), or None."""
        return self._op.matrix

    def _probe_spd(self):
        """Test W on 32 random pairs (x, y), 64 applies of W in all: W must
        give finite images, <W x, y> must equal <x, W y> to 1e-12 relative,
        and <x, W x> must be positive.

        The coordinates are independent and uniform on [-1/2, 1/2), drawn
        a pair at a time: Gaussian vectors cost several times more to
        draw, and all 64 at once would add their memory to the peak.  Any
        continuous distribution with independent coordinates catches a
        nonzero skew part with probability 1.  How likely the positivity
        test is to catch an indefinite W depends on W and the
        distribution; neither the uniform nor the Gaussian draw is the
        stronger for every W.
        """
        rng = np.random.default_rng(_PROBE_SEED)
        for _ in range(_PROBE_COUNT):
            pair = rng.random((2, self.dim))
            pair -= 0.5
            x, y = pair
            wx = self.apply(x)
            wy = self.apply(y)
            # tested before any product, which would warn on an infinity
            if not (np.isfinite(wx).all() and np.isfinite(wy).all()):
                raise InvalidWeightError("weight operator gave a non-finite image in a probe")
            scale = np.linalg.norm(wx) * np.linalg.norm(y) + np.linalg.norm(wy) * np.linalg.norm(x)
            if abs(wx @ y - x @ wy) > 1e-12 * max(scale, 1e-300):
                raise InvalidWeightError("weight operator failed a symmetry probe")
            if x @ wx <= 0.0:
                raise InvalidWeightError("weight operator failed a positivity probe")

    @classmethod
    def identity(cls, dim: int) -> "WeightOperator":
        weight = cls(dim, LinearOperator.identity(dim), validate=False)
        weight.is_identity = True
        return weight

    @classmethod
    def from_dense(cls, w, validate=True) -> "WeightOperator":
        m = np.asarray(w, dtype=float)
        return cls(m.shape[0], LinearOperator.from_dense(m), validate=validate)


class PreconditionerHandle:
    """Action of a nonsingular preconditioner H (and of H^T), with an SPD
    marker, and an identity marker that tells the solvers H r is r (set
    only by :meth:`identity`)."""

    is_identity = False

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

    def same_operator_as(self, w: WeightOperator) -> bool:
        """Whether the weight applies this preconditioner's own operator:
        the one it wraps (:meth:`as_weight`), the callable that operator
        wraps, or :meth:`apply` itself.  False says only that W is some
        other operator, which may still act as H does."""
        source = w._op._apply
        return source is self._op._apply or source == self.apply

    @classmethod
    def identity(cls, dim: int) -> "PreconditionerHandle":
        handle = cls(dim, LinearOperator.identity(dim), hermitian_flag=True)
        handle.is_identity = True
        return handle

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
