"""P1 finite element assembly for a convection-diffusion-reaction problem.

The domain is the unit square with homogeneous Dirichlet data,
triangulated by splitting every cell of a uniform (m+1) x (m+1) lattice
along the same bottom-left to top-right diagonal.  The bilinear form is
assembled directly in its symmetric/skew decomposition: the symmetric
part collects the viscous stiffness and the reaction mass (with half the
convection divergence folded in), the skew part carries the antisymmetric
convection term, so the two returned matrices are the exact symmetric
and skew-symmetric parts of the discrete operator by construction.

All variable-coefficient terms use the three-point mid-edge quadrature
rule, exact for quadratics; with an affine convection field the skew
term is integrated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .linalg import LinearOperator, _validated_csr

__all__ = [
    "CdrProblemSpec",
    "StructuredMesh",
    "AssembledCdr",
    "build_mesh",
    "assemble",
    "reference_problem",
    "l2_error",
]

# reference-element data: gradients of the barycentric basis and its
# values at the mid-edge quadrature points
_GRAD_REF = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
_LAMBDA_Q = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])

_DIV_STEP = 1e-6


@dataclass
class CdrProblemSpec:
    """Problem data: mesh resolution, coefficients and boundary handling.

    nu, c0 and f_rhs may be constants or callables of (x, y); a_field is
    a callable returning the convection vector as an (ax, ay) pair.  All
    callables must accept numpy arrays.  bc selects Dirichlet handling:
    "elimination" keeps interior unknowns only, "penalization" keeps all
    lattice vertices and adds a large weight to boundary diagonal entries
    of the symmetric part (so the skew part stays exactly skew).
    """

    mesh_divisions: int
    nu: object = 1.0
    c0: object = 1.0
    a_field: object = None
    f_rhs: object = 0.0
    bc: str = "elimination"
    penalty_weight: float | None = None

    def __post_init__(self):
        if self.mesh_divisions < 2:
            raise ValueError("mesh_divisions must be at least 2")
        if self.bc not in ("elimination", "penalization"):
            raise ValueError(f"unknown boundary mode {self.bc!r}")
        if self.a_field is None:
            self.a_field = lambda x, y: (np.zeros_like(np.asarray(x, dtype=float)),
                                         np.zeros_like(np.asarray(y, dtype=float)))


@dataclass
class StructuredMesh:
    divisions: int
    h: float
    vertices: np.ndarray
    triangles: np.ndarray
    boundary_mask: np.ndarray
    interior_indices: np.ndarray


def build_mesh(m: int) -> StructuredMesh:
    """Uniform triangulation of the unit square with 2 m^2 triangles."""
    if m < 2:
        raise ValueError("mesh_divisions must be at least 2")
    h = 1.0 / m
    grid = np.arange(m + 1) * h
    xs, ys = np.meshgrid(grid, grid, indexing="xy")
    vertices = np.column_stack([xs.ravel(), ys.ravel()])

    ii, jj = np.meshgrid(np.arange(m), np.arange(m), indexing="xy")
    v00 = (jj * (m + 1) + ii).ravel()
    v10 = v00 + 1
    v01 = v00 + (m + 1)
    v11 = v01 + 1
    lower = np.column_stack([v00, v10, v11])
    upper = np.column_stack([v00, v11, v01])
    triangles = np.vstack([lower, upper])

    on_edge = np.zeros((m + 1, m + 1), dtype=bool)
    on_edge[0, :] = on_edge[-1, :] = True
    on_edge[:, 0] = on_edge[:, -1] = True
    boundary_mask = on_edge.ravel()
    interior = np.flatnonzero(~boundary_mask)
    return StructuredMesh(m, h, vertices, triangles, boundary_mask, interior)


class _FullMatrix(scipy.sparse.csr_array):
    """A csr_array whose ``to_scipy()`` returns a copy of it."""

    # kept for perfbench/workloads.py; goes once it calls .tocsc() on full_matrix()
    def to_scipy(self) -> scipy.sparse.csr_array:
        return self.copy()


@dataclass
class AssembledCdr:
    """Discrete symmetric part, skew part and load vector of the problem."""

    m_matrix: scipy.sparse.csr_array
    n_matrix: scipy.sparse.csr_array
    rhs: np.ndarray
    dof_count: int
    dof_coords: np.ndarray
    dof_vertices: np.ndarray
    mesh: StructuredMesh
    problem: CdrProblemSpec

    def full_matrix(self) -> scipy.sparse.csr_array:
        return _FullMatrix(self.m_matrix + self.n_matrix)

    def operator(self) -> LinearOperator:
        return LinearOperator.from_matrix(self.m_matrix + self.n_matrix)


def _scalar_field(f, x, y):
    if callable(f):
        return np.broadcast_to(np.asarray(f(x, y), dtype=float), np.shape(x)).copy()
    return np.full(np.shape(x), float(f))


def _vector_field(a, x, y):
    ax, ay = a(x, y)
    shape = np.shape(x)
    return (
        np.broadcast_to(np.asarray(ax, dtype=float), shape).copy(),
        np.broadcast_to(np.asarray(ay, dtype=float), shape).copy(),
    )


def _divergence(a, x, y, step: float = _DIV_STEP):
    axp, _ = _vector_field(a, x + step, y)
    axm, _ = _vector_field(a, x - step, y)
    _, ayp = _vector_field(a, x, y + step)
    _, aym = _vector_field(a, x, y - step)
    return (axp - axm) / (2.0 * step) + (ayp - aym) / (2.0 * step)


def assemble(problem: CdrProblemSpec) -> AssembledCdr:
    """Assemble the symmetric part, skew part and load vector.

    Coefficient positivity (nu > 0 and c0 + div(a)/2 > 0) is checked at
    every quadrature point, since it is what makes the symmetric part
    positive definite; a non-finite nu, c0 or convection value ends in
    ValueError from the finiteness check of the assembled matrices.
    """
    mesh = build_mesh(problem.mesh_divisions)
    tri = mesh.triangles
    pts = mesh.vertices[tri]  # (nt, 3, 2)
    ntri = tri.shape[0]

    e1 = pts[:, 1, :] - pts[:, 0, :]
    e2 = pts[:, 2, :] - pts[:, 0, :]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    if np.any(det <= 0.0):
        raise ValueError("triangulation must be positively oriented")
    area = 0.5 * det
    weight = area / 3.0

    # x and y components of the gradients of the three nodal basis
    # functions on each triangle, (nt, 3) each: rows of J^{-T} times the
    # reference gradients
    inv_jt_x = np.column_stack([e2[:, 1], -e1[:, 1]]) / det[:, None]
    inv_jt_y = np.column_stack([-e2[:, 0], e1[:, 0]]) / det[:, None]
    grad_x = inv_jt_x @ _GRAD_REF.T
    grad_y = inv_jt_y @ _GRAD_REF.T

    qx = pts[:, :, 0] @ _LAMBDA_Q.T
    qy = pts[:, :, 1] @ _LAMBDA_Q.T

    nu_q = _scalar_field(problem.nu, qx, qy)
    react_q = _scalar_field(problem.c0, qx, qy) + 0.5 * _divergence(problem.a_field, qx, qy)
    f_q = _scalar_field(problem.f_rhs, qx, qy)
    ax_q, ay_q = _vector_field(problem.a_field, qx, qy)

    if np.any(nu_q <= 0.0):
        raise ValueError("viscosity must be positive at every quadrature point")
    # zero reaction is allowed (pure diffusion keeps the symmetric part SPD
    # under Dirichlet conditions); a negative one would break it
    if np.any(react_q < 0.0):
        raise ValueError("reaction plus half the convection divergence must be nonnegative")

    # element matrices as (nt, 3, 3) arrays of entry (k, l)
    stiffness = (weight * nu_q.sum(axis=1))[:, None, None] * (
        grad_x[:, :, None] * grad_x[:, None, :] + grad_y[:, :, None] * grad_y[:, None, :])
    # mass: sum_q weight react(q) lambda_k(q) lambda_l(q)
    lambda_kl = (_LAMBDA_Q[:, :, None] * _LAMBDA_Q[:, None, :]).reshape(3, 9)
    me = (weight[:, None] * (react_q @ lambda_kl)).reshape(-1, 3, 3)
    # conv[t, l, k] = sum_q lambda_k(q) a(q) . grad(basis_l); the skew part
    # is half its transpose minus itself
    conv = (grad_x[:, :, None] * (ax_q @ _LAMBDA_Q)[:, None, :]
            + grad_y[:, :, None] * (ay_q @ _LAMBDA_Q)[:, None, :])
    ne = (0.5 * weight)[:, None, None] * (conv.transpose(0, 2, 1) - conv)
    be = weight[:, None] * (f_q @ _LAMBDA_Q)

    nvtx = mesh.vertices.shape[0]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    m_full = scipy.sparse.coo_array(
        ((stiffness + me).ravel(), (rows, cols)), shape=(nvtx, nvtx)
    ).tocsr()
    n_full = scipy.sparse.coo_array((ne.ravel(), (rows, cols)), shape=(nvtx, nvtx)).tocsr()
    load = np.bincount(tri.ravel(), weights=be.ravel(), minlength=nvtx)

    if problem.bc == "elimination":
        keep = mesh.interior_indices
        sel = np.ix_(keep, keep)
        m_bc = m_full[sel]
        n_bc = n_full[sel]
        rhs = load[keep]
        dof_vertices = keep
    else:
        weight_pen = problem.penalty_weight
        if weight_pen is None:
            weight_pen = 1e10 * float(m_full.diagonal().max())
        boundary = np.flatnonzero(mesh.boundary_mask)
        m_bc = m_full + scipy.sparse.csr_array(
            (np.full(len(boundary), weight_pen), (boundary, boundary)), shape=m_full.shape)
        n_bc = n_full
        rhs = load.copy()
        rhs[boundary] = 0.0
        dof_vertices = np.arange(nvtx)

    return AssembledCdr(
        m_matrix=_validated_csr(m_bc),
        n_matrix=_validated_csr(n_bc),
        rhs=rhs,
        dof_count=len(dof_vertices),
        dof_coords=mesh.vertices[dof_vertices],
        dof_vertices=dof_vertices,
        mesh=mesh,
        problem=problem,
    )


def reference_problem(nu: float = 1.0, c0: float = 1.0, mesh_divisions: int = 10,
                       bc: str = "elimination") -> CdrProblemSpec:
    """The reference test case: a Gaussian source off the rotation center
    of a rigid-rotation convection field, with constant nu and c0."""

    def source(x, y):
        return np.exp(-10.0 * ((np.asarray(x) - 0.5) ** 2 + (np.asarray(y) - 0.1) ** 2))

    def convection(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        return (-2.0 * np.pi * (y - 0.1), 2.0 * np.pi * (x - 0.5))

    return CdrProblemSpec(
        mesh_divisions=mesh_divisions,
        nu=nu,
        c0=c0,
        a_field=convection,
        f_rhs=source,
        bc=bc,
    )


def l2_error(assembled: AssembledCdr, values: np.ndarray, exact) -> float:
    """L2 distance between the finite element function with the given dof
    values and an exact solution callable, via the mid-edge rule."""
    mesh = assembled.mesh
    full = np.zeros(mesh.vertices.shape[0])
    full[assembled.dof_vertices] = np.asarray(values, dtype=float)
    tri = mesh.triangles
    pts = mesh.vertices[tri]
    area = mesh.h * mesh.h / 2.0
    qx = np.einsum("qk,tk->tq", _LAMBDA_Q, pts[:, :, 0])
    qy = np.einsum("qk,tk->tq", _LAMBDA_Q, pts[:, :, 1])
    uh = np.einsum("qk,tk->tq", _LAMBDA_Q, full[tri])
    ue = np.asarray(exact(qx, qy), dtype=float)
    return float(np.sqrt((area / 3.0) * np.sum((uh - ue) ** 2)))
