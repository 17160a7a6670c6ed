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

Assembly uses the uniform lattice throughout: every triangle is one of
two shapes with constant gradients and area, so no Jacobian is formed.
Each coefficient, and the finite-difference divergence of the
convection field, is evaluated once per distinct mid-edge point
(3 m^2 + 2 m of them, each shared by the triangles of its edge).  The
element contributions are summed per edge and per vertex on (m, m)-sized
arrays and written straight into the fixed 7-point pattern of the kept
unknowns (self and the E, W, N, S, NE and SW neighbours), whose row
pointers and column indices follow by arithmetic: the interior vertices
under elimination, all of them under penalization.
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

# values of the barycentric basis at the mid-edge quadrature points
_LAMBDA_Q = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])

_DIV_STEP = 1e-6


@dataclass
class CdrProblemSpec:
    """Problem data: mesh resolution, coefficients and boundary handling.

    nu, c0 and f_rhs may be constants or callables of (x, y); a_field is
    a callable returning the convection vector as an (ax, ay) pair.  All
    callables must accept numpy arrays.  bc selects Dirichlet handling:
    "elimination" keeps interior unknowns only, "penalization" keeps all
    lattice vertices and adds 1e10 times the largest diagonal entry of the
    symmetric part to its boundary diagonal entries (so the skew part
    stays exactly skew).
    """

    mesh_divisions: int
    nu: object = 1.0
    c0: object = 1.0
    a_field: object = None
    f_rhs: object = 0.0
    bc: str = "elimination"

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

    # the lower triangles (v00, v10, v11) of every cell, then the upper
    # ones (v00, v11, v01), v00 the bottom-left vertex of the cell
    v00 = (np.arange(0, m * (m + 1), m + 1)[:, None] + np.arange(m)).ravel()
    corners = np.array([[0, 1, m + 2], [0, m + 2, m + 1]])
    triangles = (v00[None, :, None] + corners[:, None, :]).reshape(-1, 3)

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
    """f at the points, as a read-only array of their shape."""
    values = f(x, y) if callable(f) else f
    return np.broadcast_to(np.asarray(values, dtype=float), np.shape(x))


def _vector_field(a, x, y):
    ax, ay = a(x, y)
    return _scalar_field(ax, x, y), _scalar_field(ay, x, y)


def _divergence(a, x, y):
    axp, _ = _vector_field(a, x + _DIV_STEP, y)
    axm, _ = _vector_field(a, x - _DIV_STEP, y)
    _, ayp = _vector_field(a, x, y + _DIV_STEP)
    _, aym = _vector_field(a, x, y - _DIV_STEP)
    return (axp - axm) / (2.0 * _DIV_STEP) + (ayp - aym) / (2.0 * _DIV_STEP)


class _Edges:
    """The 3 m^2 + 2 m distinct mid-edge points of the lattice.

    A value per point is held as three arrays indexed [j, i]: ``h`` on
    the (m+1, m) horizontal edges from vertex (i, j) to (i+1, j), ``v``
    on the (m, m+1) vertical edges from (i, j) to (i, j+1) and ``d`` on
    the (m, m) diagonal edges from (i, j) to (i+1, j+1).  Cell (i, j)
    holds the lower triangle (i, j), (i+1, j), (i+1, j+1), with edges
    h[j, i], v[j, i+1] and d[j, i], and the upper triangle (i, j),
    (i+1, j+1), (i, j+1), with edges d[j, i], h[j+1, i] and v[j, i].
    """

    def __init__(self, grid: np.ndarray):
        m = len(grid) - 1
        mid = 0.5 * (grid[:-1] + grid[1:])  # bitwise the midpoint the mesh's triangles give
        self.shapes = ((m + 1, m), (m, m + 1), (m, m))
        along = (mid, grid, mid)
        across = (grid, mid, mid)
        self.x = np.concatenate([np.broadcast_to(a, s).ravel()
                                 for a, s in zip(along, self.shapes)])
        self.y = np.concatenate([np.broadcast_to(a[:, None], s).ravel()
                                 for a, s in zip(across, self.shapes)])
        self.splits = np.cumsum([s[0] * s[1] for s in self.shapes])[:-1]

    def split(self, values: np.ndarray) -> list:
        """Flat values at the points as their h, v and d arrays."""
        return [part.reshape(s) for part, s in zip(np.split(values, self.splits), self.shapes)]


def _vertex_sum(h_vals, v_vals, d_vals) -> np.ndarray:
    """(m+1, m+1) sums, at each vertex, of an edge quantity over its (up to
    six) incident edges."""
    out = np.zeros((h_vals.shape[0],) * 2)
    out[:, :-1] += h_vals
    out[:, 1:] += h_vals
    out[:-1] += v_vals
    out[1:] += v_vals
    out[:-1, :-1] += d_vals
    out[1:, 1:] += d_vals
    return out


def _stencil_csr(diag, sym, skew, lo: int, hi: int):
    """The symmetric and skew matrices of the unknowns at the lattice
    vertices (i, j) with lo <= i, j <= hi, numbered row by row, in the
    7-point pattern of the diagonal split.

    diag is the (m+1, m+1) diagonal; sym and skew are the (h, v, d) edge
    values of the two parts, each entry the one in the row of the lower
    numbered end (the other row takes it, or its negative for skew).
    Each row holds, in column order, its SW, S, W, self, E, N and NE
    entries, less the neighbours outside the range.
    """
    w = hi - lo + 1
    inner = slice(lo, hi + 1)
    short = slice(lo, hi)
    mask = np.ones((w, w, 7), dtype=bool)
    mask[0, :, :2] = mask[:, 0, [0, 2]] = False
    mask[-1, :, 5:] = mask[:, -1, [4, 6]] = False
    counts = np.full((w, w), 7)
    counts[0] -= 2
    counts[-1] -= 2
    counts[:, 0] -= 2
    counts[:, -1] -= 2
    counts[0, 0] += 1  # SW is missed once there, not twice; likewise NE
    counts[-1, -1] += 1
    indptr = np.concatenate([[0], np.cumsum(counts)])
    columns = np.empty((w, w, 7), dtype=np.int64)
    vertex = np.arange(w * w).reshape(w, w)
    for slot, offset in enumerate((-w - 1, -w, -1, 0, 1, w, w + 1)):
        np.add(vertex, offset, out=columns[:, :, slot])
    indices = columns[mask]

    def csr(edge_vals, sign, centre, pattern):
        e_h, e_v, e_d = edge_vals
        slots = np.empty((w, w, 7))  # what the mask drops is never written
        slots[1:, 1:, 0] = sign * e_d[short, short]
        slots[1:, :, 1] = sign * e_v[short, inner]
        slots[:, 1:, 2] = sign * e_h[inner, short]
        slots[:, :, 3] = centre
        slots[:, :-1, 4] = e_h[inner, short]
        slots[:-1, :, 5] = e_v[short, inner]
        slots[:-1, :-1, 6] = e_d[short, short]
        return scipy.sparse.csr_array((slots[mask], *pattern), shape=(w * w, w * w))

    # the skew part gets its own index arrays, so neither matrix aliases the other
    return (csr(sym, 1.0, diag[inner, inner], (indices, indptr)),
            csr(skew, -1.0, 0.0, (indices.copy(), indptr.copy())))


def _stiffness(nu_h, nu_v, nu_d) -> tuple[np.ndarray, np.ndarray]:
    """The stiffness entries of the horizontal and vertical edges.

    A triangle adds (nu summed over its three points) g_k.g_l / 6, with
    the constant gradients g / h of its shape: lower (-1, 0), (1, -1),
    (0, 1), upper (0, -1), (1, 0), (-1, 1).  That is -1/6 of its sum on
    its horizontal and vertical edges and 0 on its diagonal one; each
    row sums to zero.
    """
    m = nu_d.shape[0]
    nu_lower = nu_h[:-1] + nu_v[:, 1:] + nu_d
    nu_upper = nu_d + nu_h[1:] + nu_v[:, :-1]
    stiff_h = np.zeros((m + 1, m))
    stiff_h[:-1] -= nu_lower
    stiff_h[1:] -= nu_upper
    stiff_v = np.zeros((m, m + 1))
    stiff_v[:, 1:] -= nu_lower
    stiff_v[:, :-1] -= nu_upper
    return stiff_h / 6.0, stiff_v / 6.0


def _skew(a_h, a_v, a_d, h: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The skew entries of every edge, from the (2, ...) convection arrays.

    A triangle adds (h/24) (A_k.g_l - A_l.g_k) in row k, column l, with A_k
    the convection summed over its two points on the edges at vertex k
    and g the gradients of _stiffness.
    """
    m = a_d.shape[1]
    # lower triangle of cell (i, j): A_0, A_1, A_2 at (i, j), (i+1, j), (i+1, j+1)
    s0, s1, s2 = a_h[:, :-1] + a_d, a_h[:, :-1] + a_v[:, :, 1:], a_v[:, :, 1:] + a_d
    lower_01 = s0[0] - s0[1] + s1[0]
    lower_12 = s1[1] - s2[0] + s2[1]
    lower_02 = s0[1] + s2[0]
    # upper triangle of cell (i, j): A_0, A_1, A_2 at (i, j), (i+1, j+1), (i, j+1)
    s0, s1, s2 = a_d + a_v[:, :, :-1], a_d + a_h[:, 1:], a_h[:, 1:] + a_v[:, :, :-1]
    upper_01 = s0[0] + s1[1]
    upper_12 = s1[1] - s1[0] - s2[0]
    upper_02 = s0[1] - s0[0] + s2[1]
    skew_h = np.zeros((m + 1, m))
    skew_h[:-1] += lower_01
    skew_h[1:] -= upper_12
    skew_v = np.zeros((m, m + 1))
    skew_v[:, :-1] += upper_02
    skew_v[:, 1:] += lower_12
    scale = h / 24.0
    return skew_h * scale, skew_v * scale, (lower_02 + upper_01) * scale


def assemble(problem: CdrProblemSpec) -> AssembledCdr:
    """Assemble the symmetric part, skew part and load vector.

    Every coefficient is evaluated once per distinct mid-edge point, and
    the element contributions of the two triangle shapes are summed per
    edge straight into the 7-point pattern of the kept unknowns.
    Coefficient positivity (nu > 0 and c0 + div(a)/2 >= 0) is checked at
    every quadrature point, since it is what makes the symmetric part
    positive definite; a non-finite nu, c0 or convection value there, or
    a non-finite assembled entry, raises ValueError.
    """
    mesh = build_mesh(problem.mesh_divisions)
    m, h = mesh.divisions, mesh.h
    edges = _Edges(mesh.vertices[: m + 1, 0])
    x, y = edges.x, edges.y

    nu = _scalar_field(problem.nu, x, y)
    react = _scalar_field(problem.c0, x, y) + 0.5 * _divergence(problem.a_field, x, y)
    f = _scalar_field(problem.f_rhs, x, y)
    ax, ay = _vector_field(problem.a_field, x, y)

    if np.any(nu <= 0.0):
        raise ValueError("viscosity must be positive at every quadrature point")
    # zero reaction is allowed (pure diffusion keeps the symmetric part SPD
    # under Dirichlet conditions); a negative one would break it
    if np.any(react < 0.0):
        raise ValueError("reaction plus half the convection divergence must be nonnegative")
    if not all(np.isfinite(c).all() for c in (nu, react, ax, ay)):
        raise ValueError("coefficients must be finite at every quadrature point")

    stiff_h, stiff_v = _stiffness(*edges.split(nu))
    skew = _skew(*(np.stack(pair) for pair in zip(edges.split(ax), edges.split(ay))), h)
    # The mid-edge rule weighs each point area/3 = h^2/6 in a triangle, and
    # the basis functions of an edge's two ends are 1/2 there, the third 0.
    # So a point adds h^2/24 per triangle of its edge to the mass entry of
    # the edge and to the diagonal entries of its ends, and twice that to
    # the load of each end.  An edge lies in two triangles, on the boundary
    # in one.
    weight = np.full(len(x), h * h / 12.0)
    w_h, w_v, _ = edges.split(weight)  # views of weight
    w_h[[0, -1]] *= 0.5
    w_v[:, [0, -1]] *= 0.5
    mass_h, mass_v, mass_d = edges.split(weight * react)
    load = 2.0 * _vertex_sum(*edges.split(weight * f))

    diag = _vertex_sum(mass_h - stiff_h, mass_v - stiff_v, mass_d)
    sym = (stiff_h + mass_h, stiff_v + mass_v, mass_d)

    if problem.bc == "elimination":
        m_bc, n_bc = _stencil_csr(diag, sym, skew, 1, m - 1)
        rhs = load[1:-1, 1:-1].ravel()
        dof_vertices = mesh.interior_indices
    else:
        boundary = mesh.boundary_mask.reshape(m + 1, m + 1)
        diag[boundary] += 1e10 * float(diag.max())
        m_bc, n_bc = _stencil_csr(diag, sym, skew, 0, m)
        # M stores no exact zero in this mode: a NE or SW entry is left out
        # where the reaction vanishes on that diagonal edge
        m_bc.eliminate_zeros()
        rhs = load.ravel()
        rhs[mesh.boundary_mask] = 0.0
        dof_vertices = np.arange(len(rhs))

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
