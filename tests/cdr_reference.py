"""Triangle-by-triangle COO assembly of the CDR problem, the reference
that tests hold cdr.assemble to.

Each of the 2 m^2 triangles gets its own Jacobian, its own three
mid-edge quadrature points (so every interior edge point is evaluated
twice) and a dense 3x3 element matrix; the element matrices are summed
by a COO to CSR conversion over all lattice vertices, and the boundary
rows and columns are then sliced away (elimination) or penalized.
"""

import numpy as np
import scipy.sparse

from wpkrylov.cdr import AssembledCdr, CdrProblemSpec, build_mesh
from wpkrylov.linalg import _validated_csr

# gradients of the barycentric basis on the reference triangle and its
# values at the mid-edge quadrature points
GRAD_REF = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
LAMBDA_Q = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])

DIV_STEP = 1e-6


def scalar_field(f, x, y):
    if callable(f):
        return np.broadcast_to(np.asarray(f(x, y), dtype=float), np.shape(x)).copy()
    return np.full(np.shape(x), float(f))


def vector_field(a, x, y):
    ax, ay = a(x, y)
    shape = np.shape(x)
    return (
        np.broadcast_to(np.asarray(ax, dtype=float), shape).copy(),
        np.broadcast_to(np.asarray(ay, dtype=float), shape).copy(),
    )


def divergence(a, x, y, step=DIV_STEP):
    axp, _ = vector_field(a, x + step, y)
    axm, _ = vector_field(a, x - step, y)
    _, ayp = vector_field(a, x, y + step)
    _, aym = vector_field(a, x, y - step)
    return (axp - axm) / (2.0 * step) + (ayp - aym) / (2.0 * step)


def reference_assemble(problem: CdrProblemSpec) -> AssembledCdr:
    """cdr.assemble, one triangle at a time."""
    mesh = build_mesh(problem.mesh_divisions)
    tri = mesh.triangles
    pts = mesh.vertices[tri]  # (nt, 3, 2)

    e1 = pts[:, 1, :] - pts[:, 0, :]
    e2 = pts[:, 2, :] - pts[:, 0, :]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    weight = 0.5 * det / 3.0

    # x and y components of the gradients of the three nodal basis
    # functions on each triangle: rows of J^{-T} times the reference ones
    inv_jt_x = np.column_stack([e2[:, 1], -e1[:, 1]]) / det[:, None]
    inv_jt_y = np.column_stack([-e2[:, 0], e1[:, 0]]) / det[:, None]
    grad_x = inv_jt_x @ GRAD_REF.T
    grad_y = inv_jt_y @ GRAD_REF.T

    qx = pts[:, :, 0] @ LAMBDA_Q.T
    qy = pts[:, :, 1] @ LAMBDA_Q.T

    nu_q = scalar_field(problem.nu, qx, qy)
    react_q = scalar_field(problem.c0, qx, qy) + 0.5 * divergence(problem.a_field, qx, qy)
    f_q = scalar_field(problem.f_rhs, qx, qy)
    ax_q, ay_q = vector_field(problem.a_field, qx, qy)

    if np.any(nu_q <= 0.0):
        raise ValueError("viscosity must be positive at every quadrature point")
    if np.any(react_q < 0.0):
        raise ValueError("reaction plus half the convection divergence must be nonnegative")

    # element matrices as (nt, 3, 3) arrays of entry (k, l)
    stiffness = (weight * nu_q.sum(axis=1))[:, None, None] * (
        grad_x[:, :, None] * grad_x[:, None, :] + grad_y[:, :, None] * grad_y[:, None, :])
    lambda_kl = (LAMBDA_Q[:, :, None] * LAMBDA_Q[:, None, :]).reshape(3, 9)
    me = (weight[:, None] * (react_q @ lambda_kl)).reshape(-1, 3, 3)
    # conv[t, l, k] = sum_q lambda_k(q) a(q) . grad(basis_l); the skew part
    # is half its transpose minus itself
    conv = (grad_x[:, :, None] * (ax_q @ LAMBDA_Q)[:, None, :]
            + grad_y[:, :, None] * (ay_q @ LAMBDA_Q)[:, None, :])
    ne = (0.5 * weight)[:, None, None] * (conv.transpose(0, 2, 1) - conv)
    be = weight[:, None] * (f_q @ LAMBDA_Q)

    nvtx = mesh.vertices.shape[0]
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    m_full = scipy.sparse.coo_array(
        ((stiffness + me).ravel(), (rows, cols)), shape=(nvtx, nvtx)).tocsr()
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
