"""Two storage-lean rearrangements of the whp_gcr loop, as plain loops
over held lists: a reference that tests hold whp_gcr to.

Both keep z = H r by the recurrence z <- z - alpha H q and read
||r||_H = sqrt(<r, z>), as whp_gcr does, and form each direction p_j
when it is taken.  Beside p_j, whp_gcr_alt_a holds y_j = H q_j and uses
the image q = A z as computed, without projection, in delta = <y, q>; it
forms r = b - A x.  whp_gcr_alt_b holds q_j and uses t = H A z as
computed: the coefficients are <q_j, t>, and t enters gamma, delta and
the update of z.  Both take whp_gcr's steps in exact arithmetic.  Once
the held q_j of alt_b lose H-orthogonality its delta is no longer
||q||_H^2, and a run that exhausts the Krylov space can break down or
stray from whp_gcr.

Full orthogonalization and the weighted stopping norm only, halting at
the first breakdown.  The stopping rule and the breakdown tests are
those of wpkrylov.solvers.
"""

import numpy as np

from wpkrylov.solvers import BREAKDOWN_RTOL, BreakdownEvent, IterationTrace, SolveResult


def whp_gcr_alt_a(system, h, cfg):
    return _whp_loop(system, h, cfg, holds_q=False)


def whp_gcr_alt_b(system, h, cfg):
    return _whp_loop(system, h, cfg, holds_q=True)


def _whp_loop(system, h, cfg, holds_q):
    assert cfg.truncation_window is cfg.restart_period is None
    assert cfg.stopping_norm == "weighted"
    a, b = system.operator, system.rhs
    x = system.initial_guess()
    trace = IterationTrace()

    def h_norm(v):
        return float(np.sqrt(max(float(h.apply(v) @ v), 0.0)))

    def record(rw, r2):
        trace.residual_norm_weighted.append(rw)
        trace.residual_norm_euclidean.append(r2)
        if r2 == 0.0 or rw < target:
            trace.status = "converged"
        return trace.status == "converged"

    target = cfg.rel_tolerance * h_norm(b)
    r = b - a.apply(x)
    z = h.apply(r)
    if record(float(np.sqrt(max(float(z @ r), 0.0))), float(np.linalg.norm(r))):
        return SolveResult(x, trace, 0)

    directions, held, deltas = [], [], []  # p_j, then q_j (alt_b) or H q_j (alt_a)
    for i in range(cfg.max_iterations):
        q = a.apply(z)
        y = h.apply(q)
        az_norm = float(np.sqrt(max(float(y @ q), 0.0)))
        # classical Gram-Schmidt: every coefficient against the unprojected vector
        u = y if holds_q else q
        beta = [float(v @ u) / d for v, d in zip(held, deltas)]
        p = z.copy()
        image = (q if holds_q else y).copy()
        for bj, pj, vj in zip(beta, directions, held):
            p -= bj * pj
            image -= bj * vj
        if holds_q:
            q = image
        else:
            y = image
        delta = float(y @ q)
        rw = trace.residual_norm_weighted[-1]
        degenerate = delta <= 0.0 or np.sqrt(delta) <= BREAKDOWN_RTOL * az_norm
        gamma = 0.0 if degenerate else float(y @ r)
        if degenerate or abs(gamma) <= BREAKDOWN_RTOL * np.sqrt(delta) * rw:
            trace.breakdown = BreakdownEvent(i, gamma)
            trace.status = "breakdown"
            break

        alpha = gamma / delta
        x = x + alpha * p
        r = r - alpha * q if holds_q else b - a.apply(x)
        z = z - alpha * y
        rz = float(z @ r)
        trace.alpha.append(alpha)
        if record(np.sqrt(rz) if rz >= 0.0 else h_norm(r), float(np.linalg.norm(r))):
            break
        if rz < 0.0:  # z has drifted from H r
            trace.breakdown = BreakdownEvent(i, rz)
            trace.status = "breakdown"
            break
        directions.append(p)
        held.append(image)
        deltas.append(delta)
    return SolveResult(x, trace, len(trace.alpha))

