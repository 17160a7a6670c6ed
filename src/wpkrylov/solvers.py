"""Weighted, preconditioned GCR-type solvers and a GMRES oracle.

The central iteration is the right-preconditioned generalized conjugate
residual method run in a weighted inner product: search directions p_i
with images q_i = A p_i kept pairwise W-orthogonal, the residual update
r <- r - alpha q with alpha = <q, r>_W / <q, q>_W.  Truncated
(Orthomin(k), minimal-residual) and restarted variants reuse the same
loop with a direction window, which SolveConfig alone selects.  Left
preconditioning is a reduction: it is the right-preconditioned loop on
H A x = H b with the identity as preconditioner.  With a symmetric
positive definite H as the weight, whp_gcr runs the same loop keeping
z = H r (W r, and the next direction) by the recurrence
z <- z - alpha W q, so H is applied once per iteration, not three
times, with any window.  It holds q and W q, which determine
the sources of its directions.  A modified-Gram-Schmidt Arnoldi GMRES
in the same inner product serves as an independent reference
implementation.

Every GCR loop keeps its directions in one blocked store: the images
held for each direction, and its source z_j = H r where the images do
not determine it, are rows of preallocated row-major (capacity, n)
blocks.  A projection against the held directions walks them in panels
of about 1.25 MiB of held images: one matrix-vector product for the
panel's coefficients, then one per held image for its update while the
panel is still in the L2 cache.  A new record is written once, straight
into its row, and projected there.
Only the images are projected.
Neither p_j = z_j - sum_i beta_ji p_i nor x is updated per step: the
store keeps each step's coefficients as a row of a unit lower-triangular
L, with Z = L P, and its step length alpha_j, and a fold forms
x = x_0 + P^T alpha = x_0 + Z^T L^-T alpha in one pass over the sources
(the simpler-GMRES form of Walker & Zhou, Numer. Linear Algebra Appl.
1994; Jiranek, Rozloznik & Gutknecht, SIAM J. Matrix Anal. Appl. 2008,
compare its attainable accuracy with GCR's).  In whp_gcr and in full GCR
with the identity preconditioner (right or left form), each source is
the vector the loop updates by z <- z - alpha u over a held image u
(W q, or q with z = r): there the store keeps no sources, only the
first and the last, and the fold is one pass over u.  So per direction
whp_gcr holds 2 vectors (q, W q), identity-preconditioned full GCR 1
(q) with the Euclidean weight and 2 (q, W q) with another, and every
other loop also the source: 3 (z, q, W q), or 2 (z, q) with the
Euclidean weight.
The loop folds at return and at the end of a GCR(k) cycle, and
Orthomin(k) also before it moves its rows; that fold forms p_j against
the held p.

The GCR loop orthogonalizes by classical Gram-Schmidt with the "twice is
enough" norm test: a second pass runs only when the first one cancelled
the image A z, that is when ||q||_W < eta ||A z||_W, two norms the loop
has anyway (Daniel, Gragg, Kaufman & Stewart, Math. Comp. 1976; Giraud,
Langou, Rozloznik & van den Eshof, Numer. Math. 2005).  With eta = 1/2 a
step without the pass lost at most one bit to cancellation, and a step
with it is orthogonal to working precision unless its image is
numerically dependent on the held ones.  The coefficients of a pass
are all taken against the vector it starts from, whatever the panels;
only the summation order of the update depends on them.  A step without
cancellation fetches each held image row from memory once, the rows of
the coefficient block once more from cache (twice from memory where the
rows are too long for panels); p and x are formed once, at a fold.

Every GCR loop applies one breakdown rule (_degenerate), and a breakdown
ends the solve with status "breakdown".  gmres_arnoldi_oracle does not
break down where GCR does: it ends in a breakdown only where its Krylov
space holds no solution, where A H is singular on it.  Non-finite data
raises FloatingPointError.  A loop that reads ||r||_H = sqrt(<r, z>) from
a z kept by recurrence ends in a breakdown once <r, z> < 0 shows that z
has drifted from H r, unless ||r||_H, then formed with H, meets the target.

All solvers report per-iteration residual norms in both the weighted and
the Euclidean norm, the iteration coefficients, and breakdown events.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .linalg import LinearOperator, _check_real, aslinearoperator
from .weighting import PreconditionerHandle, WeightOperator

__all__ = [
    "LinearSystem",
    "SolveConfig",
    "BreakdownEvent",
    "IterationTrace",
    "SolveResult",
    "wp_gcr_right",
    "wp_gcr_left",
    "whp_gcr",
    "gmres_arnoldi_oracle",
]

# |gamma| at or below this multiple of ||q||_W ||r||_W counts as a breakdown,
# and so does a projected image q whose norm ||q||_W is at or below this
# multiple of ||A z||_W; relative scaling avoids false positives on badly
# scaled systems.
BREAKDOWN_RTOL = 1e-14

# the second classical Gram-Schmidt pass runs when the first one cancelled
# the image below this fraction of its W-norm: ||q||_W < eta ||A z||_W.
# The DGKS value 1/sqrt(2) fires on about one step in six of full GCR on
# the m=100 CDR problem with H = I, whose ratios lie in 0.59-0.85 and whose
# held images are orthogonal to 1e-15 without the pass; 1/2 fires on none.
_REORTH_ETA = 0.5

# bytes of held rows a Gram-Schmidt panel reads, all its images together,
# below a 2 MiB L2: a panel read for its coefficients is still cached when
# it updates the images.  16 rows of q at n = 9801; of 0.25-4 MiB,
# 1.25-1.5 MiB projected fastest on full GCR with H = I there.  A panel
# holds at least _PANEL_MIN_ROWS rows, else the held rows are one panel:
# a row-major matrix-vector product over fewer rows streams well below
# its rate, and panels of 4 rows (n = 40401) or 1 (n = 159201) projected
# slower than one panel (see CHANGES.md)
_PANEL_BYTES = 1280 << 10
_PANEL_MIN_ROWS = 8

# columns per forward-substitution chunk when Orthomin(k)'s fold turns its
# held sources into p_j: a (held, chunk) slab is read, never (held, n)
_FORWARD_CHUNK = 1024


@dataclass
class LinearSystem:
    """The problem A x = b with an optional initial guess.

    A complex or non-finite entry in the right-hand side or the initial
    guess, or a complex matrix, is rejected with ValueError.
    """

    operator: LinearOperator
    rhs: np.ndarray
    x0: np.ndarray | None = None

    def __post_init__(self):
        self.operator = aslinearoperator(self.operator)
        _check_real(self.rhs, "right-hand side")
        self.rhs = np.asarray(self.rhs, dtype=float)
        if self.rhs.shape != (self.operator.dim,):
            raise ValueError("right-hand side does not match operator dimension")
        if not np.all(np.isfinite(self.rhs)):
            raise ValueError("right-hand side has a non-finite entry")
        if self.x0 is not None:
            _check_real(self.x0, "initial guess")
            self.x0 = np.asarray(self.x0, dtype=float)
            if self.x0.shape != (self.operator.dim,):
                raise ValueError("initial guess does not match operator dimension")
            if not np.all(np.isfinite(self.x0)):
                raise ValueError("initial guess has a non-finite entry")

    @property
    def dim(self) -> int:
        return self.operator.dim

    def initial_guess(self) -> np.ndarray:
        return np.zeros(self.dim) if self.x0 is None else self.x0.copy()


@dataclass
class SolveConfig:
    """Iteration limits, stopping rule and variant selection.

    truncation_window selects Orthomin(k) orthogonalization against the
    last k directions only (0 means the bare minimal-residual iteration),
    restart_period clears the direction set every that many iterations.
    At most one of the two may be set.  These windows are the only way to
    select a GCR variant, and every GCR solver takes them.
    """

    max_iterations: int = 500
    rel_tolerance: float = 1e-6
    restart_period: int | None = None
    truncation_window: int | None = None
    stopping_norm: str = "weighted"

    def __post_init__(self):
        if self.restart_period is not None and self.truncation_window is not None:
            raise ValueError("restart_period and truncation_window are mutually exclusive")
        # the direction store sizes its rows from these: integers (numpy's
        # too), not bool, float or NaN
        for name, least in (("max_iterations", 0), ("restart_period", 1),
                            ("truncation_window", 0)):
            value = getattr(self, name)
            if value is None and name != "max_iterations":
                continue
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}")
        if not (math.isfinite(self.rel_tolerance) and self.rel_tolerance > 0.0):
            raise ValueError("rel_tolerance must be positive and finite")
        if self.stopping_norm not in ("weighted", "euclidean"):
            raise ValueError(f"unknown stopping norm {self.stopping_norm!r}")


@dataclass
class BreakdownEvent:
    """The breakdown that ended a solve and the value that failed its test:
    gamma = <q, r>_W (0 for a degenerate direction), or a negative <r, z>
    where z, kept by recurrence, has drifted from H r; for
    gmres_arnoldi_oracle, the Givens diagonal of the step."""

    iteration: int
    gamma_value: float


@dataclass
class IterationTrace:
    """Per-iteration record of a solve.

    residual_norm_* start with the initial residual, so they are one
    longer than the coefficient lists.  beta_rows[i]/phi_rows[i] are the
    orthogonalization coefficients that built the direction used at
    iteration i, as the float64 arrays the loop made for that step and
    no later step writes into (empty for the first direction of a cycle).
    reorthogonalized lists the iterations whose direction took a second
    Gram-Schmidt pass, in order; it stays empty unless a first pass
    cancelled most of an image.
    """

    residual_norm_weighted: list = field(default_factory=list)
    residual_norm_euclidean: list = field(default_factory=list)
    alpha: list = field(default_factory=list)
    gamma: list = field(default_factory=list)
    delta: list = field(default_factory=list)
    beta_rows: list = field(default_factory=list)
    phi_rows: list = field(default_factory=list)
    az_norm_weighted: list = field(default_factory=list)
    reorthogonalized: list = field(default_factory=list)
    restart_markers: list = field(default_factory=list)
    breakdown: BreakdownEvent | None = None
    status: str = "max_iter"


@dataclass
class SolveResult:
    """Outcome of a solve.

    q_directions are the images A p_j (H A p_j for the left form) of the
    directions the solver held when it stopped, oldest first, as row
    views of its direction store: every direction for full GCR and the
    whp family, at most the last k for Orthomin(k) and at most the
    current cycle for GCR(k), none for the minimal-residual iteration.
    The directions p_j themselves are not an output: the loop forms them
    only inside a fold, if at all (see _Directions).
    """

    x: np.ndarray
    trace: IterationTrace
    iterations: int
    q_directions: list = field(default_factory=list)

    @property
    def status(self) -> str:
        return self.trace.status


class _Stopping:
    """The stopping rule: a residual norm below rel_tolerance times that
    norm of b.  An exactly zero residual meets any target, so b = 0 with
    x0 = 0 converges at iteration 0.  With b = 0 and a nonzero x0 the
    target is 0, which only an exactly zero residual meets, so such a
    solve runs to the iteration limit or a breakdown."""

    def __init__(self, cfg: SolveConfig, b_norm_weighted: float, b_norm_euclidean: float):
        self.norm = cfg.stopping_norm
        self.target = cfg.rel_tolerance * (
            b_norm_weighted if cfg.stopping_norm == "weighted" else b_norm_euclidean
        )

    def done(self, rw: float, r2: float) -> bool:
        return r2 == 0.0 or (rw if self.norm == "weighted" else r2) < self.target


class _Directions:
    """The held search directions of a GCR loop, and the iterate they build.

    ``rows`` has shape (capacity, kinds, n).  Row j is the record of one
    direction: its source z_j (the vector it was built from, H r) when
    the store keeps sources, then the images the solver keeps beside it
    (q_j = A p_j, its weighted image, or both).  ``rows[:, i]`` is the
    (capacity, n) block of kind i, row-major with a row stride of
    kinds * n, which BLAS takes as it is.  Keeping a record contiguous
    means a solve touches one growing prefix of the array, not one per
    kind, so transparent huge pages round up one region only.  The
    projection coefficients are taken against the last block, and the
    first image block is what SolveResult reports as q_directions.  Rows
    lo:hi are held, oldest first; every read of a block goes through
    ``block``, whose kind counts the source block; ``held`` counts the
    images only.

    A loop whose sources follow from its held images keeps no source
    block (``recurrence`` names the image u that implies them; the
    choice is _recurrence_image's).  Such a loop takes each source from
    one vector it updates by a recurrence over the held images, z <- z -
    alpha_j u_j: whp_gcr keeps z = H r that way with u = W q, and a loop
    with the identity preconditioner takes r itself, r <- r - alpha_j q_j.
    So the store keeps one of them, the last it recorded, ``end``, from
    which the fold writes them out (_fold_images).

    Only the images are projected.  The direction p_j = z_j - sum_i
    beta_ji p_i is not formed when it is taken: row j of the unit
    lower-triangular ``coefficients`` L keeps its beta_j (both
    Gram-Schmidt passes, zero left of its window), so Z = L P, and
    ``alpha`` keeps its step length.  The steps reach ``x`` in a fold.
    At the end of a solve or of a GCR(k) cycle, while every row still
    holds its source, the fold is one pass over the sources: x += y^T Z
    with L^T y = alpha (the x = x_0 + Z U^-1 alpha form of Walker & Zhou's
    simpler GMRES, Numer. Linear Algebra Appl. 1994), and without a
    source block one pass over u with the z_j written out (_fold_images).
    Orthomin(k) folds before it moves its rows, and keeps its sources:
    that fold turns the unfolded sources into p_j, one row at a time, and
    adds alpha_j p_j.  Rows 0:folded hold p_j and have their step in x,
    the others hold z_j; the one-pass fold leaves folded as it is.

    Full GCR holds every direction.  Orthomin(k) holds the last k in 2k
    rows and, when a new record finds them full, first moves the newest k
    to the front.  GCR(k) holds at most k and is cleared at the end of
    each cycle.  The minimal-residual iteration (k = 0) holds nothing: its
    one row takes each record and is folded when the next one comes.
    The blocks are allocated once with np.empty; rows never written cost
    no resident memory.  ``coefficients`` grows with the held rows, so it
    costs O(held^2) doubles whatever max_iterations is.

    A new record is written once, into row hi (``record``), and built
    there: its images are projected once (project), and a second time
    only when the first pass cancelled most of the image
    (reorthogonalize); that decision reads two norms the loop has, not
    the held rows.  ``append`` then holds it, or the next record
    overwrites it.  Both passes are the one kernel, project: it walks
    rows lo:hi in panels of about _PANEL_BYTES of image rows, each read
    for its coefficients and then, from cache, with each image block's
    rows for the update, so a pass fetches every held row from memory
    once.  Rows too long for _PANEL_MIN_ROWS of them to fit are one
    panel.
    """

    def __init__(self, x: np.ndarray, images: int, cfg: SolveConfig,
                 recurrence: int | None = None):
        self.x = x
        self.window = cfg.truncation_window
        self.period = cfg.restart_period
        if self.period is not None:
            capacity = self.period
        elif self.window is not None:
            capacity = max(2 * self.window, 1)
        else:
            capacity = cfg.max_iterations
        capacity = min(capacity, cfg.max_iterations)
        self.recurrence = recurrence
        self.first = int(recurrence is None)  # the kind of the first image
        self.rows = np.empty((capacity, self.first + images, len(x)))
        self.delta = np.empty(capacity)
        self.alpha = np.empty(capacity)
        self.coefficients = np.zeros((min(capacity, 64),) * 2)
        self.lo = self.hi = self.folded = 0
        self.end = None  # (row, source) of the last record, without a source block

    def __len__(self) -> int:
        return self.hi - self.lo

    def block(self, kind: int, start: int, stop: int) -> np.ndarray:
        """Rows start:stop of one block (kind 0 is the source block, if any)."""
        return self.rows[start:stop, kind]

    def held(self, image: int) -> np.ndarray:
        """The (held, n) rows of one image block (0 the first, -1 the last)."""
        return self.block(image if image < 0 else self.first + image, self.lo, self.hi)

    def record(self, source: np.ndarray) -> np.ndarray:
        """The (images, n) row the next record's images are written and built
        in.  source is its z; without a source block the store keeps the
        last one, with its row: a vector the loop made, which nothing
        writes into."""
        if self.hi == len(self.rows):  # only a truncation window fills its rows
            self._compact()
        if self.recurrence is None:
            self.rows[self.hi, 0] = source
        else:
            self.end = (self.hi, source)
        return self.rows[self.hi, self.first:]

    def project(self, u: np.ndarray, record: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """One classical Gram-Schmidt step on the new record's images.

        The coefficients are phi_j = <row j of the last block, u> and
        beta_j = phi_j / delta_j; record[i] loses beta_j times row j of
        image block i for each image.  The held rows are taken in panels
        of about _PANEL_BYTES of image rows: a panel's coefficients, then
        its update of each image, while its rows are still cached.
        Every coefficient is taken against u as given, so the caller
        passes a u that the update does not write into.
        """
        phi = np.empty(len(self))
        beta = np.empty(len(self))
        step = _PANEL_BYTES // (len(record) * self.rows.shape[2] * self.rows.itemsize)
        if step < _PANEL_MIN_ROWS:
            step = max(len(self), 1)
        for s in range(self.lo, self.hi, step):
            t = min(s + step, self.hi)
            c = slice(s - self.lo, t - self.lo)
            phi[c] = self.block(-1, s, t) @ u
            beta[c] = phi[c] / self.delta[s:t]
            for image in range(len(record)):
                record[image] -= beta[c] @ self.block(self.first + image, s, t)
        return phi, beta

    def reorthogonalize(self, record: np.ndarray, beta: np.ndarray,
                        az_norm: float) -> tuple[float, np.ndarray, bool]:
        """The "twice is enough" test: a second pass only after cancellation.

        ``record`` is the projected (q, weighted image of q) and az_norm is
        ||A z||_W, the W-norm of the image before projection.  Classical
        Gram-Schmidt leaves q with a component in the held span of about
        eps ||A z||_W / ||q||_W relative (Daniel, Gragg, Kaufman & Stewart
        1976).  When sqrt(delta) = ||q||_W < _REORTH_ETA * az_norm the
        images are projected once more, as a second classical pass
        (project, with the coefficients taken against a copy of the
        first-pass q).  Two passes suffice for an image that is numerically
        independent of the held ones (Giraud, Langou, Rozloznik & van den
        Eshof 2005).  Otherwise nothing is read or touched.  Returns
        delta = <weighted image, q> of the final record, the coefficients
        of both passes summed and whether the second pass ran.
        """
        q, wq = record[0], record[-1]
        delta = float(wq @ q)
        if not (self and delta > 0.0 and np.sqrt(delta) < _REORTH_ETA * az_norm):
            return delta, beta, False
        extra = self.project(q.copy(), record)[1]
        return float(wq @ q), beta + extra, True

    def append(self, delta: float, alpha: float, beta: np.ndarray):
        """Hold the record built in row hi, taken with step length alpha and
        projected with the coefficients beta against the held rows."""
        if self.hi == len(self.coefficients):
            grown = np.zeros((min(2 * self.hi, len(self.rows)),) * 2)
            grown[:self.hi, :self.hi] = self.coefficients
            self.coefficients = grown
        self.coefficients[self.hi, :self.lo] = 0.0
        self.coefficients[self.hi, self.lo:self.hi] = beta
        self.delta[self.hi] = delta
        self.alpha[self.hi] = alpha
        self.hi += 1
        if self.window is not None:
            self.lo = max(self.lo, self.hi - self.window)

    def _compact(self):
        """Make room in a full window for the next record: fold every row,
        then move the newest k to the front.  They are its whole window,
        in the same order, so the record is projected and later folded
        against the same p_j as if it followed them in place."""
        self.fold()
        keep = self.window
        self.rows[:keep] = self.rows[self.hi - keep:self.hi]
        self.delta[:keep] = self.delta[self.hi - keep:self.hi]
        self.lo, self.hi = 0, keep
        self.folded = keep

    def fold(self):
        """Turn each unfolded source into p_j = z_j - sum_i beta_ji p_i over
        the window of row j, run over column chunks so that each chunk is
        read from cache, and add alpha_j p_j to x, in the order the steps
        were taken (a store with a source block only)."""
        first = max(self.folded, 1)  # p_0 is z_0
        if first < self.hi:
            sources = self.block(0, 0, self.hi)
            for c in range(0, sources.shape[1], _FORWARD_CHUNK):
                chunk = sources[:, c:c + _FORWARD_CHUNK]
                for j in range(first, self.hi):
                    start = max(j - self.window, 0) if self.window else 0
                    chunk[j] -= self.coefficients[j, start:j] @ chunk[start:j]
        for j in range(self.folded, self.hi):
            self.x += self.alpha[j] * self.rows[j, 0]
        self.folded = self.hi

    def _fold_all(self):
        """Fold every step into x at the end of a solve or of a cycle: in one
        pass over the sources (or over u) while no step is in x, else row
        by row."""
        if self.folded:
            self.fold()
            return
        k = self.hi
        if k:
            y = scipy.linalg.solve_triangular(self.coefficients[:k, :k], self.alpha[:k],
                                              trans="T", lower=True, unit_diagonal=True,
                                              check_finite=False)
            if self.recurrence is None:
                self.x += y @ self.block(0, 0, k)
            else:
                self._fold_images(y)

    def _fold_images(self, y: np.ndarray):
        """x += sum_j y_j z_j over rows 0:k, with each z_j written out back
        from the last source the loop recorded, z_e (e = k - 1, or k when
        the solve ended on a record it did not hold): z_j = z_e +
        sum_{j<=i<e} alpha_i u_i.  So z_e takes sum_j y_j and u_i takes
        alpha_i times the y_j up to it.  The terms are of the size of
        the residuals they replace, which shrink toward z_e; written out
        forward from the first source, as the image basis [r_0, A P] of
        Walker & Zhou's simpler GMRES, they grow like ||r_0|| / ||r_k||
        (Jiranek, Rozloznik & Gutknecht 2008) and x loses digits."""
        e, end = self.end
        earlier = np.cumsum(y)
        self.x += (self.alpha[:e] * earlier[:e]) @ self.held(self.recurrence)[:e]
        self.x += earlier[-1] * end

    def end_iteration(self, done: int, trace: IterationTrace):
        """Fold the steps and clear the held directions when a restart
        cycle ends."""
        if self.period is not None and done % self.period == 0:
            trace.restart_markers.append(done)
            self._fold_all()
            self.lo = self.hi = self.folded = 0

    def result(self, trace: IterationTrace) -> SolveResult:
        self._fold_all()
        return SolveResult(self.x, trace, len(trace.alpha), list(self.held(0)))


def _clamped_sqrt(value: float) -> float:
    return float(np.sqrt(max(value, 0.0)))


def _start(trace: IterationTrace, rw: float, r2: float, stop: _Stopping) -> bool:
    """Record the initial residual; True when it already meets the target."""
    trace.residual_norm_weighted.append(rw)
    trace.residual_norm_euclidean.append(r2)
    if stop.done(rw, r2):
        trace.status = "converged"
        return True
    return False


def _record(trace: IterationTrace, alpha: float, gamma: float, delta: float,
            beta: np.ndarray, phi: np.ndarray, rw: float, r2: float, az_norm: float):
    """Append one iteration's step to the trace."""
    trace.alpha.append(alpha)
    trace.gamma.append(gamma)
    trace.delta.append(delta)
    trace.beta_rows.append(beta)
    trace.phi_rows.append(phi)
    trace.az_norm_weighted.append(az_norm)
    trace.residual_norm_weighted.append(rw)
    trace.residual_norm_euclidean.append(r2)


def _degenerate(delta: float, az_norm: float, iteration: int) -> bool:
    """The breakdown rule of every GCR loop for a projected image q: a
    non-finite delta = <q, q>_W (non-finite data in A, H or W) raises;
    delta <= 0 or sqrt(delta) <= BREAKDOWN_RTOL ||A z||_W is degenerate."""
    if not np.isfinite(delta):
        raise FloatingPointError(f"non-finite <q, q>_W = {delta} at iteration {iteration}")
    return delta <= 0.0 or np.sqrt(delta) <= BREAKDOWN_RTOL * az_norm


def _recurrence_norm(r: np.ndarray, z: np.ndarray, apply_h) -> tuple[float, float]:
    """(||r||_H, <r, z>) for z = H r kept by recurrence; once z has drifted
    so far that <r, z> < 0, the norm is formed with one more H apply."""
    rz = float(z @ r)
    return (float(np.sqrt(rz)) if rz >= 0.0 else _clamped_sqrt(float(apply_h(r) @ r))), rz


def _drifted(trace: IterationTrace, iteration: int, rz: float) -> bool:
    """True, with the solve ended in a breakdown, when <r, z> < 0."""
    if rz < 0.0:
        trace.breakdown = BreakdownEvent(iteration, rz)
        trace.status = "breakdown"
    return rz < 0.0


def wp_gcr_right(system: LinearSystem, h: PreconditionerHandle, w: WeightOperator,
                 cfg: SolveConfig) -> SolveResult:
    """Right-preconditioned GCR in the W-inner product.

    Each iteration preconditions the residual, z = H r, and appends the
    direction p = z (image q = A z) orthogonalized in <.,.>_W against the
    currently held directions: all of them for the full method, the last
    k for Orthomin(k), none for the minimal-residual iteration, and the
    current cycle for the restarted variant.  The residual norm
    ||r_i||_W is then minimal over x0 + span of the directions taken.

    An iteration with <q, r>_W = 0 but a nonzero residual cannot make
    progress (an unlucky breakdown, possible where 0 lies in the numerical
    range of A H in <.,.>_W): the solve then ends with status "breakdown"
    and its BreakdownEvent, with x built from the steps taken.
    gmres_arnoldi_oracle does not break down there.  Non-finite data raises FloatingPointError.
    """
    return _gcr(system, h, w, cfg)


def _gcr(system: LinearSystem, h: PreconditionerHandle, w: WeightOperator, cfg: SolveConfig,
         *, w_is_h: bool = False) -> SolveResult:
    """The GCR loop of wp_gcr_right, and of whp_gcr with w_is_h: W is then
    H; z = W r, kept by the recurrence z <- z - alpha W q, is W r for
    ||r||_W and the next direction.

    The direction store keeps q and W q beside each direction, and the
    sources too unless _recurrence_image finds that the held images imply
    them.
    """
    a = system.operator
    b = system.rhs
    x = system.initial_guess()
    trace = IterationTrace()
    stop = _Stopping(cfg, *_norms(w, b))

    r = b - a.apply(x)
    z = w.apply(r) if w_is_h else None  # H r, kept by recurrence from here on
    if w_is_h:
        rw, r2 = _clamped_sqrt(float(z @ r)), float(np.linalg.norm(r))
    else:
        rw, r2 = _norms(w, r)
    if _start(trace, rw, r2, stop):
        return SolveResult(x, trace, 0)

    # records hold q and W q; for the Euclidean weight W q is q and not
    # kept twice
    store = _Directions(x, 1 + (not w.is_identity), cfg,  # owns x from here on
                        _recurrence_image(h, cfg, w_is_h))
    # H r; for the identity r itself, with no copy: the loop rebinds r,
    # never writes into it
    precondition = (lambda r: r) if h.is_identity else h.apply
    v = z if w_is_h else precondition(r)  # source vector for the next direction

    for i in range(cfg.max_iterations):
        az = a.apply(v)
        waz = az if w.is_identity else w.apply(az)
        az_norm = _clamped_sqrt(float(waz @ az))
        record = store.record(v)
        record[0] = az
        if not w.is_identity:
            record[-1] = waz
        q, wq = record[0], record[-1]
        phi, beta = store.project(az, record)
        delta, beta, twice = store.reorthogonalize(record, beta, az_norm)
        if twice:
            trace.reorthogonalized.append(i)

        degenerate = _degenerate(delta, az_norm, i)
        gamma = float(wq @ r) if not degenerate else 0.0
        if degenerate or abs(gamma) <= BREAKDOWN_RTOL * np.sqrt(max(delta, 0.0)) * rw:
            trace.breakdown = BreakdownEvent(iteration=i, gamma_value=gamma)
            trace.status = "breakdown"
            return store.result(trace)

        alpha = gamma / delta
        store.append(delta, alpha, beta)
        r = r - alpha * q
        if w_is_h:
            z = z - alpha * wq
            rw, rz = _recurrence_norm(r, z, w.apply)
            r2 = float(np.linalg.norm(r))
        else:
            rw, r2 = _norms(w, r)
        _record(trace, alpha, gamma, delta, beta, phi, rw, r2, az_norm)
        if stop.done(rw, r2):
            trace.status = "converged"
            return store.result(trace)
        if w_is_h and _drifted(trace, i, rz):
            return store.result(trace)
        store.end_iteration(i + 1, trace)
        v = z if w_is_h else precondition(r)

    trace.status = "max_iter"
    return store.result(trace)


def _recurrence_image(h: PreconditionerHandle, cfg: SolveConfig, w_is_h: bool) -> int | None:
    """The held image u that implies every source of a _gcr loop, or None
    when the store must keep them.  whp_gcr takes its sources from
    z <- z - alpha W q (u = W q, the last image); with the identity
    preconditioner the source H r is r itself, r <- r - alpha q (u = q,
    the first).  Only a loop that runs one cycle has one recurrence start.
    A loop with a window moves and drops its rows and keeps its sources,
    as does a general H."""
    if cfg.restart_period is not None or cfg.truncation_window is not None:
        return None
    if w_is_h:
        return -1
    return 0 if h.is_identity else None


def _norms(w: WeightOperator, x: np.ndarray) -> tuple[float, float]:
    """(||x||_W, ||x||_2), with one 2-norm for the Euclidean weight."""
    x2 = float(np.linalg.norm(x))
    return (x2 if w.is_identity else _clamped_sqrt(float(w.apply(x) @ x))), x2


def wp_gcr_left(system: LinearSystem, h: PreconditionerHandle, w: WeightOperator,
                cfg: SolveConfig) -> SolveResult:
    """Left-preconditioned GCR in the W-inner product.

    Solves H A x = H b; the tracked quantity is the preconditioned
    residual z = H(b - A x), whose W-norm is minimized over the search
    space and recorded as the weighted residual norm.  The Euclidean
    column of the trace likewise reports ||z||_2, since the plain
    residual never appears in this data flow.  Stopping compares
    against the corresponding norm of H b.

    This is wp_gcr_right on the system (H A) x = H b with the identity
    preconditioner, and it breaks down where the numerical range of H A
    holds 0.  H is applied twice and A once before the loop, and each
    once per iteration; q_directions holds H A p_j.

    W = H is not the paper's pairing for this form.  The numerical range
    of H A in the H inner product is that of sym(H H A) against H, and it
    can hold 0 ([-3.62, 5.86] on the reference problem at m = 20 with
    two-level 2 x 2 Schwarz), so a windowed run can stall and end in
    "breakdown" where wp_gcr_right with W = H converges.  The matching
    pairing is W = H^-1: <H A p_i, H A p_j>_{H^-1} = (A p_i)^T H (A p_j),
    so left GCR in W = H^-1 is right GCR in W = H (and whp_gcr), window
    for window.
    """
    a = system.operator
    left = LinearSystem(LinearOperator(system.dim, lambda v: h.apply(a.apply(v))),
                        h.apply(system.rhs), system.x0)
    return wp_gcr_right(left, PreconditionerHandle.identity(system.dim), w, cfg)


def whp_gcr(system: LinearSystem, h: PreconditionerHandle, cfg: SolveConfig) -> SolveResult:
    """GCR with an SPD preconditioner H used as the inner-product weight.

    The loop of wp_gcr_right(h, w=H), with its iterates, arranged so that
    H is applied once per iteration: the preconditioned residual z = H r
    is kept by the same recurrence as r, z <- z - alpha H q, with H q
    stored beside each direction, and gives ||r||_H = sqrt(<r, z>).  H is
    applied iterations + 2 times in all (twice before the loop, for
    ||b||_H and H r_0), and once more only when z has drifted so far from
    H r that <r, z> < 0.  A truncation window or a restart period in cfg
    runs the same loop, still with one H apply per iteration, holding the
    sources as wp_gcr_right does with that window.
    NotHermitianPreconditionerError unless h is marked SPD.
    """
    return _gcr(system, h, h.as_weight(), cfg, w_is_h=True)


def gmres_arnoldi_oracle(system: LinearSystem, h: PreconditionerHandle, w: WeightOperator,
                         cfg: SolveConfig) -> SolveResult:
    """Right-preconditioned GMRES via Arnoldi in the W-inner product.

    Modified Gram-Schmidt Arnoldi on the map v -> A H v with the basis
    kept W-orthonormal, least squares by Givens rotations.  Serves as an
    independent reference: its weighted residual norms equal those of the
    full GCR iteration whenever the latter does not break down.  It ends
    in a breakdown only where its Krylov space holds no solution: at a
    Givens diagonal at or below BREAKDOWN_RTOL times its Hessenberg
    column (A H singular on the space; x takes the steps before it), or
    at a vanishing Arnoldi extension (happy breakdown) whose formed
    residual misses the target, which is otherwise convergence.

    The coefficient lists of the trace stay empty; only residual norms
    are recorded.  x is formed at the end of a cycle, so H is applied
    iterations + 1 times in a solve of one cycle.  The Euclidean norm of
    step j comes from the Arnoldi relation instead (of a happy step, from
    the formed residual): r_j = g_j V u_j, with V the basis v_0 ... v_j,
    g_j the last entry of the rotated right-hand side and u_j the last
    column of the transposed rotations.  The W-unit vector V u_j follows
    the j-th rotation (c_j, s_j) as c_j v_j - s_j V u_{j-1}, one vector
    update per step.  For W = I it is a unit vector, so the 2-norm is
    |g_j|.  Where these recurrence norms meet the target and the formed
    residual does not, as near the attainable accuracy, the solve
    restarts from the formed x.
    """
    if cfg.truncation_window is not None:
        raise ValueError("gmres_arnoldi_oracle does not support truncated orthogonalization")
    a = system.operator
    b = system.rhs
    x = system.initial_guess()
    trace = IterationTrace()
    stop = _Stopping(cfg, *_norms(w, b))
    restart = cfg.restart_period or cfg.max_iterations
    total_iters = 0

    r = b - a.apply(x)
    rw, r2 = _norms(w, r)
    if _start(trace, rw, r2, stop):
        return SolveResult(x, trace, 0)

    while total_iters < cfg.max_iterations:
        cycle = min(restart, cfg.max_iterations - total_iters)
        wr = w.apply(r)
        beta = _clamped_sqrt(float(wr @ r))
        basis = [r / beta]
        wbasis = [wr / beta]
        hess = np.zeros((cycle + 1, cycle))
        cs = np.zeros(cycle)
        sn = np.zeros(cycle)
        g = np.zeros(cycle + 1)
        g[0] = beta
        unit = basis[0]  # V u of the Arnoldi relation above
        steps = 0  # columns of this cycle that x takes
        happy = False
        for j in range(cycle):
            u = a.apply(h.apply(basis[j]))
            for i in range(j + 1):
                hess[i, j] = float(wbasis[i] @ u)
                u -= hess[i, j] * basis[i]
            wu = w.apply(u)
            hnorm = _clamped_sqrt(float(wu @ u))
            hess[j + 1, j] = hnorm
            column = abs(hess[: j + 2, j]).max()
            for i in range(j):
                t = hess[i, j]
                hess[i, j] = cs[i] * t + sn[i] * hess[i + 1, j]
                hess[i + 1, j] = -sn[i] * t + cs[i] * hess[i + 1, j]
            d = float(np.hypot(hess[j, j], hess[j + 1, j]))
            if d <= BREAKDOWN_RTOL * column:  # A H is singular on the Krylov space
                trace.breakdown = BreakdownEvent(iteration=total_iters, gamma_value=d)
                break
            happy = hnorm <= BREAKDOWN_RTOL * column
            if not happy:
                basis.append(u / hnorm)
                wbasis.append(wu / hnorm)
            cs[j] = hess[j, j] / d
            sn[j] = hess[j + 1, j] / d
            hess[j, j] = d
            hess[j + 1, j] = 0.0
            g[j + 1] = -sn[j] * g[j]
            g[j] = cs[j] * g[j]
            rw = abs(float(g[j + 1]))
            total_iters += 1
            steps = j + 1
            trace.residual_norm_weighted.append(rw)
            if happy:  # its Euclidean norm is that of the residual formed below
                break
            if w.is_identity:
                r2 = rw
            else:
                unit = cs[j] * basis[j + 1] - sn[j] * unit
                r2 = rw * float(np.linalg.norm(unit))
            trace.residual_norm_euclidean.append(r2)
            if stop.done(rw, r2) or total_iters >= cfg.max_iterations:
                break

        if steps:
            y = scipy.linalg.solve_triangular(hess[:steps, :steps], g[:steps], lower=False)
            x = x + h.apply(np.column_stack(basis[:steps]) @ y)
            r = b - a.apply(x)
        rw_true, r2 = _norms(w, r)
        if happy:
            trace.residual_norm_euclidean.append(r2)
            if not stop.done(rw_true, r2):  # an invariant space without a solution
                trace.breakdown = BreakdownEvent(iteration=total_iters - 1, gamma_value=d)
        if trace.breakdown is not None:
            trace.status = "breakdown"
            return SolveResult(x, trace, total_iters)
        if stop.done(rw_true, r2):
            trace.status = "converged"
            return SolveResult(x, trace, total_iters)
        # a cycle that ended early stopped on a recurrence norm the formed
        # residual misses: restart from the formed x
        if total_iters < cfg.max_iterations:
            trace.restart_markers.append(total_iters)
            continue
        break

    trace.status = "max_iter"
    return SolveResult(x, trace, total_iters)
