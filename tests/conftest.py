import dataclasses

import numpy as np
import pytest

from wpkrylov import cdr, solvers


def make_spd(rng, n, shift=1.0):
    g = rng.standard_normal((n, n))
    return g @ g.T / n + shift * np.eye(n)


def make_pd_system(seed, n=20, skew_scale=0.3, spd_shift=2.0):
    """Well-conditioned test system: A with SPD symmetric part, SPD H, rhs.

    Sized so the solvers converge at 1e-6 well before the exact-termination
    step, keeping residual comparisons clear of the round-off floor.
    """
    rng = np.random.default_rng(seed)
    sym = make_spd(rng, n, shift=spd_shift)
    skew = rng.standard_normal((n, n))
    skew = 0.5 * (skew - skew.T)
    a = sym + skew_scale * np.linalg.norm(sym, 2) * skew / np.linalg.norm(skew, 2)
    h = make_spd(rng, n, shift=1.0)
    b = rng.standard_normal(n)
    return a, h, b


def assert_x_has_the_recorded_residual(a, b, res):
    """The fold delivers the x of the steps taken: ||b - A x|| is the last
    Euclidean residual the loop recorded, to 1e-12 ||b||, the attainable
    accuracy of small dense systems (their gaps stay below 1e-15)."""
    recorded = res.trace.residual_norm_euclidean[-1]
    assert abs(np.linalg.norm(b - a @ res.x) - recorded) <= 1e-12 * np.linalg.norm(b)


def iterates(solve, cfg, count):
    """x after each of the first count steps of solve(cfg), x0 first: step
    k's x is that of the same solve run with max_iterations = k.  The
    steps are those of the full run; the fold sums them in another order,
    so compare with a tolerance."""
    return [solve(dataclasses.replace(cfg, max_iterations=k)).x for k in range(count + 1)]


def paired_iterates(solve, other, cfg):
    """(x of solve, x of other) after each step that both take, x0 first."""
    count = min(solve(cfg).iterations, other(cfg).iterations)
    return zip(iterates(solve, cfg, count), iterates(other, cfg, count))


@pytest.fixture
def stores(monkeypatch):
    """Every direction store the GCR loops build from here on, in order."""
    built = []

    class Spied(solvers._Directions):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(solvers, "_Directions", Spied)
    return built


_CDR_CACHE = {}


@pytest.fixture(scope="session")
def cdr_assembled():
    """Memoized assembly of the reference problem at (m, nu, c0)."""

    def build(m, nu=1.0, c0=1.0):
        key = (m, nu, c0)
        if key not in _CDR_CACHE:
            _CDR_CACHE[key] = cdr.assemble(
                cdr.reference_problem(nu=nu, c0=c0, mesh_divisions=m)
            )
        return _CDR_CACHE[key]

    return build
