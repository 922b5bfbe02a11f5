"""The benchmark's workloads: seeded inputs and the timed operations.

A workload has three parts, all called in a fresh worker process:

  setup(seed)          imports the program and builds the inputs (set-up time)
  run(inputs, ops)     the timed operations; each one records a verdict in `ops`
  outputs are returned by run() and handed, outside the timed section, to the
  workload's independent check in checks.py and to digest().

An operation is one certificate or one numeric check.  An operation that
raises counts as failed, like a false verdict.  The program only ever sees
the generated inputs, never the seed.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

MAIN_ALGEBRAS = ("sym:2", "mat:2", "rpq:2,1", "rpq:2,2")
EXTRACT_PER_ALGEBRA = 20
EXTRACT_DEGREES = (3, 2, 1, 0)  # one monomial of each total degree
GRID_DEGREES = (2, 1, 0)
# grid side per algebra: 3x3 integer powers from the rank up, 2x2 on rpq:2,2,
# whose 3x3 grid alone takes longer than the rest of a round
GRID_SIDE = {"sym:2": 3, "mat:2": 3, "rpq:2,1": 3, "rpq:2,2": 2}

SIGNATURES = ((2, 1), (2, 2), (3, 1))

ZETA_P, ZETA_Q = 2, 1
ZETA_S_RANGE = (-0.9, -0.6)
ZETA_S_PER_SHAPE = 4
ZETA_WIDTHS = (Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(3, 2), Fraction(2))
ZETA_TOL = 1e-4
FLIP_TOL = 1e-12
FLIP_SAMPLES = 50
EUCLIDEAN_CASES = (("b1", 2, 5, 12), ("b2", 2, 7, 16), ("c1", 3, 1, 6), ("c2", 5, 1, 15))

NONZERO = (-3, -2, -1, 1, 2, 3)


class Ops:
    """Verdicts of the operations of one round, in order."""

    def __init__(self):
        self.ids: list[str] = []
        self.failed: list[str] = []

    def attempt(self, op_id: str, fn) -> None:
        self.ids.append(op_id)
        try:
            ok = bool(fn())
        except Exception as exc:  # a raising certificate is a failed operation
            ok = False
            op_id = f"{op_id} ({type(exc).__name__}: {exc})"
        if not ok:
            self.failed.append(op_id)


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed,) + parts))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# main-identity


def shaped_poly(vars, rng: random.Random, degrees):
    """Polynomial with one monomial of each listed total degree (so the term
    count is fixed) on random variables, with nonzero coefficients in +-1..3."""
    from covjord.polynomials import MPoly

    terms = {}
    for deg in degrees:
        mono = [0] * len(vars)
        for _ in range(deg):
            mono[rng.randrange(len(vars))] += 1
        terms[tuple(mono)] = Fraction(rng.choice(NONZERO))
    return MPoly(vars, terms)


def setup_main_identity(seed: int):
    from covjord import jordan as jd
    from covjord.polynomials import double_vars

    inputs = []
    for spec in MAIN_ALGEBRAS:
        alg = jd.algebra_from_spec(spec)
        dvars = double_vars(alg.vars)
        rng = _rng(seed, "main-identity", spec)
        fs = [shaped_poly(dvars, rng, EXTRACT_DEGREES) for _ in range(EXTRACT_PER_ALGEBRA)]
        grid_f = shaped_poly(dvars, rng, GRID_DEGREES)
        grid = list(range(alg.r, alg.r + GRID_SIDE[spec]))
        inputs.append((spec, alg, fs, grid_f, grid))
    return inputs


def run_main_identity(inputs, ops: Ops):
    from covjord import detpower as dp

    actions = {}
    for spec, alg, fs, grid_f, grid in inputs:
        got = actions[spec] = []

        for k, f in enumerate(fs):
            def op(f=f):
                action = dp.extract_Dst(alg, f)
                got.append(action)
                return all(c.total_degree() <= alg.r for c in action.terms.values())

            ops.attempt(f"{spec}-extract-{k:02d}", op)
        ops.attempt(f"{spec}-grid", lambda: dp.dst_grid_check(alg, grid_f, grid, grid))
    return actions


def digest_main_identity(actions) -> str:
    return digest(repr([(spec, [str(a) for a in acts]) for spec, acts in actions.items()]))


# ---------------------------------------------------------------------------
# covariance


def generic_lie_element(basis, rng: random.Random):
    """Combination of every basis element with nonzero coefficients, so that
    every basis direction enters and the cost does not depend on the seed."""
    coeffs = [Fraction(rng.choice(NONZERO)) for _ in basis]
    m = len(basis[0])
    return tuple(
        tuple(sum(c * B[i][j] for c, B in zip(coeffs, basis)) for j in range(m))
        for i in range(m)
    )


def setup_covariance(seed: int):
    from covjord import conformal as cf

    inputs = []
    for p, q in SIGNATURES:
        model = cf.QuadricModel(p, q)
        basis = model.lie_basis()
        generic = generic_lie_element(basis, _rng(seed, "covariance", p, q))
        inputs.append((p, q, model, basis, generic))
    return inputs


def run_covariance(inputs, ops: Ops):
    from covjord import conformal as cf
    from covjord import rpq as rq

    built = []
    for p, q, model, basis, generic in inputs:
        tag = f"rpq{p}{q}"
        F = rq.explicit_F(p, q)
        chain1 = rq.f_chain(p, q, 1)
        chain2 = rq.f_chain(p, q, 2)
        built.append((p, q, model, basis, generic, F, chain1, chain2))
        for idx, X in enumerate(basis):
            ops.attempt(f"{tag}-F-X{idx:02d}",
                        lambda X=X: cf.covariance_residual_F(model, F, X).is_zero())
        for idx, X in enumerate(basis):
            ops.attempt(f"{tag}-B1-X{idx:02d}",
                        lambda X=X: cf.bracket_covariance_residual(model, chain1, X, 2).is_zero())
        ops.attempt(f"{tag}-B2-generic",
                    lambda: cf.bracket_covariance_residual(model, chain2, generic, 4).is_zero())
        dpis = [cf.dpi(model, X).op for X in basis]
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                def lie(i=i, j=j):
                    br = cf.dpi(model, model.bracket(basis[i], basis[j])).op
                    return br == dpis[i].compose(dpis[j]) - dpis[j].compose(dpis[i])

                ops.attempt(f"{tag}-lie-{i:02d}-{j:02d}", lie)
    return built


def digest_covariance(built) -> str:
    return digest(repr([(p, q, str(F), len(c1.terms), len(c2.terms), generic)
                        for p, q, _, _, generic, F, c1, c2 in built]))


# ---------------------------------------------------------------------------
# zeta-quadrature


def _zeta_shapes(rng: random.Random):
    """(name, polynomial factor, width, odd) for test functions of fixed
    shape, so the quadrature work per seed is alike, with seeded widths and
    coefficients.  The odd ones must pair to zero."""
    def c():
        return (Fraction(rng.choice(NONZERO)), Fraction(0))

    def w():
        return rng.choice(ZETA_WIDTHS)

    return [
        ("gauss", {(0, 0, 0): (Fraction(1), Fraction(0))}, w(), False),
        ("even2", {(0, 0, 0): c(), (2, 0, 0): c(), (0, 0, 2): c()}, w(), False),
        ("even4", {(2, 2, 0): c(), (0, 0, 4): c(), (0, 2, 0): c()}, w(), False),
        ("odd1", {(1, 0, 0): c()}, w(), True),
        ("odd3", {(1, 1, 1): c(), (0, 0, 1): c(), (2, 0, 1): c()}, w(), True),
    ]


def setup_zeta(seed: int):
    from covjord import zeta as zt

    rng = _rng(seed, "zeta")
    cases = []
    for name, poly, width, odd in _zeta_shapes(rng):
        g = zt.GaussianTest.make(ZETA_P + ZETA_Q, width, poly)
        for k in range(ZETA_S_PER_SHAPE):
            s = rng.uniform(*ZETA_S_RANGE)
            # the check knows the Fourier transform of the pure gaussian in closed form
            cases.append((f"{name}-{k}", s, g, name == "gauss", odd))
    flips = [rng.uniform(-3.0, 3.0) for _ in range(FLIP_SAMPLES)]
    return cases, flips


def run_zeta(inputs, ops: Ops):
    from covjord import zeta as zt

    cases, flips = inputs
    reports = []
    for case_id, s, g, closed_form, odd in cases:
        def op(s=s, g=g):
            rep = zt.numeric_zeta_check(ZETA_P, ZETA_Q, s, g)
            reports.append((case_id, s, g, closed_form, odd, rep))
            return rep.max_rel_error <= ZETA_TOL and max(rep.gs_residuals.values()) <= ZETA_TOL

        ops.attempt(f"fe-{case_id}", op)

    residuals = {}

    def flip_op(name, fn):
        def op():
            worst = max(fn(s) for s in flips)
            residuals[name] = worst
            return worst <= FLIP_TOL

        ops.attempt(f"flip-{name}", op)

    flip_op("quad", lambda s: zt.flip_residual_quad(ZETA_P, ZETA_Q, s))
    for case, r, d, n in EUCLIDEAN_CASES:
        fe = zt.euclidean_matrices(case, r, d, n)
        residual = zt.flip_residual_pm if case.startswith("b") else zt.flip_residual_eo
        flip_op(case, lambda s, fe=fe, residual=residual: residual(fe, s))
    return reports, residuals


def digest_zeta(outputs) -> str:
    reports, residuals = outputs
    return digest(repr([(cid, sorted(rep.lhs.items()), sorted(rep.rhs.items()))
                        for cid, _, _, _, _, rep in reports] + sorted(residuals.items())))


WORKLOADS = {
    "main-identity": (setup_main_identity, run_main_identity, digest_main_identity),
    "covariance": (setup_covariance, run_covariance, digest_covariance),
    "zeta-quadrature": (setup_zeta, run_zeta, digest_zeta),
}
