import random
from fractions import Fraction

import pytest

from covjord import jordan as J
from covjord.polynomials import MPoly


def stored_form(c) -> bool:
    """The stored form of an exact rational: int, or Fraction when not integral."""
    return type(c) is int or (type(c) is Fraction and c.denominator != 1)


def random_poly(vars, rng: random.Random, max_deg: int, terms: int = 4) -> MPoly:
    out = MPoly.zero(vars)
    for _ in range(terms):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(len(vars))] += 1
        out = out + MPoly.monomial(vars, tuple(mono), Fraction(rng.randint(-3, 3)))
    return out


def diagonal_substitute(f: MPoly, n: int) -> MPoly:
    """y -> x in a polynomial on a doubled chart with n coordinates a slot,
    monomial by monomial: the oracle for weyl.restrict, which folds an
    operator's coefficients on the packed keys of the compose kernel."""
    out: dict = {}
    for m, c in f.terms.items():
        key = tuple(a + b for a, b in zip(m[:n], m[n:])) + (0,) * n
        out[key] = out[key] + c if key in out else c
    return MPoly(f.vars, out)


def generic_element(algebra: J.AlgebraDescriptor) -> J.JordanElement:
    """The element whose coordinates are the algebra's variables."""
    coords = tuple(MPoly.variable(algebra.vars, v) for v in algebra.vars)
    return J.JordanElement(algebra, coords)


class SingularityError(ArithmeticError):
    """Kernel evaluated on the light cone."""


def knapp_stein_kernel(algebra: J.AlgebraDescriptor, lam: float, eps: str,
                       x: J.JordanElement, y: J.JordanElement) -> float:
    """Kernel det(x-y)^(-2n/r + lam, eps) at rational points."""
    dv = J.det(J.sub(x, y))
    if dv == 0:
        raise SingularityError("kernel evaluated on the light cone")
    sigma = -2.0 * algebra.n / algebra.r + float(lam)
    mag = abs(float(dv)) ** sigma
    if eps == "+":
        return mag
    if eps == "-":
        return mag if dv > 0 else -mag
    raise ValueError("epsilon must be '+' or '-'")


@pytest.fixture
def rng():
    return random.Random(12345)
