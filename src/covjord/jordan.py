"""Concrete simple real Jordan algebras with exact rational arithmetic.

Four families carry full arithmetic:

  sym:m    real symmetric m x m matrices
  mat:m    real m x m matrices with the symmetrized product
  hermc:m  complex hermitian m x m matrices as a real vector space
  rpq:p,q  R x R^{n-1} with the quadratic-form product (n = p+q, p,q >= 1)

Every algebra is presented in a chart x1..xn and built from its
multiplication table alone: a family gives a basis with its table (the
matrix families a basis of matrices and a chart map, the table being the
symmetrized matrix product), the unit and the trace functional.  One
product routine multiplies coordinate tuples, rational or polynomial,
through the table.  The generic-minimal-polynomial coefficients a_1..a_r
come from the traces p_k = tr(x^k) of the powers of the generic element
by Newton's identities, k a_k = sum_{i=1..k} (-1)^(i-1) a_(k-i) p_i; a_1
is the trace polynomial and a_r the determinant.  The descriptor carries
the table, unit, trace form (pairing matrix), these polynomials, the
adjugate vector (so inversion and sharp are division by det only), and
the wave polynomial realizing the determinant operator in the algebra's
pairing convention.  The remaining rows of the classification table are
registry metadata without arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

from .fischer import dual_polynomial
from .polynomials import InexactDivisionError, MPoly
from .scalars import G_I, G_ONE, Gaussian, mat_mul, rref

Coords = tuple  # entries are Fraction or MPoly


class AlgebraMismatchError(ValueError):
    """Operands belong to different algebras."""


class UnsupportedKindError(ValueError):
    """Registry row without arithmetic (metadata only) or unknown kind."""


class SingularElementError(ArithmeticError):
    """Inverse of an element with zero determinant."""


class RankDeficiencyError(ArithmeticError):
    """Non-regular element where a regular one is required."""

    def __init__(self, rank: int, needed: int):
        super().__init__(f"element rank {rank} < algebra rank {needed}")
        self.rank = rank
        self.needed = needed


class InternalInconsistencyError(ArithmeticError):
    """An exact division promised by the theory failed."""


# ---------------------------------------------------------------------------
# descriptor


@dataclass(eq=False)
class AlgebraDescriptor:
    key: str
    family: str
    n: int
    r: int
    d: int
    vars: tuple[str, ...]
    unit: tuple[Fraction, ...]
    mult: tuple  # mult[i][j] = coordinate vector of e_i o e_j
    trace_vec: tuple[Fraction, ...]
    pairing: tuple  # Gram matrix of the trace form tr(x o y)
    det_poly: MPoly
    minpoly_coeffs: tuple[MPoly, ...]  # a_1 .. a_r
    adjugate_vec: tuple[MPoly, ...]
    wave_poly: MPoly
    fourier_tau: str  # "2pii" (general kernel) or "i" (quadratic-space kernel)
    euclidean: bool

    def __repr__(self):
        return f"<algebra {self.key}>"


@dataclass(frozen=True)
class JordanElement:
    algebra: AlgebraDescriptor
    coords: Coords

    def __post_init__(self):
        if len(self.coords) != self.algebra.n:
            raise ValueError("coordinate length does not match the algebra dimension")


def element(algebra: AlgebraDescriptor, coords: Sequence) -> JordanElement:
    return JordanElement(algebra, tuple(Fraction(c) if isinstance(c, int) else c for c in coords))


def unit(algebra: AlgebraDescriptor) -> JordanElement:
    return JordanElement(algebra, algebra.unit)


# ---------------------------------------------------------------------------
# construction from a multiplication table


def _product(mult, x: Coords, y: Coords, zero) -> Coords:
    """Coordinates of x o y through the multiplication table.  The entries of
    x and y are all rational or all MPoly, and `zero` is the zero of that type."""
    out = [zero] * len(x)
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = mult[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            prod = xi * yj
            for k, c in enumerate(row[j]):
                if c:
                    out[k] = out[k] + prod * c
    return tuple(out)


def _trace(trace_vec, coords: Coords, zero):
    """tr(x) as the trace functional applied to the coordinates of x."""
    total = zero
    for t, c in zip(trace_vec, coords):
        if t:
            total = total + c * t
    return total


def _algebra(key: str, r: int, d: int, mult, unit_coords, trace_vec, fourier_tau: str,
             euclidean: bool) -> AlgebraDescriptor:
    """Every field of the descriptor from the multiplication table, the unit
    and the trace functional."""
    n = len(mult)
    vars = tuple(f"x{i + 1}" for i in range(n))
    zero = MPoly.zero(vars)
    pairing = tuple(tuple(_trace(trace_vec, e_ij, Fraction(0)) for e_ij in row) for row in mult)
    # generic powers x^0 .. x^r and their traces p_k = tr(x^k)
    x = tuple(MPoly.variable(vars, v) for v in vars)
    powers = [tuple(MPoly.constant(vars, c) for c in unit_coords), x]
    while len(powers) <= r:
        powers.append(_product(mult, x, powers[-1], zero))
    p = [_trace(trace_vec, xk, zero) for xk in powers]
    # Newton's identities: k a_k = sum_{i=1..k} (-1)^(i-1) a_(k-i) p_i, a_0 = 1
    a = [MPoly.constant(vars, 1)]
    for k in range(1, r + 1):
        total = zero
        for i in range(1, k + 1):
            term = a[k - i] * p[i]
            total = total + term if i % 2 else total - term
        a.append(total * Fraction(1, k))
    # adj(x) = sum_{j<r} (-1)^j a_(r-1-j) x^j, so that x o adj(x) = det(x) 1
    adjugate = []
    for i in range(n):
        acc = zero
        for j in range(r):
            term = a[r - 1 - j] * powers[j][i]
            acc = acc - term if j % 2 else acc + term
        adjugate.append(acc)
    det = a[r]
    # the general kernel pairs through the trace form; the quadratic-space
    # kernel ("i") takes the wave operator as det(d) literally
    wave = dual_polynomial(det, pairing) if fourier_tau == "2pii" else det
    return AlgebraDescriptor(
        key=key, family=key.partition(":")[0], n=n, r=r, d=d, vars=vars,
        unit=tuple(unit_coords), mult=mult, trace_vec=tuple(trace_vec), pairing=pairing,
        det_poly=det, minpoly_coeffs=tuple(a[1:]), adjugate_vec=tuple(adjugate), wave_poly=wave,
        fourier_tau=fourier_tau, euclidean=euclidean,
    )


def _matrix(m: int, entries: dict) -> list[list[Gaussian]]:
    """The m x m Gaussian matrix with the given nonzero entries."""
    return [[entries.get((i, j), Gaussian()) for j in range(m)] for i in range(m)]


def _matrix_algebra(key: str, m: int, basis, to_coords, d: int,
                    euclidean: bool) -> AlgebraDescriptor:
    """A Jordan algebra of m x m matrices under the symmetrized product
    (ab + ba)/2, given by a basis over R and the chart map back to coordinates."""
    half = Gaussian(Fraction(1, 2))

    def product(A, B):
        AB, BA = mat_mul(A, B), mat_mul(B, A)
        sym = [[(AB[i][j] + BA[i][j]) * half for j in range(m)] for i in range(m)]
        return tuple(to_coords(sym))

    mult = tuple(tuple(product(A, B) for B in basis) for A in basis)
    unit_coords = to_coords(_matrix(m, {(i, i): G_ONE for i in range(m)}))
    trace_vec = [sum((B[i][i] for i in range(m)), Gaussian()).re for B in basis]
    return _algebra(key, m, d, mult, unit_coords, trace_vec, "2pii", euclidean)


def _sym_index_pairs(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i, m)]


@lru_cache(maxsize=None)
def sym_algebra(m: int) -> AlgebraDescriptor:
    if m < 1:
        raise ValueError("sym:m needs m >= 1")
    pairs = _sym_index_pairs(m)
    basis = [_matrix(m, {(i, j): G_ONE, (j, i): G_ONE}) for (i, j) in pairs]
    return _matrix_algebra(f"sym:{m}", m, basis, lambda M: [M[i][j].re for (i, j) in pairs],
                           d=1, euclidean=True)


@lru_cache(maxsize=None)
def mat_algebra(m: int) -> AlgebraDescriptor:
    if m < 1:
        raise ValueError("mat:m needs m >= 1")
    cells = [(i, j) for i in range(m) for j in range(m)]
    basis = [_matrix(m, {(i, j): G_ONE}) for (i, j) in cells]
    return _matrix_algebra(f"mat:{m}", m, basis, lambda M: [M[i][j].re for (i, j) in cells],
                           d=2, euclidean=False)


@lru_cache(maxsize=None)
def hermc_algebra(m: int) -> AlgebraDescriptor:
    if m < 1:
        raise ValueError("hermc:m needs m >= 1")
    # chart: m diagonal entries, then (re, im) per off-diagonal pair i<j
    offs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    basis = [_matrix(m, {(i, i): G_ONE}) for i in range(m)]
    for (i, j) in offs:
        basis.append(_matrix(m, {(i, j): G_ONE, (j, i): G_ONE}))
        basis.append(_matrix(m, {(i, j): G_I, (j, i): -G_I}))

    def to_coords(M):
        out = [M[i][i].re for i in range(m)]
        for (i, j) in offs:
            out.append(M[i][j].re)
            out.append(M[i][j].im)
        return out

    return _matrix_algebra(f"hermc:{m}", m, basis, to_coords, d=2, euclidean=True)


@lru_cache(maxsize=None)
def rpq_algebra(p: int, q: int) -> AlgebraDescriptor:
    if p < 1 or q < 1:
        raise UnsupportedKindError("rpq:p,q needs p >= 1 and q >= 1 for arithmetic")
    n = p + q
    if n < 3:
        raise ValueError("rpq needs dimension >= 3")
    signs = [Fraction(1)] * p + [Fraction(-1)] * q  # sign of x_i^2 in det

    def product(i: int, j: int) -> tuple[Fraction, ...]:
        out = [Fraction(0)] * n
        if i == 0:
            out[j] = Fraction(1)  # e_1 is the unit
        elif j == 0:
            out[i] = Fraction(1)
        elif i == j:
            out[0] = -signs[i]  # e_i o e_j = -beta(e_i, e_j) e_1
        return tuple(out)

    mult = tuple(tuple(product(i, j) for j in range(n)) for i in range(n))
    unit_coords = [Fraction(1)] + [Fraction(0)] * (n - 1)
    trace_vec = [Fraction(2)] + [Fraction(0)] * (n - 1)
    return _algebra(f"rpq:{p},{q}", 2, n - 2, mult, unit_coords, trace_vec, "i",
                    euclidean=(p == 1))


_FAMILIES = {"sym": sym_algebra, "mat": mat_algebra, "hermc": hermc_algebra}

# chart dimension of each family from its spec parameters
_DIMENSIONS = {
    "sym": lambda m: m * (m + 1) // 2,
    "mat": lambda m: m * m,
    "hermc": lambda m: m * m,
    "rpq": lambda p, q: p + q,
}


def parse_spec(spec: str) -> tuple[str, tuple[int, ...], int]:
    """The family, the parameters and the chart dimension n of an algebra
    spec like sym:3, mat:2, hermc:2, rpq:2,1, read without building the
    algebra."""
    spec = spec.strip().lower()
    if ":" not in spec:
        raise UnsupportedKindError(f"malformed algebra spec {spec!r}")
    kind, _, rest = spec.partition(":")
    if kind in {row.kind for row in registry_rows() if not row.supported}:
        raise UnsupportedKindError(f"{kind} carries registry metadata only; no arithmetic")
    try:
        params = tuple(int(x) for x in rest.split(","))
    except ValueError as exc:
        raise UnsupportedKindError(f"malformed algebra spec {spec!r}") from exc
    dimension = _DIMENSIONS.get(kind)
    if dimension is None:
        raise UnsupportedKindError(f"unknown algebra kind {kind!r}")
    if kind == "rpq" and len(params) != 2:
        raise UnsupportedKindError("rpq needs two parameters, e.g. rpq:2,1")
    if kind != "rpq" and len(params) != 1:
        raise UnsupportedKindError(f"{kind} needs one parameter, e.g. {kind}:2")
    if min(params) < 1:
        raise UnsupportedKindError(f"{spec} needs parameters >= 1")
    return kind, params, dimension(*params)


def algebra_from_spec(spec: str) -> AlgebraDescriptor:
    """Build the algebra of a spec string like sym:3, mat:2, hermc:2, rpq:2,1."""
    kind, params, _ = parse_spec(spec)
    if kind == "rpq":
        return rpq_algebra(*params)
    return _FAMILIES[kind](params[0])


# ---------------------------------------------------------------------------
# registry (classification table, including metadata-only rows)


@dataclass(frozen=True)
class RegistryRow:
    kind: str
    label: str
    n: int
    r: int
    d: int
    e: int
    r_plus: int
    d_plus: int
    supported: bool

    def dimension_identity_holds(self) -> bool:
        return 2 * self.n == 2 * self.r_plus * (self.e + 1) + self.r_plus * (self.r_plus - 1) * self.d


def registry_rows() -> list[RegistryRow]:
    rows: list[RegistryRow] = []
    for m in (1, 2, 3, 4):
        rows.append(RegistryRow("sym", f"Sym({m},R)", m * (m + 1) // 2, m, 1, 0, m, 1, True))
    for m in (2, 3):
        rows.append(RegistryRow("hermc", f"Herm({m},C)", m * m, m, 2, 0, m, 2, True))
        rows.append(RegistryRow("mat", f"Mat({m},R)", m * m, m, 2, 0, m, 1, True))
        rows.append(RegistryRow("hermh", f"Herm({m},H)", m * (2 * m - 1), m, 4, 0, m, 4, False))
        rows.append(RegistryRow("skewr", f"Skew({2*m},R)", m * (2 * m - 1), m, 4, 0, m, 2, False))
    for p, q in ((2, 1), (2, 2), (3, 1), (3, 2), (1, 2), (1, 3)):
        rows.append(RegistryRow("rpq", f"R^({p},{q})", p + q, 2, p + q - 2, 0, 2, q - 1, True))
    for ell in (2, 3):
        rows.append(RegistryRow("symquat", f"Sym({2*ell},R)&Mat({ell},H)", ell * (2 * ell + 1), 2 * ell, 4, 2, ell, 2, False))
    rows.append(RegistryRow("math", "Mat(2,H)", 16, 4, 8, 3, 2, 4, False))
    for m in (2, 3):
        rows.append(RegistryRow("symc", f"Sym({m},C)", m * (m + 1), 2 * m, 2, 1, m, 1, False))
    rows.append(RegistryRow("matc", "Mat(2,C)", 8, 4, 4, 1, 2, 2, False))
    rows.append(RegistryRow("skewc", "Skew(4,C)", 12, 4, 8, 1, 2, 4, False))
    for k in (3, 4):
        rows.append(RegistryRow("ck", f"C^{k}", 2 * k, 4, 2 * (k - 2), 1, 2, k - 2, False))
        rows.append(RegistryRow("rk0", f"R^({k},0)", k, 2, 0, k - 1, 1, 0, False))
    rows.append(RegistryRow("herm3o", "Herm(3,O)", 27, 3, 8, 0, 3, 8, False))
    rows.append(RegistryRow("herm3os", "Herm(3,O_s)", 27, 3, 8, 0, 3, 4, False))
    rows.append(RegistryRow("herm3oc", "Herm(3,O)xC", 54, 6, 16, 1, 3, 8, False))
    return rows


def registry_json() -> list[dict]:
    return [
        {"kind": row.kind, "label": row.label, "n": row.n, "r": row.r, "d": row.d,
         "e": row.e, "r_plus": row.r_plus, "d_plus": row.d_plus, "supported": row.supported}
        for row in registry_rows()
    ]


# ---------------------------------------------------------------------------
# arithmetic


def _check_same(x: JordanElement, y: JordanElement):
    if x.algebra is not y.algebra:
        raise AlgebraMismatchError("elements of different algebras")


def _is_symbolic(x: JordanElement) -> bool:
    return any(isinstance(c, MPoly) for c in x.coords)


def _lift(x: JordanElement) -> Coords:
    """The coordinates of x as polynomials on the algebra's chart."""
    vars = x.algebra.vars
    return tuple(c if isinstance(c, MPoly) else MPoly.constant(vars, c) for c in x.coords)


def jordan_mul(x: JordanElement, y: JordanElement) -> JordanElement:
    _check_same(x, y)
    alg = x.algebra
    if _is_symbolic(x) or _is_symbolic(y):
        return JordanElement(alg, _product(alg.mult, _lift(x), _lift(y), MPoly.zero(alg.vars)))
    return JordanElement(alg, _product(alg.mult, x.coords, y.coords, Fraction(0)))


def add(x: JordanElement, y: JordanElement) -> JordanElement:
    _check_same(x, y)
    return JordanElement(x.algebra, tuple(a + b for a, b in zip(x.coords, y.coords)))


def sub(x: JordanElement, y: JordanElement) -> JordanElement:
    _check_same(x, y)
    return JordanElement(x.algebra, tuple(a - b for a, b in zip(x.coords, y.coords)))


def scale(x: JordanElement, c) -> JordanElement:
    c = Fraction(c) if isinstance(c, int) else c
    return JordanElement(x.algebra, tuple(a * c for a in x.coords))


def power(x: JordanElement, k: int) -> JordanElement:
    out = unit(x.algebra)
    for _ in range(k):
        out = jordan_mul(out, x)
    return out


def L_matrix(x: JordanElement) -> list[list[Fraction]]:
    """Matrix of left multiplication by x in the chart basis: column j is x o e_j."""
    alg = x.algebra
    n = alg.n
    columns = [_product(alg.mult, x.coords, tuple(int(i == j) for i in range(n)), Fraction(0))
               for j in range(n)]
    return [list(row) for row in zip(*columns)]


def quad_rep(x: JordanElement) -> list[list[Fraction]]:
    """P(x) = 2 L(x)^2 - L(x^2) as an exact matrix on the chart."""
    L = L_matrix(x)
    return [[2 * a - b for a, b in zip(row, row2)]
            for row, row2 in zip(mat_mul(L, L), L_matrix(jordan_mul(x, x)))]


def apply_matrix(M: Sequence[Sequence[Fraction]], x: JordanElement) -> JordanElement:
    n = x.algebra.n
    coords = tuple(sum(M[i][j] * x.coords[j] for j in range(n)) for i in range(n))
    return JordanElement(x.algebra, coords)


def trace(x: JordanElement) -> Fraction:
    return _trace(x.algebra.trace_vec, x.coords, Fraction(0))


def det(x: JordanElement) -> Fraction:
    return x.algebra.det_poly.subs_point(x.coords).constant_value()


def minpoly_values(x: JordanElement) -> list[Fraction]:
    """a_1(x) .. a_r(x) from the stored coefficient polynomials."""
    return [p.subs_point(x.coords).constant_value() for p in x.algebra.minpoly_coeffs]


def generic_min_poly(x: JordanElement) -> list[Fraction]:
    """Coefficients a_1..a_r recovered from the power sequence of a regular
    element (independent of the stored coefficient polynomials)."""
    alg = x.algebra
    r, n = alg.r, alg.n
    powers = [unit(alg)]
    for _ in range(r):
        powers.append(jordan_mul(powers[-1], x))
    # x^r = sum c_j x^j: reduce [1, x, ..., x^r] with the powers as columns
    rows, pivots = rref([[p.coords[i] for p in powers] for i in range(n)])
    for col in range(r):
        if col not in pivots:
            raise RankDeficiencyError(col, r)
    if r in pivots:
        raise InternalInconsistencyError("power sequence inconsistent")
    c = [rows[col][r] for col in range(r)]
    return [(-1) ** (j - 1) * c[r - j] for j in range(1, r + 1)]


def inverse(x: JordanElement) -> JordanElement:
    d = det(x)
    if d == 0:
        raise SingularElementError("element has zero determinant")
    adj = [p.subs_point(x.coords).constant_value() for p in x.algebra.adjugate_vec]
    return JordanElement(x.algebra, tuple(a / d for a in adj))


def sharp(algebra: AlgebraDescriptor, p: MPoly, k: int) -> MPoly:
    """det(x)^k p(x^{-1}) as a polynomial, built through the adjugate."""
    if not algebra.euclidean:
        raise UnsupportedKindError("sharp lives on euclidean algebras")
    if not p.is_homogeneous() or p.total_degree() != k:
        raise ValueError("sharp needs p homogeneous of the stated degree")
    if k == 0:
        return algebra.det_poly.scale(p.constant_coeff())
    composed = p.compose(list(algebra.adjugate_vec))
    if k == 1:
        return composed
    try:
        return composed.exact_div(algebra.det_poly ** (k - 1))
    except InexactDivisionError as exc:
        raise InternalInconsistencyError(
            "sharp division not exact (input outside the determinant derivative space?)"
        ) from exc


# ---------------------------------------------------------------------------
# sampling


def random_element(algebra: AlgebraDescriptor, rng: random.Random, bound: int = 4) -> JordanElement:
    return JordanElement(
        algebra, tuple(Fraction(rng.randint(-bound, bound)) for _ in range(algebra.n))
    )


_SAMPLE_RETRIES = 200


def random_regular(algebra: AlgebraDescriptor, rng: random.Random) -> JordanElement:
    """Regular invertible element by rejection (regular elements are dense)."""
    for _ in range(_SAMPLE_RETRIES):
        x = random_element(algebra, rng)
        if det(x) == 0:
            continue
        try:
            generic_min_poly(x)
        except RankDeficiencyError:
            continue
        return x
    raise RuntimeError("no regular element found (retries exhausted)")


def random_invertible(algebra: AlgebraDescriptor, rng: random.Random) -> JordanElement:
    for _ in range(_SAMPLE_RETRIES):
        x = random_element(algebra, rng)
        if det(x) != 0:
            return x
    raise RuntimeError("no invertible element found (retries exhausted)")
