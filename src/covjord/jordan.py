"""Concrete simple real Jordan algebras with exact rational arithmetic.

Four families carry full arithmetic:

  sym:m    real symmetric m x m matrices
  mat:m    real m x m matrices with the symmetrized product
  hermc:m  complex hermitian m x m matrices as a real vector space
  rpq:p,q  R x R^{n-1} with the quadratic-form product (n = p+q, p,q >= 1)

Every algebra is presented in a chart x1..xn.  The descriptor carries the
multiplication table, unit, trace form (pairing matrix), determinant and
trace polynomials, the generic-minimal-polynomial coefficients a_1..a_r as
polynomials, the adjugate vector (so inversion and sharp are division by
det only), and the wave polynomial realizing the determinant operator in
the algebra's pairing convention.  The remaining rows of the
classification table are registry metadata without arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations
from typing import Sequence

from .polynomials import InexactDivisionError, MPoly
from .scalars import G_I, G_ONE, Gaussian, ParamPoly, fraction_matrix_inverse, mat_mul, rref

Rat = Fraction
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


class SignatureDomainError(ValueError):
    """Signature classification outside its domain (non-euclidean algebra
    or boundary element)."""


class InternalInconsistencyError(ArithmeticError):
    """An exact division promised by the theory failed."""


# ---------------------------------------------------------------------------
# descriptor


@dataclass(eq=False)
class AlgebraDescriptor:
    key: str
    family: str
    label: str
    n: int
    r: int
    d: int
    e: int
    r_plus: int
    d_plus: int
    vars: tuple[str, ...]
    unit: tuple[Fraction, ...]
    mult: tuple  # mult[i][j] = coordinate vector of e_i o e_j
    trace_vec: tuple[Fraction, ...]
    pairing: tuple  # Gram matrix of the trace form tr(x o y)
    det_poly: MPoly
    trace_poly: MPoly
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


def generic_element(algebra: AlgebraDescriptor) -> JordanElement:
    coords = tuple(MPoly.variable(algebra.vars, v) for v in algebra.vars)
    return JordanElement(algebra, coords)


# ---------------------------------------------------------------------------
# chart builders


def _sym_index_pairs(m: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(m) for j in range(i, m)]


def _det_trace_minors(entries, m: int, vars: tuple[str, ...]):
    """Determinant, trace and principal-minor sums a_j of an m x m matrix of
    MPoly entries (entries given as nested list)."""
    zero = MPoly.zero(vars)

    def det_of(rows: Sequence[int]) -> MPoly:
        k = len(rows)
        total = zero
        for perm in permutations(range(k)):
            sign = 1
            seen = list(perm)
            for i in range(k):
                for j in range(i + 1, k):
                    if seen[i] > seen[j]:
                        sign = -sign
            term = MPoly.constant(vars, sign)
            for i in range(k):
                term = term * entries[rows[i]][rows[perm[i]]]
            total = total + term
        return total

    a = []
    for j in range(1, m + 1):
        s = zero
        for rows in combinations(range(m), j):
            s = s + det_of(rows)
        a.append(s)
    trace = a[0]
    det = a[m - 1]
    return det, trace, a


def _mult_table_from_basis(basis, m: int, to_coords):
    """Multiplication table from matrix basis elements over the Gaussian rationals."""
    n = len(basis)
    half = Gaussian(Fraction(1, 2))
    table = []
    for i in range(n):
        row = []
        for j in range(n):
            prod = mat_mul(basis[i], basis[j])
            prod2 = mat_mul(basis[j], basis[i])
            sym = [[(prod[a][b] + prod2[a][b]) * half for b in range(m)] for a in range(m)]
            row.append(tuple(to_coords(sym)))
        table.append(tuple(row))
    return tuple(table)


def _pairing_from_table(mult, trace_vec, n):
    G = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(sum(trace_vec[k] * mult[i][j][k] for k in range(n)))
        G.append(tuple(row))
    return tuple(G)


def dual_polynomial(p: MPoly, G: Sequence[Sequence[Fraction]]) -> MPoly:
    """p composed with G^{-1}: realizes the pairing-adapted operator of p
    through literal derivative substitution."""
    Ginv = fraction_matrix_inverse(G)
    vars = p.vars
    images = []
    for i in range(len(vars)):
        img = MPoly.zero(vars)
        for j in range(len(vars)):
            if Ginv[i][j]:
                img = img + MPoly.variable(vars, vars[j]).scale(Ginv[i][j])
        images.append(img)
    return p.compose(images)


def _symbolic_powers(algebra_stub, coords, count):
    """Powers 1, x, ..., x^count of a symbolic element via the mult table."""
    n = algebra_stub["n"]
    mult = algebra_stub["mult"]
    vars = algebra_stub["vars"]
    one = [MPoly.constant(vars, c) for c in algebra_stub["unit"]]
    powers = [one, list(coords)]
    while len(powers) <= count:
        prev = powers[-1]
        nxt = [MPoly.zero(vars) for _ in range(n)]
        for i in range(n):
            xi = coords[i]
            if xi.is_zero():
                continue
            for j in range(n):
                yj = prev[j]
                if yj.is_zero():
                    continue
                prod = xi * yj
                for k in range(n):
                    c = mult[i][j][k]
                    if c:
                        nxt[k] = nxt[k] + prod.scale(c)
        powers.append(nxt)
    return powers


def _adjugate_from_minpoly(stub, a_polys):
    """adj(x) = (-1)^(r-1) [x^(r-1) - a1 x^(r-2) + ... + (-1)^(r-1) a_(r-1) 1],
    so that x o adj(x) = det(x) 1 exactly."""
    n, r, vars = stub["n"], stub["r"], stub["vars"]
    coords = [MPoly.variable(vars, v) for v in vars]
    powers = _symbolic_powers(stub, coords, r - 1)
    one = [MPoly.constant(vars, c) for c in stub["unit"]]
    acc = [MPoly.zero(vars) for _ in range(n)]
    for k in range(r):
        # term (-1)^k a_k x^(r-1-k), a_0 = 1
        coeff_poly = MPoly.constant(vars, 1) if k == 0 else a_polys[k - 1]
        base = powers[r - 1 - k]
        for i in range(n):
            term = coeff_poly * base[i]
            acc[i] = acc[i] + (term if k % 2 == 0 else -term)
    sign = 1 if (r - 1) % 2 == 0 else -1
    return tuple(p.scale(sign) for p in acc)


def _finish(stub, det, trace, a_polys, wave, fourier_tau, euclidean) -> AlgebraDescriptor:
    adj = _adjugate_from_minpoly(stub, a_polys)
    return AlgebraDescriptor(
        key=stub["key"],
        family=stub["family"],
        label=stub["label"],
        n=stub["n"],
        r=stub["r"],
        d=stub["d"],
        e=stub["e"],
        r_plus=stub["r_plus"],
        d_plus=stub["d_plus"],
        vars=stub["vars"],
        unit=stub["unit"],
        mult=stub["mult"],
        trace_vec=stub["trace_vec"],
        pairing=stub["pairing"],
        det_poly=det,
        trace_poly=trace,
        minpoly_coeffs=tuple(a_polys),
        adjugate_vec=adj,
        wave_poly=wave,
        fourier_tau=fourier_tau,
        euclidean=euclidean,
    )


@lru_cache(maxsize=None)
def sym_algebra(m: int) -> AlgebraDescriptor:
    if m < 1:
        raise ValueError("sym:m needs m >= 1")
    pairs = _sym_index_pairs(m)
    n = len(pairs)
    vars = tuple(f"x{i+1}" for i in range(n))
    basis = []
    for (i, j) in pairs:
        B = [[Gaussian() for _ in range(m)] for _ in range(m)]
        B[i][j] = B[i][j] + G_ONE
        if i != j:
            B[j][i] = B[j][i] + G_ONE
        basis.append(B)

    def to_coords(M):
        out = []
        for (i, j) in pairs:
            assert M[i][j].im == 0
            out.append(M[i][j].re)
        return out

    mult = _mult_table_from_basis(basis, m, to_coords)
    unit_coords = tuple(Fraction(1) if i == j else Fraction(0) for (i, j) in pairs)
    trace_vec = tuple(Fraction(1) if i == j else Fraction(0) for (i, j) in pairs)
    idx = {p: k for k, p in enumerate(pairs)}
    entries = [[MPoly.variable(vars, vars[idx[(min(i, j), max(i, j))]]) for j in range(m)] for i in range(m)]
    det, trace, a_polys = _det_trace_minors(entries, m, vars)
    stub = dict(key=f"sym:{m}", family="sym", label=f"Sym({m},R)", n=n, r=m, d=1, e=0,
                r_plus=m, d_plus=1, vars=vars, unit=unit_coords, mult=mult,
                trace_vec=trace_vec, pairing=None)
    stub["pairing"] = _pairing_from_table(mult, trace_vec, n)
    wave = dual_polynomial(det, stub["pairing"])
    return _finish(stub, det, trace, a_polys, wave, "2pii", euclidean=True)


@lru_cache(maxsize=None)
def mat_algebra(m: int) -> AlgebraDescriptor:
    if m < 1:
        raise ValueError("mat:m needs m >= 1")
    cells = [(i, j) for i in range(m) for j in range(m)]
    n = len(cells)
    vars = tuple(f"x{i+1}" for i in range(n))
    basis = []
    for (i, j) in cells:
        B = [[Gaussian() for _ in range(m)] for _ in range(m)]
        B[i][j] = B[i][j] + G_ONE
        basis.append(B)

    def to_coords(M):
        return [M[i][j].re for (i, j) in cells]

    mult = _mult_table_from_basis(basis, m, to_coords)
    unit_coords = tuple(Fraction(1) if i == j else Fraction(0) for (i, j) in cells)
    trace_vec = tuple(Fraction(1) if i == j else Fraction(0) for (i, j) in cells)
    idx = {c: k for k, c in enumerate(cells)}
    entries = [[MPoly.variable(vars, vars[idx[(i, j)]]) for j in range(m)] for i in range(m)]
    det, trace, a_polys = _det_trace_minors(entries, m, vars)
    stub = dict(key=f"mat:{m}", family="mat", label=f"Mat({m},R)", n=n, r=m, d=2, e=0,
                r_plus=m, d_plus=1, vars=vars, unit=unit_coords, mult=mult,
                trace_vec=trace_vec, pairing=None)
    stub["pairing"] = _pairing_from_table(mult, trace_vec, n)
    wave = dual_polynomial(det, stub["pairing"])
    return _finish(stub, det, trace, a_polys, wave, "2pii", euclidean=False)


@lru_cache(maxsize=None)
def hermc_algebra(m: int) -> AlgebraDescriptor:
    if m < 1:
        raise ValueError("hermc:m needs m >= 1")
    # chart: m diagonal entries, then (re, im) per off-diagonal pair i<j
    offs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    n = m + 2 * len(offs)
    vars = tuple(f"x{i+1}" for i in range(n))
    basis = []
    for i in range(m):
        B = [[Gaussian() for _ in range(m)] for _ in range(m)]
        B[i][i] = G_ONE
        basis.append(B)
    for (i, j) in offs:
        U = [[Gaussian() for _ in range(m)] for _ in range(m)]
        U[i][j] = G_ONE
        U[j][i] = G_ONE
        basis.append(U)
        W = [[Gaussian() for _ in range(m)] for _ in range(m)]
        W[i][j] = G_I
        W[j][i] = -G_I
        basis.append(W)

    def to_coords(M):
        out = [M[i][i].re for i in range(m)]
        for (i, j) in offs:
            out.append(M[i][j].re)
            out.append(M[i][j].im)
        return out

    mult = _mult_table_from_basis(basis, m, to_coords)
    unit_coords = tuple([Fraction(1)] * m + [Fraction(0)] * (2 * len(offs)))
    trace_vec = tuple([Fraction(1)] * m + [Fraction(0)] * (2 * len(offs)))

    # determinant through complex entries with MPoly real/imag parts
    zero = MPoly.zero(vars)
    ent = [[None] * m for _ in range(m)]
    for i in range(m):
        ent[i][i] = (MPoly.variable(vars, vars[i]), zero)
    for k, (i, j) in enumerate(offs):
        u = MPoly.variable(vars, vars[m + 2 * k])
        w = MPoly.variable(vars, vars[m + 2 * k + 1])
        ent[i][j] = (u, w)
        ent[j][i] = (u, -w)

    def cdet(rows, cols):
        if len(rows) == 1:
            return ent[rows[0]][cols[0]]
        total = (zero, zero)
        for idx, c in enumerate(cols):
            sub = cdet(rows[1:], cols[:idx] + cols[idx + 1 :])
            a, b = ent[rows[0]][c]
            re = a * sub[0] - b * sub[1]
            im = a * sub[1] + b * sub[0]
            if idx % 2:
                re, im = -re, -im
            total = (total[0] + re, total[1] + im)
        return total

    a_polys = []
    for jsize in range(1, m + 1):
        s_re = zero
        for rows in combinations(range(m), jsize):
            re, im = cdet(list(rows), list(rows))
            if not im.is_zero():
                raise InternalInconsistencyError("hermitian minor with nonzero imaginary part")
            s_re = s_re + re
        a_polys.append(s_re)
    det, trace = a_polys[m - 1], a_polys[0]
    stub = dict(key=f"hermc:{m}", family="hermc", label=f"Herm({m},C)", n=n, r=m, d=2, e=0,
                r_plus=m, d_plus=2, vars=vars, unit=unit_coords, mult=mult,
                trace_vec=trace_vec, pairing=None)
    stub["pairing"] = _pairing_from_table(mult, trace_vec, n)
    wave = dual_polynomial(det, stub["pairing"])
    return _finish(stub, det, trace, a_polys, wave, "2pii", euclidean=True)


@lru_cache(maxsize=None)
def rpq_algebra(p: int, q: int) -> AlgebraDescriptor:
    if p < 1 or q < 1:
        raise UnsupportedKindError("rpq:p,q needs p >= 1 and q >= 1 for arithmetic")
    n = p + q
    if n < 3:
        raise ValueError("rpq needs dimension >= 3")
    vars = tuple(f"x{i+1}" for i in range(n))
    signs = [Fraction(1)] * p + [Fraction(-1)] * q  # sign of x_i^2 in det

    mult_rows = []
    for i in range(n):
        row = []
        for j in range(n):
            out = [Fraction(0)] * n
            if i == 0 and j == 0:
                out[0] = Fraction(1)
            elif i == 0:
                out[j] = Fraction(1)
            elif j == 0:
                out[i] = Fraction(1)
            else:
                # e_i o e_j = -beta(e_i, e_j) e_1 with beta carrying signs
                if i == j:
                    out[0] = -signs[i]
            row.append(tuple(out))
        mult_rows.append(tuple(row))
    mult = tuple(mult_rows)
    unit_coords = tuple([Fraction(1)] + [Fraction(0)] * (n - 1))
    trace_vec = tuple([Fraction(2)] + [Fraction(0)] * (n - 1))
    det = MPoly(vars, {tuple(2 if k == i else 0 for k in range(n)): signs[i] for i in range(n)})
    trace = MPoly.variable(vars, vars[0]).scale(2)
    a_polys = [trace, det]
    stub = dict(key=f"rpq:{p},{q}", family="rpq", label=f"R^({p},{q})", n=n, r=2,
                d=n - 2, e=0, r_plus=2, d_plus=q - 1, vars=vars, unit=unit_coords,
                mult=mult, trace_vec=trace_vec, pairing=None)
    stub["pairing"] = _pairing_from_table(mult, trace_vec, n)
    # quadratic-space convention: the wave operator is P(d) literally
    return _finish(stub, det, trace, a_polys, det, "i", euclidean=(q == 0))


_FAMILIES = {"sym": sym_algebra, "mat": mat_algebra, "hermc": hermc_algebra}

_METADATA_KINDS = {
    "hermh", "skewr", "symquat", "math", "symc", "matc", "skewc", "ck", "rk0",
    "herm3o", "herm3os", "herm3oc",
}


def algebra_from_spec(spec: str) -> AlgebraDescriptor:
    """Parse an algebra spec string like sym:3, mat:2, hermc:2, rpq:2,1."""
    spec = spec.strip().lower()
    if ":" not in spec:
        raise UnsupportedKindError(f"malformed algebra spec {spec!r}")
    kind, _, rest = spec.partition(":")
    if kind in _METADATA_KINDS:
        raise UnsupportedKindError(f"{kind} carries registry metadata only; no arithmetic")
    try:
        params = tuple(int(x) for x in rest.split(","))
    except ValueError as exc:
        raise UnsupportedKindError(f"malformed algebra spec {spec!r}") from exc
    if kind == "rpq":
        if len(params) != 2:
            raise UnsupportedKindError("rpq needs two parameters, e.g. rpq:2,1")
        return rpq_algebra(*params)
    if kind in _FAMILIES and len(params) == 1:
        return _FAMILIES[kind](params[0])
    raise UnsupportedKindError(f"unknown algebra kind {kind!r}")


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


def jordan_mul(x: JordanElement, y: JordanElement) -> JordanElement:
    _check_same(x, y)
    alg = x.algebra
    n = alg.n
    if _is_symbolic(x) or _is_symbolic(y):
        vars = alg.vars
        out = [MPoly.zero(vars) for _ in range(n)]
        xc = [c if isinstance(c, MPoly) else MPoly.constant(vars, c) for c in x.coords]
        yc = [c if isinstance(c, MPoly) else MPoly.constant(vars, c) for c in y.coords]
        for i in range(n):
            if xc[i].is_zero():
                continue
            for j in range(n):
                if yc[j].is_zero():
                    continue
                prod = xc[i] * yc[j]
                for k in range(n):
                    c = alg.mult[i][j][k]
                    if c:
                        out[k] = out[k] + prod.scale(c)
        return JordanElement(alg, tuple(out))
    out = [Fraction(0)] * n
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j, yj in enumerate(y.coords):
            if not yj:
                continue
            prod = xi * yj
            row = alg.mult[i][j]
            for k in range(n):
                if row[k]:
                    out[k] += row[k] * prod
    return JordanElement(alg, tuple(out))


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
    """Matrix of left multiplication by x in the chart basis."""
    alg = x.algebra
    n = alg.n
    M = [[Fraction(0)] * n for _ in range(n)]
    for i, xi in enumerate(x.coords):
        if not xi:
            continue
        for j in range(n):
            row = alg.mult[i][j]
            for k in range(n):
                if row[k]:
                    M[k][j] += xi * row[k]
    return M


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
    return sum(t * c for t, c in zip(x.algebra.trace_vec, x.coords))


def det(x: JordanElement):
    value = x.algebra.det_poly.subs_point(x.coords)
    if isinstance(value, ParamPoly):
        return value.constant_value() if value.is_constant() else value
    return value


def minpoly_values(x: JordanElement) -> list[Fraction]:
    """a_1(x) .. a_r(x) from the stored coefficient polynomials."""
    out = []
    for p in x.algebra.minpoly_coeffs:
        v = p.subs_point(x.coords)
        out.append(v.constant_value() if v.is_constant() else v)
    return out


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


def adjugate(x: JordanElement) -> JordanElement:
    adj = [p.subs_point(x.coords).constant_value() for p in x.algebra.adjugate_vec]
    return JordanElement(x.algebra, tuple(adj))


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


def _sign_variations(coeffs: list[Fraction]) -> int:
    signs = [c for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if (a > 0) != (b > 0))


def signature_class(x: JordanElement) -> int:
    """Index i such that x has i negative eigenvalues (Sym(m,R) only)."""
    alg = x.algebra
    if not (alg.family == "sym" and alg.euclidean):
        raise SignatureDomainError("signature classification implemented for sym:m")
    if det(x) == 0:
        raise SignatureDomainError("boundary element (zero determinant)")
    a = minpoly_values(x)
    r = alg.r
    # char(T) = T^r - a1 T^(r-1) + ... + (-1)^r a_r; all roots real
    coeffs = [Fraction(1)] + [(-1) ** j * a[j - 1] for j in range(1, r + 1)]
    neg = [c * (-1) ** (r - i) for i, c in enumerate(coeffs)]  # char(-T) up to sign
    return _sign_variations(neg)


def principal_minor(algebra: AlgebraDescriptor, k: int) -> MPoly:
    """Leading k x k minor of the generic symmetric matrix (Sym(m,R))."""
    if algebra.family != "sym":
        raise UnsupportedKindError("principal minors implemented for sym:m")
    if k < 0 or k > algebra.r:
        raise ValueError(f"minor index {k} outside 0..{algebra.r}")
    if k == 0:
        return MPoly.constant(algebra.vars, 1)
    m = algebra.r
    pairs = _sym_index_pairs(m)
    idx = {p: i for i, p in enumerate(pairs)}
    entries = [
        [MPoly.variable(algebra.vars, algebra.vars[idx[(min(i, j), max(i, j))]]) for j in range(k)]
        for i in range(k)
    ]
    detk, _, _ = _det_trace_minors(entries, k, algebra.vars)
    return detk


# ---------------------------------------------------------------------------
# sampling


def random_element(algebra: AlgebraDescriptor, rng: random.Random, bound: int = 4) -> JordanElement:
    return JordanElement(
        algebra, tuple(Fraction(rng.randint(-bound, bound)) for _ in range(algebra.n))
    )


def random_regular(algebra: AlgebraDescriptor, rng: random.Random, bound: int = 4,
                   retries: int = 200) -> JordanElement:
    """Regular invertible element by rejection (regular elements are dense)."""
    for _ in range(retries):
        x = random_element(algebra, rng, bound)
        if det(x) == 0:
            continue
        try:
            generic_min_poly(x)
        except RankDeficiencyError:
            continue
        return x
    raise RuntimeError("no regular element found (retries exhausted)")


def random_invertible(algebra: AlgebraDescriptor, rng: random.Random, bound: int = 4,
                      retries: int = 200) -> JordanElement:
    for _ in range(retries):
        x = random_element(algebra, rng, bound)
        if det(x) != 0:
            return x
    raise RuntimeError("no invertible element found (retries exhausted)")
