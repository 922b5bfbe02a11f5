"""Verification suites: named bundles of exact identities and numeric
checks, runnable with a seed and reported in a stable machine-readable
form.  Every random draw derives from the config seed, so identical
configs produce identical reports (timing aside)."""

from __future__ import annotations

import contextlib
import marshal
import os
import random
import time
from dataclasses import astuple, dataclass, replace
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from . import conformal as cf
from . import detpower as dp
from . import jordan as jd
from . import rpq as rq
from . import weyl as wy
from . import zeta as zt
from .fischer import (LeibnitzExpansion, apply_diffop, derivative_space, fischer_inner,
                      orthogonal_basis)
from .polynomials import MPoly, Monomial, _add_into, _poly, double_vars
from .scalars import LAM, MU, ParamPoly

_MAX_DIMENSION = 16
_MAX_DEGREE = 6


class ResourceLimitError(RuntimeError):
    """Requested computation outside the guarded size budget."""


class ConfigurationError(ValueError):
    """Unusable suite configuration."""


@dataclass(frozen=True)
class SuiteConfig:
    suite: str
    algebra: str | None = None
    max_degree: int = 3
    seed: int = 0
    tolerance: float | None = None


@dataclass
class CheckResult:
    id: str
    identity: str
    status: str
    residual: float
    millis: float
    detail: str = ""

    def as_dict(self) -> dict:
        out = {
            "id": self.id,
            "identity": self.identity,
            "status": self.status,
            "residual": self.residual,
            "millis": round(self.millis, 3),
        }
        if self.detail:
            out["detail"] = self.detail
        return out


@dataclass
class Check:
    id: str
    identity: str
    run: Callable[[], float]  # returns a residual; 0.0 for exact passes
    tolerance: float = 0.0


def _run_check(check: Check) -> CheckResult:
    t0 = time.perf_counter()
    try:
        residual = float(check.run())
        status = "pass" if residual <= check.tolerance else "fail"
        detail = ""
    except Exception as exc:  # a crashed check is a result, not a crash of the run
        residual = float("inf")
        status = "error"
        detail = f"{type(exc).__name__}: {exc}"
    millis = (time.perf_counter() - t0) * 1000.0
    return CheckResult(check.id, check.identity, status, residual, millis, detail)


def _worker_count(jobs: int, n_checks: int) -> int:
    """Workers for `jobs`: no more than the checks, nor the usable CPUs."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(jobs, n_checks, cpus))


def _work(checks: Sequence[Check], tasks: int, out: int) -> None:
    """A forked worker: echo each index read from `tasks` to `out`, then its check's result."""
    code = 1
    try:
        with open(out, "wb") as sink:
            while index := os.read(tasks, 4):
                os.write(out, index)
                marshal.dump(astuple(_run_check(checks[int.from_bytes(index, "little")])), sink)
                sink.flush()
        code = 0
    finally:  # an error or interrupt must not unwind into the parent's frames
        os._exit(code)


def _execute(checks: Sequence[Check], jobs: int = 1) -> list[CheckResult]:
    """Run the checks and return their results in plan order: in this
    process, or in forked workers that each take the next check when free
    and time it.  A lost worker costs only the check it was running, which
    gets status "error"; the other workers finish the plan."""
    workers = _worker_count(jobs, len(checks))
    if workers == 1:
        return [_run_check(check) for check in checks]
    # imported here: `import covjord.cli` stays free of them.  Workers are
    # forked, as the check closures cannot be pickled; no thread runs yet.
    import select
    import signal

    # the plan goes into an empty pipe in one write of at most PIPE_BUF bytes,
    # which never blocks; a read of 4 bytes from it never splits an index
    if len(checks) > (cap := select.PIPE_BUF // 4):
        return _execute(checks[:cap], jobs) + _execute(checks[cap:], jobs)
    tasks, feed = os.pipe()
    os.write(feed, b"".join(i.to_bytes(4, "little") for i in range(len(checks))))
    os.close(feed)
    sources = {}  # worker pid -> its result stream, until the worker is reaped
    started: dict[int, int] = {}  # check index -> pid of the worker that took it
    codes: dict[int, int] = {}  # worker pid -> exit code
    results: list[CheckResult | None] = [None] * len(checks)
    try:
        for _ in range(workers):
            stream, out = os.pipe()
            if (pid := os.fork()) == 0:
                _work(checks, tasks, out)
            os.close(out)
            sources[pid] = open(stream, "rb")
        # a worker blocked on a full pipe waits for its turn; the others finish the plan
        for pid in list(sources):
            with sources[pid] as source, contextlib.suppress(EOFError):
                while index := source.read(4):
                    started[i := int.from_bytes(index, "little")] = pid
                    results[i] = CheckResult(*marshal.load(source))
            del sources[pid]
            codes[pid] = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        os.close(tasks)
        for pid, source in sources.items():  # left running by an interrupt, say
            source.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    lost = [pid for pid, code in codes.items() if code] or list(codes)
    return [r or CheckResult(c.id, c.identity, "error", float("inf"), 0.0, "worker process lost: "
                             + ", ".join(f"pid {pid} exit code {codes[pid]}"
                                         for pid in ([started[i]] if i in started else lost)))
            for i, (r, c) in enumerate(zip(results, checks))]


# ---------------------------------------------------------------------------
# sampling helpers


def _rng(*parts) -> random.Random:
    """Deterministic across processes: string seeds hash stably."""
    return random.Random(":".join(str(p) for p in parts))


def random_mpoly(vars: Sequence[str], rng: random.Random, max_deg: int,
                 terms: int = 4) -> MPoly:
    """A random polynomial with integer coefficients in -3..3, never zero."""
    out: dict[Monomial, ParamPoly] = {}
    for _ in range(terms):
        mono = [0] * len(vars)
        for _ in range(rng.randint(0, max_deg)):
            mono[rng.randrange(len(vars))] += 1
        c = rng.randint(-3, 3)
        if c:
            _add_into(out, {tuple(mono): ParamPoly.of(c)})
    if not out:
        return MPoly.constant(vars, 1)
    return _poly(tuple(vars), out)


def _exact(ok: bool) -> float:
    return 0.0 if ok else 1.0


def _rpq_params(alg: jd.AlgebraDescriptor) -> tuple[int, ...]:
    return jd.parse_spec(alg.key)[1]


@dataclass(frozen=True)
class Suite:
    """A registered suite: its builder, its default algebra (None: the
    suite takes no algebra) and the algebras it runs on: `accepts` reads a
    parsed spec (family, parameters, dimension) and `needs` names the
    algebras it accepts."""

    build: Callable[..., list[Check]]
    algebra: str | None = None
    needs: str = ""
    accepts: Callable[[str, tuple[int, ...], int], bool] = lambda kind, params, n: True


def _algebra_for(config: SuiteConfig, suite: Suite) -> jd.AlgebraDescriptor | None:
    if config.max_degree > _MAX_DEGREE:
        raise ResourceLimitError(
            f"degree {config.max_degree} beyond the guarded budget (degree <= {_MAX_DEGREE})")
    if suite.algebra is None:
        if config.algebra:
            raise ConfigurationError(f"suite {config.suite} takes no algebra")
        return None
    spec = config.algebra or suite.algebra
    # the guard and the suite's condition read the parsed spec, so an
    # unusable algebra is refused before any constructor runs
    try:
        kind, params, n = jd.parse_spec(spec)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc
    if n > _MAX_DIMENSION:
        raise ResourceLimitError(
            f"dimension {n} beyond the guarded budget (n <= {_MAX_DIMENSION})")
    if not suite.accepts(kind, params, n):
        raise ConfigurationError(f"suite {config.suite} runs on {suite.needs}")
    try:
        return jd.algebra_from_spec(spec)
    except ValueError as exc:
        raise ConfigurationError(str(exc)) from exc


# ---------------------------------------------------------------------------
# suite: leibnitz (derivative pairing and product-rule reconstruction)


def leibnitz_checks(config: SuiteConfig, alg: None, samples: int = 100) -> list[Check]:
    checks: list[Check] = []
    for n in (1, 2, 3, 6):
        vars = tuple(f"x{i+1}" for i in range(n))
        gen_deg = 2 if n >= 6 else 3

        def run_symmetry(n=n, vars=vars) -> float:
            rng = _rng(config.seed, "fischer", n)
            for _ in range(max(samples * 2, 200)):
                p = random_mpoly(vars, rng, 3)
                q = random_mpoly(vars, rng, 3)
                r = random_mpoly(vars, rng, 2)
                if fischer_inner(p, q) != fischer_inner(q, p):
                    return 1.0
                if fischer_inner(p, q * r) != fischer_inner(apply_diffop(r, p), q):
                    return 1.0
            return 0.0

        checks.append(Check(f"fischer-adjoint-n{n}",
                            "derivative pairing symmetry and adjoint identity",
                            run_symmetry))

        def run_closure(n=n, vars=vars) -> float:
            rng = _rng(config.seed, "closure", n)
            inner = lambda p, q: fischer_inner(p, q).constant_value()
            for _ in range(10):
                p = random_mpoly(vars, rng, 3)
                basis = derivative_space(p)
                ortho, norms = orthogonal_basis(basis, inner)
                # every derivative of every basis element is its own
                # projection onto the span
                for b in basis:
                    for i in range(n):
                        d = b.diff(i)
                        if d.is_zero():
                            continue
                        proj = MPoly.zero(vars)
                        for o, nn in zip(ortho, norms):
                            proj = proj + o.scale(inner(d, o) / nn)
                        if proj != d:
                            return 1.0
            return 0.0

        checks.append(Check(f"derivative-space-closure-n{n}",
                            "derivative space closed under all partials",
                            run_closure))

        def run_expand(n=n, vars=vars, gen_deg=gen_deg) -> float:
            rng = _rng(config.seed, "leibnitz", n)
            done = 0
            while done < samples:
                gen = random_mpoly(vars, rng, gen_deg, terms=3)
                expansion = LeibnitzExpansion(gen)
                for _ in range(5):
                    if done >= samples:
                        break
                    f = random_mpoly(vars, rng, min(config.max_degree + 1, 4))
                    g = random_mpoly(vars, rng, min(config.max_degree + 1, 4))
                    if expansion.expand(f, g) != apply_diffop(gen, f * g):
                        return 1.0
                    done += 1
            return 0.0

        checks.append(Check(f"leibnitz-reconstruction-n{n}",
                            "product-rule expansion equals direct differentiation",
                            run_expand))

    def run_monomial_duality() -> float:
        rng = _rng(config.seed, "duality")
        vars = ("x1", "x2", "x3")
        for _ in range(50):
            mono = tuple(rng.randint(0, 3) for _ in range(3))
            m = MPoly.monomial(vars, mono)
            val = fischer_inner(m, m).constant_value()
            fact = Fraction(1)
            for e in mono:
                for k in range(2, e + 1):
                    fact *= k
            if val != fact:
                return 1.0
        return 0.0

    checks.append(Check("monomial-factorial-duality",
                        "monomial self-pairing equals the factorial",
                        run_monomial_duality))
    return checks


# ---------------------------------------------------------------------------
# suite: jordan-axioms


def jordan_checks(config: SuiteConfig, alg: jd.AlgebraDescriptor,
                  samples: int = 100) -> list[Check]:
    checks: list[Check] = []

    def run_axioms() -> float:
        rng = _rng(config.seed, "axioms", alg.key)
        e = jd.unit(alg)
        for _ in range(samples):
            x = jd.random_element(alg, rng)
            y = jd.random_element(alg, rng)
            if jd.jordan_mul(x, y) != jd.jordan_mul(y, x):
                return 1.0
            if jd.jordan_mul(e, x) != x:
                return 1.0
            x2 = jd.jordan_mul(x, x)
            if jd.jordan_mul(jd.jordan_mul(x, y), x2) != jd.jordan_mul(x, jd.jordan_mul(y, x2)):
                return 1.0
        return 0.0

    checks.append(Check("jordan-identity", "commutativity, unit, Jordan identity", run_axioms))

    def run_quad() -> float:
        rng = _rng(config.seed, "quad", alg.key)
        for _ in range(samples // 2):
            x = jd.random_element(alg, rng, 3)
            y = jd.random_element(alg, rng, 3)
            Pxy = jd.apply_matrix(jd.quad_rep(x), y)
            if jd.det(Pxy) != jd.det(x) ** 2 * jd.det(y):
                return 1.0
        return 0.0

    checks.append(Check("quadratic-representation-determinant",
                        "det(P(x)y) = det(x)^2 det(y)", run_quad))

    def run_minpoly() -> float:
        rng = _rng(config.seed, "minpoly", alg.key)
        e = jd.unit(alg)
        if jd.trace(e) != alg.r or jd.det(e) != 1:
            return 1.0
        for _ in range(samples // 2):
            x = jd.random_regular(alg, rng)
            a = jd.generic_min_poly(x)
            if a[0] != jd.trace(x) or a[-1] != jd.det(x):
                return 1.0
            if a != jd.minpoly_values(x):
                return 1.0
            # m_x(x) = 0
            acc = jd.power(x, alg.r)
            for j in range(1, alg.r + 1):
                term = jd.scale(jd.power(x, alg.r - j), a[j - 1] * (-1) ** j)
                acc = jd.add(acc, term)
            if any(c != 0 for c in acc.coords):
                return 1.0
        return 0.0

    checks.append(Check("generic-minimal-polynomial",
                        "power-sequence coefficients, trace, determinant", run_minpoly))

    def run_inverse() -> float:
        rng = _rng(config.seed, "inverse", alg.key)
        e = jd.unit(alg)
        for _ in range(samples // 2):
            x = jd.random_invertible(alg, rng)
            xi = jd.inverse(x)
            if jd.jordan_mul(x, xi) != e:
                return 1.0
            if jd.apply_matrix(jd.quad_rep(x), xi) != x:
                return 1.0
        return 0.0

    checks.append(Check("inverse-adjugate", "x x^-1 = 1 and P(x) x^-1 = x", run_inverse))

    def run_homogeneity() -> float:
        t = ParamPoly.var("s")
        scaled = [MPoly.variable(alg.vars, v).scale(t) for v in alg.vars]
        return _exact(alg.det_poly.compose(scaled) == alg.det_poly.scale(t ** alg.r))

    checks.append(Check("determinant-homogeneity",
                        "det(t x) = t^rank det(x) symbolically", run_homogeneity))

    def run_registry() -> float:
        return _exact(all(row.dimension_identity_holds() for row in jd.registry_rows()))

    checks.append(Check("registry-dimension-identity",
                        "n = r+(e+1) + r+(r+-1)d/2 on every stored row", run_registry))
    return checks


# ---------------------------------------------------------------------------
# suite: bernstein


def bernstein_checks(config: SuiteConfig, alg: jd.AlgebraDescriptor) -> list[Check]:
    checks: list[Check] = []

    def run_b() -> float:
        res = dp.bernstein_poly(alg)
        return _exact(res.matches)

    checks.append(Check("bernstein-factorization",
                        "wave of det^s factors through det^(s-1) with the stated scalar",
                        run_b))

    def run_flip() -> float:
        rng = _rng(config.seed, "flip", alg.key)
        found = 0
        for _ in range(500):
            x = jd.random_element(alg, rng)
            if jd.det(x) < 0:
                found += 1
                for k in (1, 2, 3):
                    if not dp.eps_flip_check(alg, x.coords, k):
                        return 1.0
                if found >= 10:
                    break
        return _exact(found > 0)

    checks.append(Check("sign-branch-flip",
                        "signed powers flip branches under the wave identity",
                        run_flip))
    return checks


# ---------------------------------------------------------------------------
# suite: main-identity


def main_identity_checks(config: SuiteConfig, alg: jd.AlgebraDescriptor,
                         samples: int = 50) -> list[Check]:
    dvars = double_vars(alg.vars)
    checks: list[Check] = []

    def run_divisibility() -> float:
        rng = _rng(config.seed, "main", alg.key)
        for _ in range(samples):
            f = random_mpoly(dvars, rng, min(config.max_degree, 3))
            action = dp.extract_Dst(alg, f)  # raises on inexact division
            for coeff in action.terms.values():
                if coeff.total_degree() > alg.r:
                    return 1.0
        return 0.0

    checks.append(Check("wave-identity-divisibility",
                        "wave of det^s det^t f factors exactly; coefficients of degree <= rank",
                        run_divisibility))

    def run_grid() -> float:
        rng = _rng(config.seed, "grid", alg.key)
        svals = list(range(alg.r, alg.r + 5))
        for _ in range(2):
            f = random_mpoly(dvars, rng, 2)
            if not dp.dst_grid_check(alg, f, svals, svals):
                return 1.0
        return 0.0

    checks.append(Check("integer-power-grid",
                        "agrees with plain differentiation on a 5x5 integer power grid",
                        run_grid))
    return checks


# ---------------------------------------------------------------------------
# suite: fourier-weyl


def fourier_weyl_checks(config: SuiteConfig, alg: jd.AlgebraDescriptor) -> list[Check]:
    dvars = double_vars(alg.vars)
    checks: list[Check] = []

    def run_assoc() -> float:
        rng = _rng(config.seed, "assoc", alg.key)
        vars = alg.vars[: min(3, alg.n)]
        for _ in range(50):
            ops = []
            for _ in range(3):
                b = tuple(rng.randint(0, 2) for _ in vars)
                ops.append(wy.DiffOp(vars, {b: random_mpoly(vars, rng, 2, terms=2)}))
            A, B, C = ops
            if A.compose(B.compose(C)) != A.compose(B).compose(C):
                return 1.0
            f = random_mpoly(vars, rng, 4)
            if A.compose(B).apply(f) != A.apply(B.apply(f)):
                return 1.0
        return 0.0

    checks.append(Check("composition-associativity",
                        "operator composition associative and action-compatible", run_assoc))

    def run_automorphism() -> float:
        rng = _rng(config.seed, "fc", alg.key)
        vars = alg.vars[: min(3, alg.n)]
        for _ in range(50):
            b1 = tuple(rng.randint(0, 2) for _ in vars)
            b2 = tuple(rng.randint(0, 2) for _ in vars)
            A = wy.DiffOp(vars, {b1: random_mpoly(vars, rng, 2, terms=2)})
            B = wy.DiffOp(vars, {b2: random_mpoly(vars, rng, 2, terms=2)})
            if wy.fourier_conjugate(A.compose(B)) != wy.fourier_conjugate(A).compose(wy.fourier_conjugate(B)):
                return 1.0
            if wy.fourier_conjugate(wy.fourier_conjugate(A), inverse=True) != A:
                return 1.0
        return 0.0

    checks.append(Check("fourier-automorphism",
                        "conjugation is a Weyl-algebra automorphism with exact inverse",
                        run_automorphism))

    def run_est() -> float:
        est = dp.build_Est(alg)
        if wy.fourier_conjugate(est.raw) != est.dst:
            return 1.0
        if est.tau_power != -alg.r:
            return 1.0
        one = MPoly.constant(dvars, 1)
        return _exact(est.normalized.apply(one).is_zero())

    checks.append(Check("fourier-side-family",
                        "conjugated family satisfies the defining exchange identity",
                        run_est))

    if alg.family == "rpq":
        p, q = _rpq_params(alg)

        def run_explicit() -> float:
            est = dp.build_Est(alg)
            ok = rq.explicit_Dst(p, q) == est.dst
            ok = ok and rq.explicit_Est(p, q) == est.normalized
            ok = ok and rq.explicit_F(p, q) == dp.build_F(alg)
            return _exact(ok)

        checks.append(Check("explicit-transcriptions",
                            "hand-coded displays equal the generic construction",
                            run_explicit))
    return checks


# ---------------------------------------------------------------------------
# suite: covariance


def covariance_checks(config: SuiteConfig, alg: jd.AlgebraDescriptor) -> list[Check]:
    checks: list[Check] = []

    def run_hua() -> float:
        rng = _rng(config.seed, "hua", alg.key)
        inversion = cf.ConformalWord(alg, [cf.Inversion()])
        done = 0
        while done < 100:
            x = jd.random_invertible(alg, rng)
            y = jd.random_invertible(alg, rng)
            if jd.det(jd.sub(x, y)) == 0:
                continue
            if not cf.covdet_check(alg, inversion, x, y):
                return 1.0
            done += 1
        return 0.0

    hua = Check("inversion-determinant-identity",
                "det(iota x - iota y) det x det y = det(x - y)", run_hua)

    if alg.family == "rpq":
        p, q = _rpq_params(alg)
        model = cf.QuadricModel(p, q)
        basis = model.lie_basis()

        def run_membership() -> float:
            gens = [model.translation([1] * model.n), model.inversion(),
                    model.dilation(Fraction(3, 2))]
            ok = all(model.is_conformal(g) for g in gens)
            ok = ok and all(model.is_lie(X) for X in basis)
            return _exact(ok)

        checks.append(Check("quadric-membership",
                            "generators preserve the ambient form; basis is J-antisymmetric",
                            run_membership))

        def run_cocycle() -> float:
            rng = _rng(config.seed, "cocycle", alg.key)
            gens = [model.translation([rng.randint(-2, 2) for _ in range(model.n)]),
                    model.inversion(), model.dilation(Fraction(2)),
                    model.translation([1] + [0] * (model.n - 1))]
            done = 0
            while done < 100:
                g1 = gens[rng.randrange(len(gens))]
                g2 = gens[rng.randrange(len(gens))]
                x = [Fraction(rng.randint(-4, 4)) for _ in range(model.n)]
                try:
                    a2 = model.cocycle(g2, x)
                    if a2 == 0:
                        continue
                    g2x = model.act(g2, x)
                    a1 = model.cocycle(g1, g2x)
                    g12 = cf.mat_mul(g1, g2)
                    if model.cocycle(g12, x) != a1 * a2:
                        return 1.0
                    done += 1
                except cf.PointAtInfinityError:
                    continue
            return 0.0

        checks.append(Check("cocycle-chain-rule",
                            "cocycle of a product splits through the action", run_cocycle))

        checks.append(hua)

        def run_lie_hom() -> float:
            ops = [cf.dpi(model, X).op for X in basis]
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    br = cf.dpi(model, model.bracket(basis[i], basis[j])).op
                    if br != ops[i].commutator(ops[j]):
                        return 1.0
            return 0.0

        checks.append(Check("infinitesimal-representation",
                            "bracket goes to commutator on every basis pair", run_lie_hom))

        def run_restriction() -> float:
            return _exact(all(
                cf.restriction_covariance_residual(model, X).is_zero() for X in basis
            ))

        checks.append(Check("restriction-covariance",
                            "diagonal restriction intertwines the tensor action", run_restriction))

        for idx, X in enumerate(basis):
            def run_cov(X=X) -> float:
                return _exact(cf.covariance_residual_F(model, rq.explicit_F(p, q), X).is_zero())

            checks.append(Check(f"covariance-F-X{idx:02d}",
                                "first-order intertwining of the covariance family",
                                run_cov))
    else:
        checks.append(hua)

        def run_word_covdet() -> float:
            rng = _rng(config.seed, "words", alg.key)
            done = 0
            while done < 100:
                word = cf.ConformalWord(alg, [
                    cf.Translation(tuple(Fraction(rng.randint(-2, 2)) for _ in range(alg.n))),
                    cf.Inversion(),
                    # an odd rank takes a square scale: its cocycle needs the root
                    cf.dilation_generator(alg, Fraction(rng.randint(1, 3)) ** (1 + alg.r % 2)),
                    cf.Translation(tuple(Fraction(rng.randint(-2, 2)) for _ in range(alg.n))),
                ])
                x = jd.random_invertible(alg, rng)
                y = jd.random_invertible(alg, rng)
                try:
                    if jd.det(jd.sub(x, y)) == 0:
                        continue
                    if not cf.covdet_check(alg, word, x, y):
                        return 1.0
                    done += 1
                except jd.SingularElementError:
                    continue
            return 0.0

        checks.append(Check("word-determinant-covariance",
                            "determinant covariance along generator words", run_word_covdet))
    return checks


# ---------------------------------------------------------------------------
# suite: brackets


def bracket_checks(config: SuiteConfig, alg: jd.AlgebraDescriptor) -> list[Check]:
    p, q = _rpq_params(alg)
    model = cf.QuadricModel(p, q)
    basis = model.lie_basis()
    checks: list[Check] = []

    def run_b1_display() -> float:
        return _exact(wy.restrict(rq.explicit_F(p, q)) == rq.explicit_B1(p, q))

    checks.append(Check("bracket-1-display",
                        "restricted family equals the explicit first bracket (ratio 1)",
                        run_b1_display))

    def run_b1_constant_kill() -> float:
        b1 = rq.build_BN(p, q, 1)
        one = MPoly.constant(double_vars(alg.vars), 1)
        return _exact(b1.apply(one).is_zero())

    checks.append(Check("bracket-annihilates-constants",
                        "first bracket sends 1 to 0", run_b1_constant_kill))

    for N in (1, 2):
        for idx, X in enumerate(basis):
            def run_bn(X=X, N=N) -> float:
                # the residual reads only res(chain), so the cached bracket
                # serves every basis element
                bracket = rq.build_BN(p, q, N)
                return _exact(
                    cf.bracket_covariance_residual(model, bracket, X, 2 * N).is_zero()
                )

            checks.append(Check(f"covariance-B{N}-X{idx:02d}",
                                f"bracket {N} intertwines with total weight shift {2*N}",
                                run_bn))

    def run_symmetry() -> float:
        # swapping the slots and the weights is a symmetry of the bracket
        b1 = rq.build_BN(p, q, 1)
        n = p + q
        swapped = {beta[n:] + beta[:n]: coeff.subs_params({"lam": MU, "mu": LAM})
                   for beta, coeff in b1.terms.items()}
        return _exact(swapped == b1.terms)

    checks.append(Check("bracket-slot-symmetry",
                        "slot swap with weight swap fixes the first bracket", run_symmetry))
    return checks


# ---------------------------------------------------------------------------
# suite: rankin-cohen


def rankin_cohen_checks(config: SuiteConfig, alg: jd.AlgebraDescriptor) -> list[Check]:
    dvars = double_vars(alg.vars)

    def binom(a: ParamPoly, m: int) -> ParamPoly:
        """C(a, m) = a (a - 1) ... (a - m + 1) / m! as a polynomial in a."""
        out = ParamPoly.of(1)
        for i in range(m):
            out = out * (a - i) * Fraction(1, i + 1)
        return out

    checks: list[Check] = []
    for k in range(1, 7):
        def run_k(k=k) -> float:
            # sum_j k! (-1)^j C(lam+k-1, k-j) C(mu+k-1, j) dx^j dy^(k-j)
            closed = wy.DiffOp(dvars, {
                (j, k - j): MPoly.constant(
                    dvars, binom(LAM + k - 1, k - j) * binom(MU + k - 1, j)
                    * (factorial(k) * (-1) ** j))
                for j in range(k + 1)})
            return _exact(wy.restrict(wy.f_chain(dp.build_F(alg), k)) == closed)

        checks.append(Check(f"rankin-cohen-k{k}",
                            f"restricted chain of length {k} is the Rankin-Cohen bracket "
                            f"of order {k}", run_k))
    return checks


# ---------------------------------------------------------------------------
# suite: zeta-matrices


def zeta_matrix_checks(config: SuiteConfig, alg: jd.AlgebraDescriptor) -> list[Check]:
    p, q = _rpq_params(alg)
    tol = config.tolerance if config.tolerance is not None else 1e-12
    checks: list[Check] = []

    def run_quad_flips() -> float:
        rng = _rng(config.seed, "flips")
        worst = 0.0
        for _ in range(100):
            s = rng.uniform(-3.0, 3.0)
            worst = max(worst, zt.flip_residual_quad(p, q, s))
            A0 = zt.A_matrix_pq(p, q, s)
            A2 = zt.A_matrix_pq(p, q, s + 2)
            worst = max(worst, max(abs(A0[i][j] - A2[i][j]) for i in range(2) for j in range(2)))
            B = zt.A_matrix_from_pm_parts(p, q, s)
            worst = max(worst, max(abs(A0[i][j] - B[i][j]) for i in range(2) for j in range(2)))
        return worst

    checks.append(Check("quadratic-matrix-identities",
                        "shift flip, period 2, one-sided reconstruction", run_quad_flips, tol))

    def run_euclidean_flips() -> float:
        rng = _rng(config.seed, "euflips")
        worst = 0.0
        cases = [("b1", 2, 5, 12, zt.flip_residual_pm), ("b2", 2, 7, 16, zt.flip_residual_pm),
                 ("c1", 3, 1, 6, zt.flip_residual_eo), ("c2", 5, 1, 15, zt.flip_residual_eo)]
        flips = [(zt.euclidean_matrices(case, r, d, n), flip) for case, r, d, n, flip in cases]
        for _ in range(100):
            s = rng.uniform(-2.0, 2.0)
            for matrix, flip in flips:
                worst = max(worst, flip(matrix, s))
        return worst

    checks.append(Check("euclidean-matrix-flips",
                        "shift flips of the euclidean transform matrices", run_euclidean_flips, tol))

    def run_kappa_rpq() -> float:
        disp = zt.kappa_const("rpq", p=p, q=q)
        tele = zt.kappa_rpq_from_gammas(p, q)
        return _exact(disp.num * tele.den == tele.num * disp.den)

    checks.append(Check("kappa-quadratic-exact",
                        "gamma-quotient equals the displayed rational function", run_kappa_rpq))

    def run_kappa_split() -> float:
        rng = _rng(config.seed, "kappa")
        for (r, d, n, r_plus) in [(2, 2, 4, 2), (3, 2, 9, 3)]:
            display = zt.kappa_as_gamma(zt.kappa_const("split", r=r, d=d))
            for eps in "+-":
                for eta in "+-":
                    qv = zt.kappa_split_quotient(r, d, n, r_plus, eps, eta)
                    if not qv.equals(display):
                        return 1.0
            for _ in range(20):
                s = rng.uniform(0.2, 1.5)
                t = rng.uniform(0.2, 1.5)
                va = display.evaluate(s, t)
                vb = zt.kappa_split_quotient(r, d, n, r_plus, "+", "-").evaluate(s, t)
                if abs(va - vb) > 1e-10 * max(abs(va), abs(vb)):
                    return 1.0
        return 0.0

    checks.append(Check("kappa-split-cancellation",
                        "sign-flip quotient of fourier constants is sign-independent",
                        run_kappa_split))

    def run_orbits() -> float:
        ok = all(zt.orbit_roundtrip(r) for r in (1, 2, 3))
        for d in (1, 3):
            tab = zt.orbit_coefficient_polys(2, d)
            xi = zt._i_power(d * 3)
            ok = ok and tab[0][0] == {(0, 0): zt.G_ONE}
            ok = ok and tab[1][1] == {k: v for k, v in {(0, 0): xi, (2, 0): -xi}.items()}
        return _exact(ok)

    checks.append(Check("orbit-bookkeeping",
                        "signed/even/odd orbit functionals round-trip; rank-2 table",
                        run_orbits))
    return checks


# ---------------------------------------------------------------------------
# suite: zeta-numeric


def zeta_numeric_checks(config: SuiteConfig, alg: jd.AlgebraDescriptor) -> list[Check]:
    p, q = _rpq_params(alg)
    tol = config.tolerance if config.tolerance is not None else 1e-4
    checks: list[Check] = []
    for s in (-0.6, -0.7, -0.8):
        def run_fe(s=s) -> float:
            rep = zt.numeric_zeta_check(p, q, s, zt.GaussianTest.make(3, 1))
            return max(rep.max_rel_error, max(rep.gs_residuals.values()))

        checks.append(Check(f"functional-equation-s{s}",
                            "fourier pairing of signed powers against a gaussian",
                            run_fe, tol))

    def run_parity() -> float:
        rep = zt.numeric_zeta_check(p, q, -0.7, zt.GaussianTest.make(3, 1, {(1, 0, 0): (1, 0)}))
        return max(abs(rep.lhs["+"]), abs(rep.rhs["+"]), abs(rep.lhs["-"]), abs(rep.rhs["-"]))

    checks.append(Check("odd-parity-vanishing",
                        "odd test function pairs to zero on both sides", run_parity, 1e-8))
    return checks


# ---------------------------------------------------------------------------
# registry


SUITES: dict[str, Suite] = {
    "leibnitz": Suite(leibnitz_checks),
    "jordan-axioms": Suite(jordan_checks, "sym:2"),
    "bernstein": Suite(bernstein_checks, "sym:2"),
    "main-identity": Suite(main_identity_checks, "sym:2"),
    "fourier-weyl": Suite(fourier_weyl_checks, "sym:2"),
    "covariance": Suite(covariance_checks, "rpq:2,1"),
    "brackets": Suite(bracket_checks, "rpq:2,1", "quadratic-space algebras rpq:p,q",
                      lambda kind, params, n: kind == "rpq"),
    "zeta-matrices": Suite(zeta_matrix_checks, "rpq:2,1", "quadratic-space algebras rpq:p,q",
                           lambda kind, params, n: kind == "rpq"),
    "zeta-numeric": Suite(
        zeta_numeric_checks, "rpq:2,1",
        "rpq:p,q with p + q = 3, the only dimension where both sides of the "
        "functional equation converge absolutely",
        lambda kind, params, n: kind == "rpq" and n == 3),
    "rankin-cohen": Suite(rankin_cohen_checks, "sym:1", "the line: an algebra of dimension 1",
                          lambda kind, params, n: n == 1),
}

# `--suite all`: (suite, algebra, samples) in run order; samples None keeps
# the builder's default.
_ALL_PLAN: tuple[tuple[str, str | None, int | None], ...] = (
    ("leibnitz", None, 25),
    *(("jordan-axioms", spec, 40) for spec in ("sym:2", "mat:2", "hermc:2", "rpq:2,1")),
    *(("bernstein", spec, None) for spec in ("sym:2", "sym:3", "mat:2", "rpq:2,1")),
    *((suite, spec, samples) for spec in ("sym:2", "mat:2", "rpq:2,1")
      for suite, samples in (("main-identity", 10), ("fourier-weyl", None))),
    ("covariance", "rpq:2,1", None),
    ("brackets", "rpq:2,1", None),
    ("zeta-matrices", "rpq:2,1", None),
    ("zeta-numeric", "rpq:2,1", None),
)

# a check id names its algebra when its suite runs on several in the plan
_PREFIXED = {suite for suite, _, _ in _ALL_PLAN
             if len({spec for other, spec, _ in _ALL_PLAN if other == suite}) > 1}


def _suite_checks(config: SuiteConfig, samples: int | None = None) -> list[Check]:
    suite = SUITES.get(config.suite)
    if suite is None:
        raise ConfigurationError(
            f"unknown suite {config.suite!r} (choose from {', '.join(SUITES)}, all)")
    alg = _algebra_for(config, suite)
    if samples is None:
        return suite.build(config, alg)
    return suite.build(config, alg, samples)


def build_checks(config: SuiteConfig) -> list[Check]:
    if config.suite != "all":
        return _suite_checks(config)
    if config.algebra:
        raise ConfigurationError("suite all runs a fixed plan of algebras and takes no algebra")
    out: list[Check] = []
    for suite, spec, samples in _ALL_PLAN:
        for check in _suite_checks(replace(config, suite=suite, algebra=spec), samples):
            if suite in _PREFIXED:
                check = replace(check, id=f"{spec.replace(':', '')}-{check.id}")
            out.append(check)
    return out


def run_suite(config: SuiteConfig, checks: Sequence[Check], jobs: int = 1) -> dict:
    """The report of the checks that build_checks(config) gave; `jobs`
    bounds the worker processes and leaves the report unchanged apart from
    the timings."""
    results = _execute(checks, jobs)
    passed = sum(1 for r in results if r.status == "pass")
    default = SUITES[config.suite].algebra if config.suite in SUITES else None
    return {
        "suite": config.suite,
        "algebra": config.algebra or default or "",
        "seed": config.seed,
        "max_degree": config.max_degree,
        "tolerance": config.tolerance,
        "checks": [r.as_dict() for r in results],
        "passed": passed,
        "failed": len(results) - passed,
    }
