"""Acceptance gate: every criterion at its stated tolerance and budget,
one pass/fail line each (run with -s to see them as they complete)."""

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

from covjord import conformal as C
from covjord import detpower as D
from covjord import jordan as J
from covjord import rpq as R
from covjord import zeta as Z
from covjord.fischer import LeibnitzExpansion, apply_diffop
from covjord.polynomials import double_vars
from covjord.scalars import S

from conftest import random_poly

TRIO = [(2, 1), (2, 2), (3, 1)]


@contextmanager
def criterion(name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {name}: PASS")


def test_criterion_01_bernstein():
    with criterion("1-bernstein"):
        t0 = time.perf_counter()
        for spec, expected in [
            ("sym:2", S * (S + Fraction(1, 2))),
            ("sym:3", S * (S + Fraction(1, 2)) * (S + 1)),
            ("mat:2", S * (S + 1)),
        ]:
            res = D.bernstein_poly(J.algebra_from_spec(spec))
            assert res.b == expected and res.matches, spec
        for (p, q) in [(2, 1), (3, 2)]:
            alg = J.rpq_algebra(p, q)
            res = D.bernstein_poly(alg)
            n = alg.n
            assert res.b == S * (S + Fraction(n - 2, 2)) * 4
            assert res.matches and res.note, "convention note attached"
        assert time.perf_counter() - t0 < 10.0


def test_criterion_02_main_identity():
    with criterion("2-main-identity"):
        t0 = time.perf_counter()
        rng = random.Random("acceptance:main")
        for spec in ("sym:2", "mat:2", "rpq:2,1", "rpq:2,2"):
            alg = J.algebra_from_spec(spec)
            dvars = double_vars(alg.vars)
            for _ in range(50):
                f = random_poly(dvars, rng, 3)
                action = D.extract_Dst(alg, f)  # exact division or raise
                for coeff in action.terms.values():
                    assert coeff.total_degree() <= alg.r
            grid = list(range(alg.r, alg.r + 5))
            f = random_poly(dvars, rng, 2)
            assert D.dst_grid_check(alg, f, grid, grid)
        assert time.perf_counter() - t0 < 120.0


def test_criterion_03_explicit_consistency():
    with criterion("3-explicit-consistency"):
        t0 = time.perf_counter()
        for (p, q) in TRIO:
            alg = J.rpq_algebra(p, q)
            est = D.build_Est(alg)
            assert R.explicit_Dst(p, q) == est.dst
            assert R.explicit_Est(p, q) == est.normalized
            assert R.explicit_F(p, q) == D.build_F(alg)
        assert time.perf_counter() - t0 < 60.0


def test_criterion_04_covariance_certificates():
    with criterion("4-covariance"):
        t0 = time.perf_counter()
        for (p, q) in TRIO:
            model = C.QuadricModel(p, q)
            basis = model.lie_basis()
            F = R.explicit_F(p, q)
            for X in basis:
                assert C.covariance_residual_F(model, F, X).is_zero()
            for N in (1, 2):
                chain = R.f_chain(p, q, N)
                for X in basis:
                    assert C.bracket_covariance_residual(model, chain, X, 2 * N).is_zero()
        assert time.perf_counter() - t0 < 300.0


def test_criterion_05_lie_homomorphism():
    with criterion("5-lie-homomorphism"):
        for (p, q) in TRIO:
            model = C.QuadricModel(p, q)
            basis = model.lie_basis()
            ops = [C.dpi(model, X).op for X in basis]
            for i in range(len(basis)):
                for j in range(i + 1, len(basis)):
                    br = C.dpi(model, model.bracket(basis[i], basis[j])).op
                    assert br == ops[i].compose(ops[j]) - ops[j].compose(ops[i])


def test_criterion_06_cocycle_hua():
    with criterion("6-cocycle-hua"):
        for (p, q) in [(2, 1), (2, 2)]:
            model = C.QuadricModel(p, q)
            alg = model.algebra
            rng = random.Random(f"acceptance:cocycle:{p},{q}")
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
                    a1 = model.cocycle(g1, model.act(g2, x))
                    assert model.cocycle(C.mat_mul(g1, g2), x) == a1 * a2
                    done += 1
                except C.PointAtInfinityError:
                    continue
            done = 0
            while done < 100:
                x = J.random_invertible(alg, rng)
                y = J.random_invertible(alg, rng)
                if J.det(J.sub(x, y)) == 0:
                    continue
                assert C.hua_check(alg, x, y)
                done += 1
        for spec in ("sym:2", "mat:2"):
            alg = J.algebra_from_spec(spec)
            rng = random.Random(f"acceptance:hua:{spec}")
            done = 0
            while done < 100:
                word = C.ConformalWord(alg, [
                    C.Translation(tuple(Fraction(rng.randint(-2, 2)) for _ in range(alg.n))),
                    C.Inversion(),
                    C.dilation_generator(alg, Fraction(rng.randint(1, 3))),
                ])
                x = J.random_invertible(alg, rng)
                y = J.random_invertible(alg, rng)
                try:
                    if J.det(J.sub(x, y)) == 0:
                        continue
                    assert C.hua_check(alg, x, y)
                    assert C.covdet_check(alg, word, x, y)
                    done += 1
                except J.SingularElementError:
                    continue


def test_criterion_07_fischer_leibnitz():
    with criterion("7-fischer-leibnitz"):
        for n in (1, 2, 3, 6):
            vars = tuple(f"x{i+1}" for i in range(n))
            rng = random.Random(f"acceptance:leibnitz:{n}")
            gen_deg = 2 if n == 6 else 3
            done = 0
            while done < 100:
                gen = random_poly(vars, rng, gen_deg, terms=3)
                if gen.is_zero():
                    continue
                expansion = LeibnitzExpansion(gen)
                for _ in range(5):
                    if done >= 100:
                        break
                    f = random_poly(vars, rng, 4)
                    g = random_poly(vars, rng, 4)
                    assert expansion.expand(f, g) == apply_diffop(gen, f * g)
                    done += 1


def test_criterion_08_zeta_numeric():
    with criterion("8-zeta-numeric"):
        for s in (-0.6, -0.7, -0.8):
            t0 = time.perf_counter()
            rep = Z.numeric_zeta_check(2, 1, s, Z.GaussianTest.make(3, 1))
            assert rep.max_rel_error < 1e-4, rep.rel_errors
            assert max(rep.gs_residuals.values()) < 1e-4
            assert time.perf_counter() - t0 < 60.0
        rng = random.Random("acceptance:flips")
        for _ in range(100):
            s = rng.uniform(-3.0, 3.0)
            assert Z.flip_residual_quad(2, 1, s) < 1e-12
            assert Z.flip_residual_pm(Z.euclidean_matrices("b1", 2, 5, 12), s) < 1e-12
            assert Z.flip_residual_eo(Z.euclidean_matrices("c1", 3, 1, 6), s) < 1e-12
            assert Z.flip_residual_eo(Z.euclidean_matrices("c2", 5, 1, 15), s) < 1e-12


def test_criterion_09_kappa_consistency():
    with criterion("9-kappa"):
        for (p, q) in [(2, 1), (2, 2), (3, 2)]:
            disp = Z.kappa_const("rpq", p=p, q=q)
            tele = Z.kappa_rpq_from_gammas(p, q)
            assert disp.num * tele.den == tele.num * disp.den
        rng = random.Random("acceptance:kappa")
        for (r, d, n, r_plus) in [(2, 2, 4, 2), (3, 2, 9, 3)]:
            display = Z.kappa_as_gamma(Z.kappa_const("split", r=r, d=d))
            for eps in "+-":
                for eta in "+-":
                    assert Z.kappa_split_quotient(r, d, n, r_plus, eps, eta).equals(display)
            for _ in range(20):
                s = rng.uniform(0.2, 1.5)
                t = rng.uniform(0.2, 1.5)
                va = display.evaluate(s, t)
                vb = Z.kappa_split_quotient(r, d, n, r_plus, "+", "-").evaluate(s, t)
                assert abs(va - vb) <= 1e-10 * max(abs(va), abs(vb))


def test_criterion_10_determinism(tmp_path):
    with criterion("10-determinism"):
        reports = []
        for tag in ("one", "two"):
            path = tmp_path / f"{tag}.json"
            proc = subprocess.run(
                [sys.executable, "-m", "covjord.cli", "--suite", "zeta-matrices",
                 "--seed", "7", "--report", str(path)],
                capture_output=True, text=True, timeout=600,
            )
            assert proc.returncode == 0, proc.stderr
            reports.append(json.loads(path.read_text()))
        for rep in reports:
            for check in rep["checks"]:
                check.pop("millis")
        assert reports[0] == reports[1]
