"""The package's QAGS port (`zeta.quad`) against `scipy.integrate.quad`:
the value and the error estimate must be the same floats, bit for bit, on
the integrands of the numeric zeta checks, on smooth and singular model
integrands, and on an integrand that exhausts the subdivision limit."""

import math
import random
import warnings

import pytest

from covjord import quadpack
from covjord import zeta as Z

integrate = pytest.importorskip("scipy.integrate")
scipy_quad = integrate.quad

SIGMAS = (-0.95, -0.7, -0.3, 0.5)


def assert_same(f, a, b, **kwargs):
    mine = Z.quad(f, a, b, **kwargs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)  # scipy warns where ier != 0
        ref = scipy_quad(f, a, b, **kwargs)
    assert [x.hex() for x in mine] == [x.hex() for x in ref[:2]], (a, b, kwargs, mine, ref)


@pytest.fixture
def probe(monkeypatch):
    """Counts the epsilon-algorithm steps and records the final ier of every
    dqagse run."""
    seen = {"qelg": 0, "ier": []}
    qelg, qagse = quadpack._qelg, quadpack._qagse

    def counting_qelg(*args):
        seen["qelg"] += 1
        return qelg(*args)

    def recording_qagse(*args):
        out = qagse(*args)
        seen["ier"].append(out[2])
        return out

    monkeypatch.setattr(quadpack, "_qelg", counting_qelg)
    monkeypatch.setattr(quadpack, "_qagse", recording_qagse)
    return seen


def recorded_calls(fn, *args):
    """The (f, a, b, kwargs) of every quad call that fn(*args) makes, nested
    ones included."""
    calls = []

    def recorder(f, a, b, **kwargs):
        calls.append((f, a, b, kwargs))
        return quadpack.quad(f, a, b, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Z, "quad", recorder)
        fn(*args)
    return calls


@pytest.mark.parametrize("sigma", SIGMAS)
def test_angular_integrands(sigma, probe):
    for A, B in [(0, 0), (1, 0), (2, 1), (1, 4), (5, 2)]:
        calls = recorded_calls(Z._angular_halves, A, B, sigma)
        assert [c[1:3] for c in calls] == [(0.0, math.pi / 4), (math.pi / 4, math.pi / 2)]
        for f, a, b, kwargs in calls:
            assert_same(f, a, b, **kwargs)
    if sigma < 0:  # the cone singularity needs the extrapolation
        assert probe["qelg"] > 0


@pytest.mark.parametrize("args", [
    (1, 0, -0.7, 1.0, "+"),
    (2, 1, -0.3, 0.75, "-"),
    (1, 1, 0.5, 2.0, "-"),
    (3, 0, -0.95, 1.5, "+"),
])
def test_bipolar_grid_integrands(args, probe):
    calls = recorded_calls(Z._bipolar_integral_grid, *args)
    # the outer integral over v is the last call to finish but the first made
    outer, inner = calls[0], calls[1:]
    assert outer[1:3] == (0.0, 8.0 / math.sqrt(args[3])) and inner
    for f, a, b, kwargs in inner:
        assert_same(f, a, b, **kwargs)
    assert_same(outer[0], *outer[1:3], **outer[3])
    assert probe["qelg"] > 0


@pytest.mark.parametrize("seed", range(6))
def test_polynomial_times_gaussian(seed):
    rng = random.Random(seed)
    for _ in range(4):
        coeffs = [rng.uniform(-3, 3) for _ in range(rng.randint(1, 7))]
        width = rng.uniform(0.2, 3.0)
        center = rng.uniform(-1, 1)

        def f(x):
            acc = 0.0
            for c in coeffs:
                acc = acc * x + c
            return acc * math.exp(-width * (x - center) ** 2)

        a = rng.uniform(-4, 0)
        b = a + rng.choice((0.1, 1.0, 5.0))
        assert_same(f, a, b)
        assert_same(f, b, a)  # QUADPACK's own handling of b < a
        assert_same(f, a, b, epsabs=0.0, epsrel=1e-12, limit=200)


@pytest.mark.parametrize("sigma", (-0.9, -0.5, 0.3))
def test_endpoint_singularity(sigma, probe):
    def f(x):
        d = abs(x - 0.3)
        return d**sigma if d else 0.0

    assert_same(f, 0.3, 2.0)  # singular at the left end
    assert_same(f, -1.0, 0.3)  # and at the right end
    assert_same(f, 0.3, 2.0, epsabs=1e-8, epsrel=1e-10, limit=400)
    if sigma < 0:
        assert probe["qelg"] > 0


def test_oscillatory_integrand_exhausts_limit(probe):
    def f(x):
        return math.cos(200 * x) * x

    assert_same(f, 0.0, 10.0)
    assert probe["ier"] == [1]  # the subdivision limit
    assert probe["qelg"] > 0


def test_invalid_input_raises():
    for kwargs in ({"limit": 0}, {"epsabs": 0.0, "epsrel": 1e-20}):
        with pytest.raises(ValueError):
            Z.quad(math.exp, 0.0, 1.0, **kwargs)
        with pytest.raises(ValueError):
            scipy_quad(math.exp, 0.0, 1.0, **kwargs)
