"""CLI contract: flags, exit codes, report schema, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from covjord import detpower as D
from covjord import jordan as J
from covjord import rpq as R
from covjord.cli import main
from covjord.suites import SUITES, SuiteConfig, build_checks

ENV = dict(os.environ)


def run_cli(args, env=None, timeout=600):
    return subprocess.run(
        [sys.executable, "-m", "covjord.cli", *args],
        capture_output=True, text=True, env=env or ENV, timeout=timeout,
    )


def test_pass_exit_code(tmp_path):
    report = tmp_path / "report.json"
    proc = run_cli(["--suite", "bernstein", "--algebra", "sym:2",
                    "--report", str(report)])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    assert data["suite"] == "bernstein"
    assert data["failed"] == 0
    for check in data["checks"]:
        assert {"id", "identity", "status", "residual", "millis"} <= set(check)


def test_configuration_error_exit_code():
    proc = run_cli(["--suite", "bernstein", "--algebra", "skewr:4"])
    assert proc.returncode == 2
    proc = run_cli(["--suite", "not-a-suite"])
    assert proc.returncode == 2
    proc = run_cli(["--suite", "zeta-numeric", "--algebra", "rpq:2,2"])
    assert proc.returncode == 2


@pytest.mark.parametrize("args, env", [
    (["--suite", "bernstein"], {"COVJORD_SEED": "abc"}),
    (["--suite", "bernstein"], {"COVJORD_MAX_DEGREE": "abc"}),
    (["--suite", "bernstein"], {"COVJORD_JOBS": "abc"}),
    (["--suite", "jordan-axioms", "--algebra", "sym:0"], {}),
    (["--suite", "covariance", "--algebra", "rpq:1,1"], {}),
    (["--suite", "zeta-matrices", "--tolerance", "nan"], {}),
    (["--suite", "zeta-matrices", "--tolerance=-1e-3"], {}),
    (["--suite", "bernstein", "--report", "{tmp}/missing/report.json"], {}),
    (["--suite", "leibnitz", "--algebra", "sym:99"], {}),
    (["--suite", "zeta-matrices", "--algebra", "sym:3"], {}),
    (["--suite", "all"], {"COVJORD_ALGEBRA": "sym:2"}),
], ids=["env-seed", "env-max-degree", "env-jobs", "sym0", "rpq11-covariance",
        "tolerance-nan", "tolerance-negative", "report-unwritable",
        "leibnitz-takes-no-algebra", "zeta-matrices-sym3", "all-takes-no-algebra"])
def test_configuration_probes_exit_2(tmp_path, args, env):
    args = [a.replace("{tmp}", str(tmp_path)) for a in args]
    proc = run_cli(args, env={**ENV, **env})
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "error" in proc.stderr.strip().splitlines()[-1]


def test_resource_limit_exit_code():
    proc = run_cli(["--suite", "jordan-axioms", "--algebra", "rpq:9,9"])
    assert proc.returncode == 3
    # the dimension guard reads the spec, before the algebra is built
    # (n = 28 and n = 49 take minutes to build)
    for spec in ("sym:7", "mat:7"):
        proc = run_cli(["--suite", "jordan-axioms", "--algebra", spec], timeout=30)
        assert proc.returncode == 3, proc.stderr
        assert "Traceback" not in proc.stderr
    proc = run_cli(["--suite", "jordan-axioms", "--algebra", "sym:2",
                    "--max-degree", "9"])
    assert proc.returncode == 3
    # the degree budget binds suites that take no algebra too
    proc = run_cli(["--suite", "leibnitz", "--max-degree", "9"])
    assert proc.returncode == 3


def test_unwritable_report_fails_before_any_check(tmp_path, monkeypatch):
    def run_suite(config):
        raise AssertionError("a check ran although the report cannot be written")

    monkeypatch.setattr("covjord.cli.run_suite", run_suite)
    assert main(["--suite", "bernstein", "--report", str(tmp_path / "missing" / "r.json")]) == 2


def test_environment_error_names_variable(monkeypatch, capsys):
    monkeypatch.setenv("COVJORD_SEED", "abc")
    assert main(["--suite", "bernstein"]) == 2
    err = capsys.readouterr().err
    assert "COVJORD_SEED" in err and "--seed" not in err
    # a flag on the command line wins over the environment value
    assert main(["--suite", "bernstein", "--seed", "2"]) == 0


def test_import_leaves_scipy_out():
    code = "import sys, covjord.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_zeta_suite_leaves_scipy_and_numpy_out():
    # the quadrature is the package's own: running it imports neither
    code = ("import sys; from covjord import cli; code = cli.main(['--suite', 'zeta-numeric']); "
            "print(code, 'scipy' in sys.modules, 'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", "False", "False"]


def test_check_failure_exit_code(tmp_path):
    # an impossible tolerance forces numeric checks to fail with exit 1
    proc = run_cli(["--suite", "zeta-matrices", "--tolerance", "1e-30"])
    assert proc.returncode == 1


def test_determinism(tmp_path):
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    for path in (r1, r2):
        proc = run_cli(["--suite", "zeta-matrices", "--seed", "11",
                        "--report", str(path)])
        assert proc.returncode == 0
    a = json.loads(r1.read_text())
    b = json.loads(r2.read_text())
    for rep in (a, b):
        for check in rep["checks"]:
            check.pop("millis")
    assert a == b


def test_seed_changes_draws(tmp_path):
    # different seeds still pass but the runs are independent
    proc = run_cli(["--suite", "bernstein", "--algebra", "mat:2", "--seed", "5"])
    assert proc.returncode == 0


def test_env_override(tmp_path):
    env = dict(ENV)
    env["COVJORD_SUITE"] = "bernstein"
    env["COVJORD_ALGEBRA"] = "sym:2"
    report = tmp_path / "env.json"
    env["COVJORD_REPORT"] = str(report)
    proc = run_cli([], env=env)
    assert proc.returncode == 0
    assert json.loads(report.read_text())["suite"] == "bernstein"


def test_registry_dump():
    proc = run_cli(["--registry"])
    assert proc.returncode == 0
    rows = json.loads(proc.stdout)
    assert any(row["kind"] == "herm3oc" and row["d"] == 16 for row in rows)


def test_main_callable_directly(tmp_path):
    assert main(["--suite", "bernstein", "--algebra", "rpq:2,1"]) == 0


def test_registry_resolves_every_suite():
    documented = {"leibnitz", "jordan-axioms", "bernstein", "main-identity",
                  "fourier-weyl", "covariance", "brackets", "zeta-matrices",
                  "zeta-numeric", "rankin-cohen"}
    assert set(SUITES) == documented
    for name, suite in SUITES.items():
        assert callable(suite.build)
        if name == "leibnitz":
            assert suite.algebra is None  # the one suite that takes no algebra
        else:
            J.algebra_from_spec(suite.algebra)
        assert build_checks(SuiteConfig(name))


def test_all_suite_ids_unique():
    ids = [check.id for check in build_checks(SuiteConfig("all"))]
    assert len(ids) == len(set(ids))


def test_all_plan_leaves_rankin_cohen_out():
    # the plan of `all` is unchanged by the rankin-cohen row: the same 108
    # ids in the same order
    ids = [check.id for check in build_checks(SuiteConfig("all"))]
    assert len(ids) == 108 and not any("rankin-cohen" in i for i in ids)
    assert hashlib.sha256("\n".join(ids).encode()).hexdigest() == \
        "9627fa7008f64eab2f17ea4a778da9e45b79e8b7954c9312840272b7f9f50885"


def test_rankin_cohen_suite_passes(tmp_path):
    report = tmp_path / "rc.json"
    proc = run_cli(["--suite", "rankin-cohen", "--report", str(report)])
    assert proc.returncode == 0, proc.stderr
    data = json.loads(report.read_text())
    assert data["algebra"] == "sym:1" and data["failed"] == 0
    assert [c["id"] for c in data["checks"] if c["status"] == "pass"] == \
        [f"rankin-cohen-k{k}" for k in range(1, 7)]
    # off the line the closed form has no meaning: a configuration error
    assert run_cli(["--suite", "rankin-cohen", "--algebra", "sym:2"]).returncode == 2


def test_sign_branch_flip_runs_on_hermc(tmp_path):
    report = tmp_path / "bernstein.json"
    assert main(["--suite", "bernstein", "--algebra", "hermc:2", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert [c["id"] for c in data["checks"] if c["status"] == "pass"] == \
        ["bernstein-factorization", "sign-branch-flip"]


def count_calls(monkeypatch, module, name) -> list:
    """Replace module.name by a wrapper that records each call's arguments."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_bernstein_suite_builds_the_b_function_once(monkeypatch, tmp_path):
    # the flip check reads b(k) and wave(det^k) from per-algebra tables
    D.bernstein_poly.cache_clear()
    D._wave_det_power.cache_clear()
    waves = count_calls(monkeypatch, D, "det_wave_apply")
    plain = count_calls(monkeypatch, D, "apply_diffop")
    assert main(["--suite", "bernstein", "--algebra", "sym:2",
                 "--report", str(tmp_path / "bernstein.json")]) == 0
    assert len(waves) <= 1
    assert len(plain) <= 3  # one wave(det^k) for each k = 1, 2, 3


@pytest.mark.parametrize("argv", [["--suite", "fourier-weyl", "--algebra", "rpq:2,1"],
                                  ["--suite", "rankin-cohen"]],
                         ids=["fourier-weyl", "rankin-cohen"])
def test_suites_build_E_once(argv, monkeypatch, tmp_path):
    # fourier-side-family and explicit-transcriptions share one E, and so
    # do the six chain lengths of rankin-cohen
    D.build_Est.cache_clear()
    conjugations = count_calls(monkeypatch, D, "fourier_conjugate")
    assert main([*argv, "--report", str(tmp_path / "report.json")]) == 0
    assert len(conjugations) == 1


@pytest.mark.parametrize("suite, passed", [("covariance", 15), ("brackets", 23)])
def test_operator_suites_run_on_the_spin_factor(suite, passed, tmp_path):
    # rpq:1,2 is a copy of sym:2 on the quadric route
    report = tmp_path / f"{suite}.json"
    assert main(["--suite", suite, "--algebra", "rpq:1,2", "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert (data["passed"], data["failed"]) == (passed, 0)


def test_bracket_certificates_owned_by_bracket_suite():
    def bracket_ids(suite):
        return [c.id for c in build_checks(SuiteConfig(suite))
                if c.id.startswith("covariance-B")]

    assert not bracket_ids("covariance")
    assert bracket_ids("all") == bracket_ids("brackets")


@pytest.mark.parametrize("suite", ["covariance", "brackets"])
def test_build_checks_defers_operator_builds(suite, monkeypatch):
    # explicit_F and f_chain are built inside the checks, where their cost
    # counts in a check's millis, not while the checks are being built
    def refuse(*args):
        raise AssertionError("operator built while building the checks")

    monkeypatch.setattr(R, "explicit_F", refuse)
    monkeypatch.setattr(R, "f_chain", refuse)
    assert build_checks(SuiteConfig(suite))


def test_jobs_is_reserved(tmp_path):
    reports = []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.json"
        assert main(["--suite", "zeta-matrices", "--seed", "3", "--jobs", jobs,
                     "--report", str(path)]) == 0
        report = json.loads(path.read_text())
        for check in report["checks"]:
            check.pop("millis")
        reports.append(report)
    assert reports[0] == reports[1]
