"""CLI contract: flags, exit codes, report schema, determinism."""

import hashlib
import json
import os
import signal
import subprocess
import sys
import time

import pytest

from covjord import detpower as D
from covjord import jordan as J
from covjord import rpq as R
from covjord.cli import main
from covjord.suites import SUITES, Check, SuiteConfig, _execute, _worker_count, build_checks

ENV = dict(os.environ)
TWO_CPUS = pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                              reason="forked workers need at least 2 usable CPUs")


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
    def run_suite(*args):
        raise AssertionError("a check ran although the report cannot be written")

    monkeypatch.setattr("covjord.cli.run_suite", run_suite)
    assert main(["--suite", "bernstein", "--report", str(tmp_path / "missing" / "r.json")]) == 2


@pytest.mark.parametrize("argv, code", [
    (["--suite", "brackets", "--algebra", "mat:2"], 2),
    (["--suite", "jordan-axioms", "--algebra", "sym:9"], 3),
], ids=["configuration", "resource-limit"])
def test_refused_run_leaves_the_report_alone(tmp_path, argv, code):
    # the checks are built before the report is opened: a refused run
    # neither truncates an existing report nor creates a new one
    kept = tmp_path / "kept.json"
    kept.write_text('{"earlier": "report"}\n')
    assert main([*argv, "--report", str(kept)]) == code
    assert kept.read_text() == '{"earlier": "report"}\n'
    fresh = tmp_path / "fresh.json"
    assert main([*argv, "--report", str(fresh)]) == code
    assert not fresh.exists()


def test_environment_error_names_variable(monkeypatch, capsys):
    monkeypatch.setenv("COVJORD_SEED", "abc")
    assert main(["--suite", "bernstein"]) == 2
    err = capsys.readouterr().err
    assert "COVJORD_SEED" in err and "--seed" not in err
    # a flag on the command line wins over the environment value
    assert main(["--suite", "bernstein", "--seed", "2"]) == 0


def test_import_leaves_scipy_out():
    # the CLI's import time is its set-up time: the worker pool's modules are
    # imported only when checks run in workers
    modules = ("scipy", "multiprocessing", "concurrent.futures")
    code = f"import sys, covjord.cli; print([m for m in {modules!r} if m in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


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


def test_reports_do_not_depend_on_jobs(tmp_path):
    reports, codes = [], []
    for jobs in ("1", "2"):
        path = tmp_path / f"jobs{jobs}.json"
        proc = run_cli(["--suite", "all", "--seed", "0", "--jobs", jobs, "--report", str(path)])
        assert "Traceback" not in proc.stderr
        codes.append(proc.returncode)
        report = json.loads(path.read_text())
        for check in report["checks"]:
            check.pop("millis")
        reports.append(report)
    assert codes[0] == codes[1]
    assert reports[0] == reports[1]


def own_pid() -> float:
    time.sleep(0.05)  # long enough that one worker cannot take every task
    return float(os.getpid())


def pid_checks(count: int) -> list[Check]:
    return [Check(f"pid-{i}", "the id of the process that ran it", own_pid, float("inf"))
            for i in range(count)]


def test_worker_count_is_capped(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    assert _worker_count(1, 108) == 1
    assert _worker_count(8, 108) == 3  # the CPUs this process may use
    assert _worker_count(8, 2) == 2  # the checks
    assert _worker_count(2, 0) == 1
    # where the usable CPUs are unknown, every CPU counts
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert _worker_count(8, 108) == 4
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _worker_count(8, 108) == 1


def test_one_worker_runs_in_this_process():
    # capped at one check, --jobs 8 forks nothing
    [result] = _execute(pid_checks(1), jobs=8)
    assert result.status == "pass" and result.residual == os.getpid()


@TWO_CPUS
def test_execute_runs_checks_in_worker_processes():
    checks = pid_checks(8)
    results = _execute(checks, jobs=2)
    assert [r.id for r in results] == [c.id for c in checks]
    assert all(r.status == "pass" and r.millis >= 50 for r in results)
    pids = {r.residual for r in results}
    assert len(pids) >= 2 and os.getpid() not in pids
    with pytest.raises(ChildProcessError):  # every worker was reaped
        os.waitpid(-1, os.WNOHANG)


# runs `covjord --jobs 2`, then prints the pool modules it imported
POOL_MODULES = """
import sys
from covjord import cli
code = cli.main(["--suite", "bernstein", "--jobs", "2", "--report", sys.argv[1]])
print([m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
sys.exit(code)
"""


@TWO_CPUS
def test_jobs_leave_the_pool_modules_out(tmp_path):
    # the workers are bare forks
    proc = subprocess.run([sys.executable, "-c", POOL_MODULES, str(tmp_path / "r.json")],
                          capture_output=True, text=True, env=ENV, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"


@TWO_CPUS
def test_plans_beyond_one_pipe_write_run_in_batches():
    checks = [Check(f"c-{i}", "passes", lambda: 0.0) for i in range(2500)]
    results = _execute(checks, jobs=2)
    assert [r.id for r in results] == [c.id for c in checks]
    assert all(r.status == "pass" for r in results)


def raise_large() -> float:
    raise ValueError("x" * 100 * 1024)


@TWO_CPUS
def test_large_details_come_back_whole():
    # a result larger than a pipe buffer is framed, not truncated
    checks = [Check(f"large-{i}", "raises a 100 KiB message", raise_large) for i in range(3)]
    alone, forked = _execute(checks, jobs=1), _execute(checks, jobs=2)
    assert [r.detail for r in forked] == [r.detail for r in alone]
    assert all(r.status == "error" and len(r.detail) > 100 * 1024 for r in forked)


# runs `covjord --jobs 2` on a plan of argv[3]: "mark" records the pid of its
# worker under argv[1] and sleeps for argv[4] seconds, "exit" also ends its
# worker with code 3
LOSE_A_WORKER = """
import os, sys, time
from covjord import cli, suites

def mark():
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    time.sleep(float(sys.argv[4]))
    return 0.0

def exit():
    mark()
    os._exit(3)

plan = [suites.Check(f"{name}-{i}", "records its worker", globals()[name])
        for i, name in enumerate(sys.argv[3].split(","))]
suites.build_checks = lambda config: plan
sys.exit(cli.main(["--suite", "bernstein", "--jobs", "2", "--report", sys.argv[2]]))
"""


def run_plan(tmp_path, plan, sleep=0.05):
    """Start LOSE_A_WORKER on `plan`; its pid directory and report path."""
    pid_dir = tmp_path / "pids"
    pid_dir.mkdir()
    report = tmp_path / "report.json"
    argv = [sys.executable, "-c", LOSE_A_WORKER, str(pid_dir), str(report), ",".join(plan),
            str(sleep)]
    return pid_dir, report, subprocess.Popen(argv, env=ENV, stdout=subprocess.DEVNULL,
                                             stderr=subprocess.PIPE, text=True)


def worker_pids(pid_dir) -> list[int]:
    return sorted(int(path.name) for path in pid_dir.iterdir())


def assert_all_reaped(pids):
    assert pids
    for pid in pids:  # no worker outlives the CLI
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


@TWO_CPUS
def test_cli_survives_a_lost_worker(tmp_path):
    plan = ["mark"] * 3 + ["exit"] + ["mark"] * 3
    pid_dir, report, proc = run_plan(tmp_path, plan)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1, err
    assert "Traceback" not in err
    checks = json.loads(report.read_text())["checks"]
    assert [c["id"] for c in checks] == [f"{name}-{i}" for i, name in enumerate(plan)]
    # the lost worker costs only its own check; the other worker runs the rest
    assert checks[3]["status"] == "error" and "exit code 3" in checks[3]["detail"]
    assert [c["status"] for i, c in enumerate(checks) if i != 3] == ["pass"] * 6
    assert_all_reaped(worker_pids(pid_dir))


@TWO_CPUS
def test_cli_survives_losing_every_worker(tmp_path):
    pid_dir, report, proc = run_plan(tmp_path, ["exit"] * 5)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1, err
    assert "Traceback" not in err
    checks = json.loads(report.read_text())["checks"]
    pids = worker_pids(pid_dir)
    assert len(pids) == 2 and all(c["status"] == "error" for c in checks)
    # each worker's own check names it; the checks no worker took name both
    ran = {c["detail"] for c in checks[:2]}
    assert ran == {f"worker process lost: pid {pid} exit code 3" for pid in pids}
    assert all(all(f"pid {pid} exit code 3" in c["detail"] for pid in pids)
               for c in checks[2:])
    assert_all_reaped(pids)


@TWO_CPUS
def test_interrupt_leaves_no_worker(tmp_path):
    pid_dir, _, proc = run_plan(tmp_path, ["mark"] * 4, sleep=60)
    deadline = time.monotonic() + 60
    while len(list(pid_dir.iterdir())) < 2 and time.monotonic() < deadline:
        time.sleep(0.05)
    os.kill(proc.pid, signal.SIGINT)  # the CLI alone, as the workers sleep on
    proc.communicate(timeout=60)
    assert proc.returncode != 0
    assert_all_reaped(worker_pids(pid_dir))
