"""Suite execution: how each check's outcome becomes its report status."""

import json
import math

import pytest

from covjord import jordan, suites
from covjord.cli import main
from covjord.suites import Check, Suite


def _raise() -> float:
    raise ZeroDivisionError("broken check")


def test_raising_check_reports_error(tmp_path, monkeypatch):
    checks = [Check("holds", "0 = 0", lambda: 0.0),
              Check("false", "1 = 0", lambda: 1.0),
              Check("raises", "1 / 0", _raise)]
    monkeypatch.setitem(suites.SUITES, "leibnitz", Suite(lambda config, alg: checks))
    report = tmp_path / "report.json"
    assert main(["--suite", "leibnitz", "--report", str(report)]) == 1
    data = json.loads(report.read_text())
    assert [c["status"] for c in data["checks"]] == ["pass", "fail", "error"]
    assert "detail" not in data["checks"][1]
    assert data["checks"][2]["detail"] == "ZeroDivisionError: broken check"
    assert math.isinf(data["checks"][2]["residual"])
    assert (data["passed"], data["failed"]) == (1, 2)


@pytest.mark.parametrize("spec", ["sym:1", "mat:1", "sym:3"])
def test_covariance_suite_on_odd_rank(spec, tmp_path):
    # an odd rank takes a square dilation scale, whose cocycle has a root
    report = tmp_path / "report.json"
    assert main(["--suite", "covariance", "--algebra", spec, "--report", str(report)]) == 0
    data = json.loads(report.read_text())
    assert [c["status"] for c in data["checks"]] == ["pass", "pass"]


@pytest.mark.parametrize("suite, spec", [
    ("brackets", "sym:2"), ("zeta-matrices", "mat:2"),
    ("zeta-numeric", "rpq:2,2"), ("rankin-cohen", "sym:2"), ("rankin-cohen", "sym:5")])
def test_refused_before_the_algebra_is_built(suite, spec, monkeypatch):
    # every row's condition reads the parsed spec, so an algebra the suite
    # cannot use is refused before any constructor runs
    def build(spec):
        raise AssertionError(f"{spec} built before the suite's condition was read")

    monkeypatch.setattr(jordan, "algebra_from_spec", build)
    assert main(["--suite", suite, "--algebra", spec]) == 2
