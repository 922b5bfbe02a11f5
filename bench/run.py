"""Benchmark of the covjord certifier: time to verdict, set-up time and peak
memory on four workloads, and a traced run with per-layer metrics.

  python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

W is one workload, or `all` for every workload in turn (a result line per
workload, then one object with the metrics prefixed by the workload).

Run from the root of a source checkout.  Every round is a fresh Python
process with src/ on PYTHONPATH.  Rounds repeat until about S seconds of
rounds have run (at least MIN_ROUNDS), and the metrics are medians over the
rounds.  The last line of standard output is one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall_s, setup_s,
peak_rss_mb); with --trace 1 one untraced and one traced round run and the
metrics are the per-layer ones plus the tracing overhead.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

WORKLOADS = ("main-identity", "covariance", "zeta-quadrature", "cli-all")
MIN_ROUNDS = {"main-identity": 3, "covariance": 2, "zeta-quadrature": 3, "cli-all": 3}
CLI_SETUP_SAMPLES = 5
ROUND_TIMEOUT_S = 160
RUN_BUDGET_S = 150  # no new round starts once a run would pass this

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(argv: list[str], env: dict) -> tuple[float, float, int]:
    """Run argv to completion; wall seconds from spawn to exit, the child's
    own peak RSS in MB (from wait4) and its exit code."""
    start = time.monotonic()
    proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.DEVNULL)
    timer = threading.Timer(ROUND_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024.0, proc.returncode


def worker_round(workload: str, seed: int, env: dict, tag: str,
                 traced: bool = False, check: bool = False) -> dict:
    out = OUT / f"{workload}-{seed}-{tag}.json"
    argv = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--out", str(out)]
    if traced:
        argv += ["--traced", "--trace-out", str(OUT / f"trace-{workload}-{seed}.json")]
    if workload == "cli-all":
        argv += ["--report", str(OUT / f"report-{seed}-{tag}.json")]
    if check:
        argv.append("--check")
    launch = time.monotonic()
    _, _, code = _spawn(argv + ["--launch", repr(launch)], env)
    if code != 0:
        raise BenchError(f"{workload} worker exited with code {code}")
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def cli_round(seed: int, env: dict, tag: str) -> dict:
    """The path users run: a fresh `covjord --suite all` process."""
    report_path = OUT / f"report-{seed}-{tag}.json"
    report_path.unlink(missing_ok=True)
    argv = [sys.executable, "-m", "covjord.cli", "--suite", "all", "--seed", str(seed),
            "--jobs", "2", "--report", str(report_path)]
    wall, peak, code = _spawn(argv, env)
    if not report_path.exists():
        raise BenchError(f"covjord --suite all exited with code {code} and wrote no report")
    with open(report_path, encoding="utf-8") as fh:
        report = json.load(fh)
    failed = [c["id"] for c in report["checks"] if c["status"] != "pass"]
    for c in report["checks"]:
        c.pop("millis")
    return {"wall_s": wall, "peak_rss_mb": peak, "attempted": len(report["checks"]),
            "failed": failed, "exit_code": code, "report": report}


def cli_setup(env: dict) -> list[float]:
    samples = []
    for _ in range(CLI_SETUP_SAMPLES):
        wall, _, code = _spawn([sys.executable, "-c", "import covjord.cli"], env)
        if code != 0:
            raise BenchError("import covjord.cli failed")
        samples.append(wall)
    return samples


def _rounds(run_one, seconds: float, min_rounds: int) -> list[dict]:
    """Whole rounds until about `seconds` of round time has run: a new round
    starts while it would end nearer the target than stopping now.  Time
    spent in correctness checks does not count."""
    rounds: list[dict] = []
    start = time.monotonic()
    checking = 0.0
    while True:
        r = run_one(len(rounds))
        rounds.append(r)
        checking += r.get("check", {}).get("s", 0.0)
        spent = time.monotonic() - start
        per_round = (spent - checking) / len(rounds)
        if len(rounds) >= min_rounds and (
                spent - checking + per_round / 2 >= seconds or spent + per_round > RUN_BUDGET_S):
            return rounds


def measure(workload: str, seed: int, seconds: float, env: dict) -> dict:
    if workload == "cli-all":
        setup = cli_setup(env)
        rounds = _rounds(lambda k: cli_round(seed, env, f"r{k}"), seconds, MIN_ROUNDS[workload])
        reports = [r.pop("report") for r in rounds]
        consistent = all(rep == reports[0] for rep in reports)
        exit_ok = all(r["exit_code"] == (1 if r["failed"] else 0) for r in rounds)
        correct = consistent and exit_ok
        detail = ("" if consistent else "reports for the same seed differ apart from millis; ") \
            + ("" if exit_ok else "exit code does not match the report")
    else:
        rounds = _rounds(lambda k: worker_round(workload, seed, env, f"r{k}", check=k == 0),
                         seconds, MIN_ROUNDS[workload])
        setup = [r["setup_s"] for r in rounds]
        check = rounds[0]["check"]
        same = all(r["digest"] == rounds[0]["digest"] for r in rounds)
        correct = check["ok"] and same
        detail = check["detail"] or ("" if same else "outputs differ between rounds")
    if detail:
        print(f"{workload}: {detail}", file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(r["wall_s"] for r in rounds), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    print(f"{workload}: {len(rounds)} rounds, wall_s "
          f"{[round(r['wall_s'], 3) for r in rounds]}, setup_s {[round(s, 3) for s in setup]}",
          file=sys.stderr)
    return _result(correct, rounds, metrics)


def trace(workload: str, seed: int, env: dict) -> dict:
    plain = worker_round(workload, seed, env, "plain", check=True)
    traced = worker_round(workload, seed, env, "traced", traced=True)
    same = plain["digest"] == traced["digest"]
    correct = plain["check"]["ok"] and same
    if not correct:
        print(f"{workload}: {plain['check']['detail'] or 'traced outputs differ'}",
              file=sys.stderr)
    units = _per_layer_units()
    metrics = {name: (traced["trace"][name], unit) for name, unit in units.items()
               if name in traced["trace"]}
    metrics["trace.overhead_pct"] = (100.0 * (traced["wall_s"] / plain["wall_s"] - 1.0), "%")
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"per-layer metrics not produced: {sorted(missing)}")
    return _result(correct, [plain, traced], metrics)


def _per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def _result(correct: bool, rounds: list[dict], metrics: dict) -> dict:
    return {
        "correct": bool(correct),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(len(r["failed"]) for r in rounds),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "covjord" / "__init__.py").is_file():
        print(f"error: no covjord sources under {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = _env()
    # byte-compile once, so no round pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "covjord")],
                   env=env, check=True, stdout=subprocess.DEVNULL)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            if args.trace:
                results[name] = trace(name, args.seed, env)
            else:
                results[name] = measure(name, args.seed, args.seconds, env)
            if len(names) > 1:
                print(f"{name}: {json.dumps(results[name])}")
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        print(json.dumps(results[args.workload]))
    else:  # one object for all workloads, metrics prefixed with the workload
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
