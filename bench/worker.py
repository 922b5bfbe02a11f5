"""One round of a workload in a fresh interpreter, so the program's caches
start cold as they do for every CLI user.

  python bench/worker.py --workload W --seed N --launch T --out FILE
                         [--traced] [--check]

T is the time.monotonic() reading taken just before this process was
started; set-up time runs from there to the moment the inputs are ready.
The result is written to FILE as JSON.  Run by run.py, with src/ on
PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import resource
import sys
import time


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _report_digest(report: dict) -> str:
    stripped = dict(report)
    stripped["checks"] = [{k: v for k, v in c.items() if k != "millis"}
                          for c in report["checks"]]
    return hashlib.sha256(json.dumps(stripped, sort_keys=True).encode()).hexdigest()


def _start_tracer(traced: bool):
    if not traced:
        return None
    import tracer as tr

    tracer = tr.Tracer()
    tracer.install()
    return tracer


def run_workload(args) -> dict:
    import workloads as wl

    setup, run, digest = wl.WORKLOADS[args.workload]
    tracer = _start_tracer(args.traced)
    inputs = setup(args.seed)
    setup_s = time.monotonic() - args.launch

    ops = wl.Ops()
    t0 = time.perf_counter()
    outputs = run(inputs, ops)
    wall_s = time.perf_counter() - t0
    peak = _peak_rss_mb()

    result = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak,
              "attempted": len(ops.ids), "failed": ops.failed,
              "digest": digest(outputs)}
    if tracer is not None:
        result["trace"] = tracer.metrics()
        tracer.uninstall()
        tracer.write(args.trace_out)
    if args.check:
        import checks

        t0 = time.perf_counter()
        ok, detail = checks.CHECKS[args.workload](inputs, outputs, args.seed)
        result["check"] = {"ok": ok, "detail": detail, "s": time.perf_counter() - t0}
    return result


def run_cli_inprocess(args) -> dict:
    """The CLI's `main` called in this process, as the traced cli-all round
    needs; --jobs 1, because with a thread pool two checks can race to fill
    the same cache and the counts would not repeat."""
    t0 = time.perf_counter()
    import covjord.cli

    import_s = time.perf_counter() - t0
    setup_s = time.monotonic() - args.launch
    tracer = _start_tracer(args.traced)
    argv = ["--suite", "all", "--seed", str(args.seed), "--jobs", "1", "--report", args.report]
    t1 = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        code = covjord.cli.main(argv)
    main_s = time.perf_counter() - t1
    peak = _peak_rss_mb()
    with open(args.report, encoding="utf-8") as fh:
        report = json.load(fh)
    failed = [c["id"] for c in report["checks"] if c["status"] != "pass"]
    result = {"setup_s": setup_s, "wall_s": import_s + main_s, "peak_rss_mb": peak,
              "attempted": len(report["checks"]), "failed": failed,
              "digest": _report_digest(report), "exit_code": code}
    if tracer is not None:
        metrics = tracer.metrics()
        tracer.uninstall()
        metrics["suites.unattributed_s"] = (
            main_s - metrics["suites.build_checks.s"] - metrics["suites.execute.s"])
        result["trace"] = metrics
        tracer.write(args.trace_out)
    if args.check:
        ok = (code == 0) == (not failed) and code in (0, 1)
        result["check"] = {"ok": ok, "detail": "" if ok else f"exit code {code}", "s": 0.0}
    return result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--launch", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out")
    parser.add_argument("--report")
    parser.add_argument("--check", action="store_true")
    args = parser.parse_args()
    if args.workload == "cli-all":
        result = run_cli_inprocess(args)
    else:
        result = run_workload(args)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
