"""Command-line entry point: run verification suites, emit JSON reports.

Exit codes: 0 all checks pass, 1 at least one check failed or raised (a
check that raised has status "error" and counts in "failed"),
2 configuration error (bad flags or environment values, unknown/unsupported
algebra or one the suite cannot use, unwritable report), 3 resource limit
(dimension or degree beyond the guarded budget; the dimension is read from
the spec before the algebra is built).

Every flag has an environment-variable override COVJORD_<FLAG>.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys

from .suites import SUITES, ConfigurationError, ResourceLimitError, SuiteConfig, run_suite

EXIT_PASS = 0
EXIT_CHECK_FAILURE = 1
EXIT_CONFIGURATION = 2
EXIT_RESOURCE_LIMIT = 3

_ENV_PREFIX = "COVJORD_"


def _env_default(name: str, fallback=None):
    return os.environ.get(_ENV_PREFIX + name.upper().replace("-", "_"), fallback)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covjord",
        description="Exact verification suites for covariant bi-differential "
                    "operator families on simple real Jordan algebras.",
    )
    parser.add_argument("--suite", default=_env_default("suite", "all"),
                        help=f"one of: {', '.join(SUITES)}, all")
    parser.add_argument("--algebra", default=_env_default("algebra"),
                        help="algebra spec, e.g. sym:3, mat:2, hermc:2, rpq:2,1")
    # typed flags default to None; _typed_defaults fills them after parsing
    parser.add_argument("--max-degree", type=int,
                        help="polynomial degree budget for sampled checks")
    parser.add_argument("--seed", type=int,
                        help="seed determining every random draw")
    parser.add_argument("--tolerance", type=float,
                        help="numeric tolerance override for floating checks")
    parser.add_argument("--report", default=_env_default("report"),
                        help="path for the JSON report (stdout summary either way)")
    parser.add_argument("--jobs", type=int,
                        help="reserved: accepted and validated (>= 1); checks "
                             "run in order on one thread")
    parser.add_argument("--registry", action="store_true",
                        help="print the algebra classification registry as JSON and exit")
    return parser


# typed flag -> (type, default when neither the flag nor its variable is set)
_TYPED = {"max_degree": (int, 3), "seed": (int, 0), "tolerance": (float, None), "jobs": (int, 1)}


def _typed_defaults(args: argparse.Namespace) -> None:
    """Give each typed flag left unset its environment value, else its
    default; a malformed environment value is reported by its variable."""
    for name, (convert, fallback) in _TYPED.items():
        if getattr(args, name) is not None:
            continue
        raw = _env_default(name)
        if raw is None:
            setattr(args, name, fallback)
            continue
        try:
            setattr(args, name, convert(raw))
        except ValueError:
            raise ConfigurationError(
                f"{_ENV_PREFIX}{name.upper()}: invalid {convert.__name__} value {raw!r}"
            ) from None


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _typed_defaults(args)
    except ConfigurationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIGURATION

    if args.registry:
        from .jordan import registry_json

        print(json.dumps(registry_json(), indent=2, sort_keys=True))
        return EXIT_PASS

    bad_tolerance = args.tolerance is not None and not args.tolerance >= 0  # NaN too
    if args.jobs < 1 or args.max_degree < 0 or bad_tolerance:
        print("error: --jobs must be >= 1, --max-degree >= 0 and --tolerance >= 0",
              file=sys.stderr)
        return EXIT_CONFIGURATION

    config = SuiteConfig(
        suite=args.suite,
        algebra=args.algebra,
        max_degree=args.max_degree,
        seed=args.seed,
        tolerance=args.tolerance,
    )
    # the report is opened before any check runs, so a bad path fails at once
    try:
        sink = open(args.report, "w", encoding="utf-8") if args.report else None
    except OSError as exc:
        print(f"error: cannot write the report: {exc}", file=sys.stderr)
        return EXIT_CONFIGURATION
    with sink or contextlib.nullcontext():
        try:
            report = run_suite(config)
        except ResourceLimitError as exc:
            print(f"resource limit: {exc}", file=sys.stderr)
            return EXIT_RESOURCE_LIMIT
        except ConfigurationError as exc:
            print(f"configuration error: {exc}", file=sys.stderr)
            return EXIT_CONFIGURATION

        for check in report["checks"]:
            status = check["status"].upper()
            residual = check["residual"]
            print(f"[{status:4}] {check['id']:34} residual={residual:.3e} "
                  f"({check['millis']:.0f} ms)  {check['identity']}")
        print(f"suite={report['suite']} algebra={report['algebra']} seed={report['seed']}: "
              f"{report['passed']} passed, {report['failed']} failed")

        if sink is not None:
            try:
                json.dump(report, sink, indent=2, sort_keys=True)
                sink.write("\n")
            except OSError as exc:
                print(f"error: cannot write the report: {exc}", file=sys.stderr)
                return EXIT_CONFIGURATION

    return EXIT_PASS if report["failed"] == 0 else EXIT_CHECK_FAILURE


if __name__ == "__main__":
    sys.exit(main())
