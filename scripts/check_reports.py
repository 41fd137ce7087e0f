"""Fit every pool trace of the benchmark workloads and compare each report with reference.json.

Run from anywhere in an lpplfit checkout; the package is imported from its
./src and the workloads from its ./perfbench, nothing is installed:

    python3 scripts/check_reports.py [WORKLOAD ...]

With no WORKLOAD every workload in ``perfbench/workloads.py`` is checked.
Each trace goes through the workload's own ``run``, so it is fitted and
checked exactly as a benchmark run fits and checks it. One line per trace:

    workload label sha256 same|differs iterations I xRATIO error E xRATIO verdict V agrees|differs

Each ratio divides the trace's own LM iterations or best average error by
the reference's, and the verdict is matched with the reference's. Then two
lines per workload:

    workload identical k/N, failed checks f
    workload totals iterations xRATIO, error ratio geomean G max M, verdicts a/N agree

where the iteration ratio is over the workload's summed iterations. The
failed checks themselves go to standard error. No wall time is printed, so
the output of two checkouts ``diff``s exactly. The exit status is 1 when any
report differs from ``perfbench/reference.json`` or any check fails, else 0.

A change that moves results on purpose no longer matches the reference; it
is compared with its parent commit instead, by a ``diff`` of this script's
output in the two checkouts.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from workloads import WORKLOADS  # noqa: E402

REFERENCE = ROOT / "perfbench" / "reference.json"


def check_workload(name: str, reference: dict) -> bool:
    """Fit and check every pool trace of one workload; True when all match and pass."""
    workload = WORKLOADS[name]
    pool = workload.pool()
    identical = failed = agree = iterations = ref_iterations = 0
    error_ratios = []
    with tempfile.TemporaryDirectory(prefix=f"check-{name}-") as tmp:
        for item in pool:
            out = workload.run(workload.build(item, Path(tmp)))
            ref = reference.get(item.label, {})
            same = out.sha256 == ref.get("sha256")
            identical += same
            failed += out.failed
            for what in out.failed_checks:
                print(f"{name}: failed check: {what}", file=sys.stderr)
            iterations += out.iterations
            ref_iterations += ref.get("iterations", 0)
            error_ratio = out.best_average_error / (ref.get("best_average_error") or math.nan)
            error_ratios.append(error_ratio)
            agrees = out.verdict == ref.get("verdict")
            agree += agrees
            print(f"{name} {item.label} {out.sha256 or '-'} {'same' if same else 'differs'}"
                  f" iterations {out.iterations} x{_ratio(out.iterations, ref.get('iterations'))}"
                  f" error {out.best_average_error!r} x{error_ratio!r}"
                  f" verdict {out.verdict} {'agrees' if agrees else 'differs'}", flush=True)
    print(f"{name} identical {identical}/{len(pool)}, failed checks {failed}", flush=True)
    logs = [-math.inf if r <= 0 else math.log(r) for r in error_ratios]  # NaN stays NaN
    print(f"{name} totals iterations x{_ratio(iterations, ref_iterations)}, error ratio geomean"
          f" {math.exp(math.fsum(logs) / len(logs))!r} max {max(error_ratios)!r},"
          f" verdicts {agree}/{len(pool)} agree", flush=True)
    return identical == len(pool) and failed == 0


def _ratio(value: int, reference) -> str:
    return f"{value / reference:.6f}" if reference else "-"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                        help=f"any of {', '.join(WORKLOADS)} (default: all)")
    args = parser.parse_args(argv)
    unknown = [w for w in args.workloads if w not in WORKLOADS]
    if unknown:
        parser.error(f"unknown workload(s) {', '.join(unknown)}; choose from {', '.join(WORKLOADS)}")
    reference = json.loads(REFERENCE.read_text(encoding="utf-8"))
    results = [check_workload(name, reference.get(name, {}))
               for name in args.workloads or WORKLOADS]
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
