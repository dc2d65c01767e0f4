"""Self-test of the benchmark at reduced sizes; finishes in under a minute.

    python3 bench/selftest.py

For every workload it runs the reduced job (plane levels 1..4, SL2 and
Kloosterman levels 1..5, Dwork smax = 25) traced, and requires fail_frac = 0
and every per-layer metric.  Then it runs each again with one expected
value made wrong and requires fail_frac > 0.  Exit code 0 when all hold.
"""

from __future__ import annotations

import sys

from run import LAYER_UNITS, run_workload


def _wrong(expected: dict) -> None:
    """Make one expected fact wrong, whatever the workload."""
    key = next(iter(expected))
    value = expected[key]
    expected[key] = value[1:] if isinstance(value, list) else value + 1


def main() -> int:
    problems = []
    for name in ("plane-f5", "sl2-f2", "kloosterman-f5", "dwork-p5"):
        good = run_workload(name, 1, 1, trace=True, small=True)
        if good["failed"]:
            problems.append(f"{name}: {good['failures']}")
        missing = set(LAYER_UNITS) - set(good["layers"])
        if missing:
            problems.append(f"{name}: no {sorted(missing)}")
        if good["layers"]["trace.coverage_frac"] < 0.9:
            problems.append(f"{name}: spans cover under 90% of the job")
        bad = run_workload(name, 1, 1, trace=False, small=True, tamper=_wrong)
        if bad["failed"] / bad["attempted"] <= 0:
            problems.append(f"{name}: a wrong expected value passed")
        print(f"{name}: ok run fail_frac {good['failed']}/{good['attempted']},"
              f" tampered run fail_frac {bad['failed']}/{bad['attempted']}")
    for p in problems:
        print("PROBLEM " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
