"""Benchmark: expsumlab CLI jobs end to end, and layer by layer when traced.

    python3 bench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Every job runs in a fresh interpreter
(bench/job.py), one at a time, with threads=1, so each pays table and field
construction as a CLI user does.  A run starts SETUP_PROBES set-up-only
interpreters, then starts another job while the last one's duration says
it will end within --seconds of the run's start (always at least one).
With --trace 1 it alternates an untraced job and a traced one, and writes
the spans to .bench_out/trace/ as JSONL.

Every report is checked outside the timed region; a job that exits
nonzero, raises, or fails a check counts as failed.  The last stdout line
is one JSON object: correct, attempted, failed and metrics (end-to-end
metrics with --trace 0, per-layer metrics with --trace 1).  See
bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path[:0] = [str(BENCH), str(SRC)]
OUT = ROOT / ".bench_out"
SETUP_PROBES = 5
HARD_LIMIT_S = 170.0    # a run must end within 180 s
KB_TO_MB = 1024 / 1e6   # ru_maxrss is in KiB on Linux

from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
LAYERS = ("ffield", "tables", "expsum", "lfun", "padic")


class JobFailed(Exception):
    pass


def environment(seed: int) -> dict:
    import numpy

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "expsumlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "cpu": cpu, "commit": _git_head(),
            "src_sha256": digest.hexdigest()[:16], "seed": seed,
            "rss_source": "resource.getrusage(RUSAGE_SELF).ru_maxrss of the "
                          "job process"}


def _git_head():
    """The checked-out commit, read from .git without running git; None
    when the checkout is not a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def spawn(mode: str, job_file: Path, run_id: str, timeout: float) -> dict:
    """One job in a fresh interpreter; returns its JSON line plus setup_s
    (spawn to parsed job) and, unless mode is setup, job_s."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("EXPSUMLAB_THREADS", None)
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "job.py"), mode, str(job_file),
             run_id], cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        raise JobFailed(f"{mode} timed out after {timeout:.0f} s")
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        raise JobFailed(f"{mode} exited {proc.returncode}: {tail[0]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise JobFailed(f"{mode} printed no result")
    res = json.loads(lines[-1])
    res["setup_s"] = res["parsed"] - t0
    if mode != "setup":
        res["job_s"] = res["done"] - res["parsed"]
    return res


def layer_metrics(spans: list, points: int) -> dict:
    """Per-layer figures of one traced job."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child = dict.fromkeys(dur, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += dur[s["id"]]

    def total(name, key=None):
        return sum((s[key] if key else dur[s["id"]]) for s in spans
                   if s["name"] == name)

    job = next(s for s in spans if s["name"] == "job")
    job_s = dur[job["id"]]
    enum = [s for s in spans if s["name"] == "expsum.enum"]
    elements = total("tables.build", "elements")
    attempts = sum(1 for s in spans if s["name"] == "lfun.pade")
    m = {
        "ffield.build_field_s": total("ffield.build_field"),
        "tables.build_s": total("tables.build"),
        "tables.elements": elements,
        "tables.ns_per_element":
            total("tables.build") / elements * 1e9 if elements else 0.0,
        "tables.rss_growth_mb":
            total("tables.build", "rss_growth_kb") * KB_TO_MB,
        "expsum.enum_s": total("expsum.enum"),
        "expsum.top_level_s": dur[enum[-1]["id"]] if enum else 0.0,
        "expsum.points": points,
        "expsum.ns_per_point":
            total("expsum.enum") / points * 1e9 if points else 0.0,
        "expsum.rss_growth_mb":
            total("expsum.enum", "rss_growth_kb") * KB_TO_MB,
        "lfun.exp_s": total("lfun.exp"),
        "lfun.reconstruct_s": total("lfun.reconstruct"),
        "lfun.logcheck_s": total("lfun.logcheck"),
        "lfun.pade_attempts": attempts,
        "lfun.pade_useful_frac": 1 / attempts if attempts else 0.0,
        "padic.profile_s": total("padic.profile"),
        "padic.index_s": total("padic.index"),
        "padic.symbols_s": total("padic.symbols"),
        "trace.job_s": job_s,
        "trace.coverage_frac": child[job["id"]] / job_s,
    }
    in_job = [s for s in spans
              if job["start"] <= s["start"] and s["end"] <= job["end"]]
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(dur[s["id"]] - child[s["id"]]
                                   for s in in_job
                                   if s["name"].startswith(layer + "."))
    m["lfun.job_frac"] = m["lfun.self_s"] / job_s
    return m


def _digest(blob: str) -> str:
    return hashlib.sha256(blob.encode()).hexdigest()


def _reference_digest(key: str, blob: str) -> str:
    """The report digest an earlier run with this workload, seed and size
    recorded in this checkout, or else the digest of `blob`, recorded now."""
    path = OUT / "digests.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if key not in known:
        known[key] = _digest(blob)
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
    return known[key]


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 small: bool = False, tamper=None) -> dict:
    """One benchmark run.  `tamper` may alter the expected facts (the
    self-test uses it to prove that a wrong value fails)."""
    if not (SRC / "expsumlab" / "cli.py").is_file():
        raise SystemExit(f"error: no expsumlab sources under {SRC}")
    w = WORKLOADS[name]
    job = w.make_job(seed, small)
    expected = w.expect(job)
    if tamper is not None:
        tamper(expected)
    points = w.points(job)
    tag = f"{name}-seed{seed}{'-small' if small else ''}"
    (OUT / "jobs").mkdir(parents=True, exist_ok=True)
    job_file = OUT / "jobs" / f"{tag}.json"
    job_file.write_text(json.dumps(job, sort_keys=True) + "\n")

    start = time.monotonic()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    setups = [spawn("setup", job_file, tag, hard - time.monotonic())
              ["setup_s"] for _ in range(SETUP_PROBES)]
    modes = ("run", "trace") if trace else ("run",)
    done = {"run": [], "trace": []}
    failures, attempted, cycle = [], 0, 0.0
    while attempted == 0 or time.monotonic() + cycle <= deadline:
        t_cycle = time.monotonic()
        for mode in modes:
            attempted += 1
            run_id = f"{tag}-{attempted}"
            try:
                res = spawn(mode, job_file, run_id, hard - time.monotonic())
                bad = w.check(json.loads(res["report"]), expected)
            except JobFailed as exc:
                failures.append(f"{run_id}: {exc}")
                continue
            except Exception as exc:   # a malformed report fails its check
                bad = [f"check raised {exc!r}"]
            if bad:
                failures.append(f"{run_id}: {'; '.join(bad)}")
                continue
            res["run_id"] = run_id
            setups.append(res["setup_s"])
            done[mode].append(res)
        cycle = time.monotonic() - t_cycle
    ok = done["run"] + done["trace"]
    if ok:
        ref = _reference_digest(tag, ok[0]["report"])
        for mode, jobs in done.items():
            done[mode] = [r for r in jobs if _digest(r["report"]) == ref]
            failures += [f"{r['run_id']}: report bytes differ from an "
                         f"earlier job" for r in jobs if r not in done[mode]]
    med = statistics.median
    runs = done["run"]
    result = {
        "workload": name, "seed": seed, "jobs": len(runs),
        "traced_jobs": len(done["trace"]), "setup_samples": len(setups),
        "attempted": attempted, "failed": len(failures),
        "failures": failures}
    if not runs or (trace and not done["trace"]):
        return result    # nothing to measure
    result.update({
        "e2e": {"setup_s": med(setups),
                "job_s": med(r["job_s"] for r in runs),
                "peak_rss_mb": med(r["maxrss_kb"] for r in runs) * KB_TO_MB},
    })
    if points:
        result["points_per_s"] = points / result["e2e"]["job_s"]
    if trace:
        per_job = [layer_metrics(r["spans"], points) for r in done["trace"]]
        layers = {k: med(m[k] for m in per_job) for k in per_job[0]}
        layers["trace.overhead_frac"] = (layers["trace.job_s"]
                                         / result["e2e"]["job_s"] - 1)
        result["layers"] = layers
        result["trace_file"] = _write_trace(tag, done["trace"], seed)
    return result


def _write_trace(tag: str, traced: list, seed: int) -> str:
    path = OUT / "trace" / f"{tag}.jsonl"
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"environment": environment(seed)}) + "\n")
        for res in traced:
            for span in res["spans"]:
                fh.write(json.dumps(span) + "\n")
    return str(path.relative_to(ROOT))


def print_result(res: dict, trace: bool) -> dict:
    """Human-readable lines; returns the metrics for the JSON line."""
    w = WORKLOADS[res["workload"]]
    print(f"workload {w.name} seed {res['seed']}: {res['jobs']} jobs, "
          f"{res['traced_jobs']} traced, {res['setup_samples']} set-ups\n"
          f"  why: {w.why}\n  seed: {w.seed_note}")
    for f in res["failures"]:
        print(f"FAILED {f}")
    rows = [(k, v, E2E_UNITS[k]) for k, v in res["e2e"].items()]
    if "points_per_s" in res:
        rows.append(("points_per_s", res["points_per_s"], "1/s"))
    rows.append(("fail_frac", res["failed"] / res["attempted"], "ratio"))
    if trace:
        rows += [(k, v, LAYER_UNITS[k]) for k, v in res["layers"].items()]
        print(f"trace written to {res['trace_file']}")
    for k, v, unit in rows:
        print(f"  {k:<24} {v:>16.6g} {unit}")
    chosen = res["layers"] if trace else res["e2e"]
    units = LAYER_UNITS if trace else E2E_UNITS
    return {k: {"value": v, "unit": units[k]} for k, v in chosen.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 < args.seconds <= 60:
        ap.error("--seconds must be in (0, 60]; a run must end within 180 s")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(n, args.seed, args.seconds, bool(args.trace))
               for n in names]
    for res in results:
        if "e2e" not in res:
            print("\n".join(["error: no job of " + res["workload"]
                             + " completed"] + res["failures"]),
                  file=sys.stderr)
            return 1
    print("environment " + json.dumps(environment(args.seed)))
    metrics = {}
    for res in results:
        m = print_result(res, bool(args.trace))
        metrics.update(m if len(results) == 1 else
                       {f"{res['workload']}/{k}": v for k, v in m.items()})
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
