import json
import os
import random
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

from expsumlab import cli, expsum, padic, predict


def write_job(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


SUM_JOB = {
    "command": "sum",
    "payload": {
        "base": {"p": 3},
        "variety": {"kind": "affine", "dim": 2,
                    "f": [[1, [2, 1]], [-1, [1, 0]]]},
        "levels": 4,
    },
}

KLOOSTERMAN_JOB = {
    "command": "lfun",
    "payload": {
        "base": {"p": 5},
        "variety": {"kind": "torus", "dim": 1, "f": [[1, [1]], [1, [-1]]]},
        "levels": 6,
        "predict": {"kind": "curve", "g": 0, "c": 0, "m": 2, "d": 2},
    },
}

DWORK_JOB = {
    "command": "index",
    "payload": {"p": 3, "g": {"num": [["0", "1"]], "den": ["0", "0", "1"]}},
}

RADIUS_JOB = {**DWORK_JOB, "command": "radius"}

SCALE_JOB = {
    "command": "lfun",
    "payload": {
        "base": {"p": 3},
        "variety": {"kind": "affine", "dim": 2,
                    "f": [[1, [2, 1]], [-1, [1, 0]]]},
        "levels": 6,
        "scale": 2,
    },
}

# a scale job with bounds or a prediction, which it would not honour
SCALE_MIXED_JOBS = {
    f"lfun-scale-{key}": {**SCALE_JOB, "payload": {
        **SCALE_JOB["payload"], key: value}}
    for key, value in (("bounds", [0, 0]),
                       ("predict", KLOOSTERMAN_JOB["payload"]["predict"]))}

# x + y on the complement of xy = 1 in A^2 over F_3
COMPLEMENT_JOB = {
    "command": "sum",
    "payload": {
        "base": {"p": 3},
        "variety": {"kind": "complement", "dim": 2,
                    "g": [[1, [1, 0]], [1, [0, 1]]],
                    "h": [[1, [1, 1]], [-1, [0, 0]]], "k": 1},
        "levels": 4,
    },
}

BIG_SUM_JOB = {**SUM_JOB, "payload": {**SUM_JOB["payload"], "levels": 12}}

# x on G_m over F_5 through level 12: few points, a 2.4e8-element table
BIG_TABLE_JOB = {"command": "sum", "payload": {
    "base": {"p": 5}, "variety": {"kind": "torus", "dim": 1, "f": [[1, [1]]]},
    "levels": 12}}

UNCERTIFIED_JOB = {"command": "lfun", "payload": {
    **{k: v for k, v in KLOOSTERMAN_JOB["payload"].items() if k != "predict"},
    "bounds": [0, 0]}}

# one standalone prediction job of each kind
PREDICT_JOBS = [
    {"command": "predict", "payload": payload} for payload in (
        {"kind": "chern", "n": 2, "d": [1, 1, 1], "e": [1, 1, 1]},
        {"kind": "curve", "g": 0, "c": 0, "m": 2, "d": 2},
        {"kind": "betti", "n": 3, "b": [8, 79]},
        {"kind": "newton", "n": 2, "support": [[2, 1], [1, 0]]},
        {"kind": "sl2", "N": 1},
        {"kind": "fermat", "n": 2},
    )]
BETTI_JOB, FERMAT_JOB = PREDICT_JOBS[2], PREDICT_JOBS[5]

# (x^3 + y^3 + 1)/(xy) on G_m^2 over F_2, compared with a fermat report,
# which holds candidate values but no single predicted degree
FERMAT_LFUN_JOB = {
    "command": "lfun",
    "payload": {
        "base": {"p": 2},
        "variety": {"kind": "torus", "dim": 2,
                    "f": [[1, [2, -1]], [1, [-1, 2]], [1, [-1, -1]]]},
        "levels": 10, "bounds": [0, 9],
        "predict": FERMAT_JOB["payload"],
    },
}


def _with_prediction(doc, **fields):
    return {**doc, "payload": {**doc["payload"], **fields}}

BAD_SUM_JOB = {"command": "sum", "payload": {"base": {"p": 3}}}

# threads below the schema's minimum of 1
NO_THREADS_JOBS = [{**SUM_JOB, "threads": t} for t in (0, -3)]


def _with_variety(doc, **fields):
    payload = doc["payload"]
    return {**doc, "payload": {**payload,
                               "variety": {**payload["variety"], **fields}}}


# a field that must be an integer, given as a word, as a number with a
# fractional part (which int() would truncate) or as a boolean (which
# Python counts as an int); a case named field=value names its field
NOT_INT_JOBS = {
    "threads": {**SUM_JOB, "threads": "two"},
    "budget": {**SUM_JOB, "budget": "lots"},
    "levels": {**SUM_JOB, "payload": {**SUM_JOB["payload"], "levels": "four"}},
    "base.n": {**SUM_JOB, "payload": {
        **SUM_JOB["payload"], "base": {"p": 3, "n": "two"}}},
    "levels=2.9": {**SUM_JOB, "payload": {**SUM_JOB["payload"], "levels": 2.9}},
    "levels=true": {**SUM_JOB, "payload": {
        **SUM_JOB["payload"], "levels": True}},
    "base.n=true": {**SUM_JOB, "payload": {
        **SUM_JOB["payload"], "base": {"p": 3, "n": True}}},
    "dim=1.7": _with_variety(SUM_JOB, dim=1.7),
    "dim=true": _with_variety(SUM_JOB, dim=True),
    "k=1.5": _with_variety(COMPLEMENT_JOB, k=1.5),
    "exponent=1.9": _with_variety(SUM_JOB, f=[[1, [2, 1.9]], [-1, [1, 0]]]),
    "coefficient=2.6": _with_variety(SUM_JOB,
                                     f=[[2.6, [2, 1]], [-1, [1, 0]]]),
    # the integer fields of a prediction, list entries too
    "g=0.5": _with_prediction(PREDICT_JOBS[1], g=0.5),
    "N=true": _with_prediction(PREDICT_JOBS[4], N=True),
    "n=2.9": _with_prediction(PREDICT_JOBS[0], n=2.9),
    "support=1.5": _with_prediction(PREDICT_JOBS[3], n=1,
                                    support=[[1.5], [-1]]),
    "b=1.5": _with_prediction(BETTI_JOB, n=2, b=[1.5]),
    # the prediction of an lfun job
    "d=2.5": {**KLOOSTERMAN_JOB, "payload": {
        **KLOOSTERMAN_JOB["payload"],
        "predict": {**KLOOSTERMAN_JOB["payload"]["predict"], "d": 2.5}}},
}

# symbol depths the schema refuses: not an integer, or below 2
BAD_SMAX_JOBS = {smax: {**DWORK_JOB, "smax": smax}
                 for smax in ("many", 0, -3, 30.7, True)}


def _with_p(doc, p):
    payload = doc["payload"]
    if "base" in payload:
        payload = {**payload, "base": {**payload["base"], "p": p}}
    else:
        payload = {**payload, "p": p}
    return {**doc, "payload": payload}


# a p that is not a prime, as a base field and as an operator's level
NOT_PRIME_JOBS = {f"{doc['command']}-p{p}": _with_p(doc, p)
                  for doc in (SUM_JOB, KLOOSTERMAN_JOB, RADIUS_JOB, DWORK_JOB)
                  for p in (1, 4)}


# payloads each refused with exit 2: (job document, extra CLI arguments)
BAD_PAYLOADS = {
    **{f"grid-{grid}": (RADIUS_JOB, ["--grid", grid])
       for grid in ("abc", "1", "0,1", "1,1", "1,1/2,1")},
    "grid-repeated-in-job": ({**RADIUS_JOB, "payload": {
        **RADIUS_JOB["payload"], "grid": ["1", "1"]}}, []),
    "g-coefficient": ({**RADIUS_JOB, "payload": {
        **RADIUS_JOB["payload"], "g": {"num": [["0", "x"]],
                                       "den": ["0", "0", "1"]}}}, []),
    "chern-no-fields": ({"command": "predict",
                         "payload": {"kind": "chern"}}, []),
    "chern-n0": ({"command": "predict", "payload": {
        "kind": "chern", "n": 0, "d": [1], "e": [1]}}, []),
    "sl2-negative-N": ({"command": "predict",
                        "payload": {"kind": "sl2", "N": -1}}, []),
    "lfun-predict-not-object": ({**KLOOSTERMAN_JOB, "payload": {
        **KLOOSTERMAN_JOB["payload"], "predict": 5}}, []),
    "lfun-bounds": ({**UNCERTIFIED_JOB, "payload": {
        **UNCERTIFIED_JOB["payload"], "bounds": [-1, 2]}}, []),
    "lfun-scale-p": ({**SCALE_JOB, "payload": {
        **SCALE_JOB["payload"], "scale": 3}}, []),
    "lfun-scale-word": ({**SCALE_JOB, "payload": {
        **SCALE_JOB["payload"], "scale": "two"}}, []),
    **{name: (doc, []) for name, doc in SCALE_MIXED_JOBS.items()},
    # exponent vectors whose length is not the variety's dim
    "exponents-longer-than-dim": (
        _with_variety(SUM_JOB, dim=1, f=[[1, [1, 2]]]), []),
    "exponents-shorter-than-dim": (_with_variety(SUM_JOB, f=[[1, [1]]]), []),
}


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_sum_command(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", SUM_JOB)
    csv = tmp_path / "out.csv"
    code, out, err = run(capsys, ["sum", "--job", job, "--csv", str(csv)])
    assert code == 0
    report = json.loads(out)
    assert [r["coords"] for r in report["records"]] == \
        [[3, 0], [9, 0], [27, 0], [81, 0]]
    assert report["points"] == [9, 81, 729, 6561]
    assert csv.read_text().splitlines()[1] == "1,3,0"
    assert "S_m" in err  # human table on stderr


def test_sum_report_to_file(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", SUM_JOB)
    out_file = tmp_path / "report.json"
    code, out, err = run(capsys, ["sum", "--job", job, "--out", str(out_file)])
    assert code == 0
    assert json.loads(out_file.read_text())["records"][0]["coords"] == [3, 0]
    assert "S_m" in out  # table goes to stdout when JSON is redirected


def test_lfun_with_prediction_verdict(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", KLOOSTERMAN_JOB)
    code, out, _ = run(capsys, ["lfun", "--job", job])
    assert code == 0
    report = json.loads(out)
    assert report["prediction"]["predicted_degree"] == 2
    assert report["lseries"]["total_degree"] == 2
    assert report["match"] is True


def test_lfun_scale_pipeline(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", SCALE_JOB)
    code, out, _ = run(capsys, ["lfun", "--job", job])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] and report["twist_holds"]


def test_predict_command(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", BETTI_JOB)
    code, out, _ = run(capsys, ["predict", "--job", job])
    assert code == 0
    report = json.loads(out)
    assert report["predicted_degree"] == 71 and report["total_bound"] == 87


def test_predict_fermat_flags_discrepancy(tmp_path, capsys):
    job = write_job(tmp_path, "job.json", FERMAT_JOB)
    code, out, _ = run(capsys, ["predict", "--job", job])
    assert code == 0
    report = json.loads(out)
    assert report["chern_value"] == 9 and report["alternative_value"] == 12
    assert report["discrepant"] is True


def test_radius_and_index_commands(tmp_path, capsys):
    job = write_job(tmp_path, "radius.json", RADIUS_JOB)
    csv = tmp_path / "prof.csv"
    code, out, _ = run(capsys, ["radius", "--job", job, "--smax", "30",
                                "--csv", str(csv)])
    assert code == 0
    report = json.loads(out)
    assert report["endpoint_slopes"] == [2, 2]
    assert all(s["stabilized"] for s in report["samples"])
    assert csv.read_text().startswith("lambda,r,stabilized")

    job = write_job(tmp_path, "index.json", DWORK_JOB)
    code, out, _ = run(capsys, ["index", "--job", job, "--smax", "30",
                                "--grid", "1/2,1,3/2"])
    assert code == 0
    report = json.loads(out)
    assert report["index"] == 0
    assert [s["lambda"] for s in report["samples"]] == ["1/2", 1, "3/2"]


def test_verify_single_case(tmp_path, capsys):
    code, out, err = run(capsys, ["verify", "--case", "fermat-discrepancy"])
    assert code == 0
    report = json.loads(out)
    assert report["passed"] is True
    assert "PASS" in err


def test_verify_reports_are_byte_identical(capsys):
    _, out1, _ = run(capsys, ["verify", "--case", "torus-linear"])
    _, out2, _ = run(capsys, ["verify", "--case", "torus-linear"])
    assert out1 == out2


def test_exit_code_schema_violation(tmp_path, capsys):
    job = write_job(tmp_path, "bad.json", BAD_SUM_JOB)
    code, _, err = run(capsys, ["sum", "--job", job])
    assert code == cli.EXIT_SCHEMA and "schema error" in err
    # command mismatch between file and subcommand
    job = write_job(tmp_path, "mix.json", SUM_JOB)
    code, _, _ = run(capsys, ["lfun", "--job", job])
    assert code == cli.EXIT_SCHEMA
    # unreadable file
    code, _, _ = run(capsys, ["sum", "--job", str(tmp_path / "missing.json")])
    assert code == cli.EXIT_SCHEMA


def test_exit_code_threads_below_one(tmp_path, capsys):
    for i, doc in enumerate(NO_THREADS_JOBS):
        job = write_job(tmp_path, f"threads{i}.json", doc)
        code, out, err = run(capsys, ["sum", "--job", job])
        assert code == cli.EXIT_SCHEMA and "threads" in err and not out
    job = write_job(tmp_path, "sum.json", SUM_JOB)
    code, out, err = run(capsys, ["sum", "--job", job, "--threads", "0"])
    assert code == cli.EXIT_SCHEMA and "threads" in err and not out


@pytest.mark.parametrize("field", sorted(NOT_INT_JOBS))
def test_exit_code_field_not_an_integer(tmp_path, capsys, field):
    doc = NOT_INT_JOBS[field]
    job = write_job(tmp_path, "word.json", doc)
    code, out, err = run(capsys, [doc["command"], "--job", job])
    name = field.split("=")[0]
    assert code == cli.EXIT_SCHEMA and not out
    assert f"{name} must be an integer" in err


def test_integral_numbers_are_read_as_ints(tmp_path, capsys):
    job = write_job(tmp_path, "sum.json", SUM_JOB)
    want = run(capsys, ["sum", "--job", job])
    doc = {**SUM_JOB, "budget": 1e9, "payload": {
        **SUM_JOB["payload"], "levels": 4.0, "base": {"p": 3.0, "n": 1.0}}}
    job = write_job(tmp_path, "floats.json", doc)
    assert run(capsys, ["sum", "--job", job]) == want


@pytest.mark.parametrize("argv", [
    ["sum", "--smax", "7"], ["sum", "--grid", "1/2,1"],
    ["lfun", "--smax", "7"], ["predict", "--threads", "4"],
    ["predict", "--smax", "3"], ["predict", "--budget", "1000"],
    ["radius", "--threads", "2"], ["index", "--threads", "2"]],
                         ids=" ".join)
def test_flags_a_command_ignores_are_refused(tmp_path, capsys, argv):
    job = write_job(tmp_path, "job.json", {"command": argv[0], "payload": {}})
    with pytest.raises(SystemExit) as exc:
        cli.main(argv[:1] + ["--job", job] + argv[1:])
    assert exc.value.code == cli.EXIT_SCHEMA
    assert "unrecognized arguments: " + argv[1] in capsys.readouterr().err


@pytest.mark.parametrize("smax", sorted(BAD_SMAX_JOBS, key=str))
@pytest.mark.parametrize("command", ["radius", "index"])
def test_exit_code_bad_smax(tmp_path, capsys, command, smax):
    job = write_job(tmp_path, "smax.json",
                    {**BAD_SMAX_JOBS[smax], "command": command})
    code, out, err = run(capsys, [command, "--job", job])
    assert code == cli.EXIT_SCHEMA and "smax" in err and not out
    if type(smax) is int:
        job = write_job(tmp_path, "dwork.json",
                        {**DWORK_JOB, "command": command})
        code, out, err = run(capsys,
                             [command, "--job", job, "--smax", str(smax)])
        assert code == cli.EXIT_SCHEMA and "smax" in err and not out


def _src_env() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH."""
    src = str(Path(cli.__file__).parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.mark.parametrize("name", sorted(NOT_PRIME_JOBS))
def test_exit_code_p_not_prime(tmp_path, name):
    # in its own interpreter under a timeout, since p = 1 once hung
    doc = NOT_PRIME_JOBS[name]
    job = write_job(tmp_path, "p.json", doc)
    proc = subprocess.run(
        [sys.executable, "-m", "expsumlab.cli", doc["command"], "--job", job],
        capture_output=True, text=True, timeout=60, env=_src_env())
    assert proc.returncode == cli.EXIT_SCHEMA and not proc.stdout
    assert proc.stderr.startswith("schema error: ")
    assert "p must be" in proc.stderr


@pytest.mark.parametrize("name", sorted(BAD_PAYLOADS))
def test_exit_code_bad_payload(tmp_path, capsys, name):
    doc, extra = BAD_PAYLOADS[name]
    job = write_job(tmp_path, "bad.json", doc)
    code, out, err = run(capsys, [doc["command"], "--job", job] + extra)
    assert code == cli.EXIT_SCHEMA and not out
    assert err.startswith("schema error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize("doc", [KLOOSTERMAN_JOB, BETTI_JOB],
                         ids=["lfun", "predict"])
def test_exit_code_csv_of_a_command_without_one(tmp_path, capsys,
                                                monkeypatch, doc):
    def no_job(spec):
        raise AssertionError("the job ran")

    monkeypatch.setattr(cli, "run_job", no_job)
    job = write_job(tmp_path, "job.json", doc)
    csv = tmp_path / "out.csv"
    code, out, err = run(capsys, [doc["command"], "--job", job,
                                  "--csv", str(csv)])
    assert code == cli.EXIT_SCHEMA and not out and "CSV" in err
    assert not csv.exists()


def test_exit_code_prediction_without_a_degree(tmp_path, capsys,
                                                monkeypatch):
    def no_sums(*args, **kwargs):
        raise AssertionError("the sums ran")

    monkeypatch.setattr(cli, "power_sum_table", no_sums)
    job = write_job(tmp_path, "fermat.json", FERMAT_LFUN_JOB)
    t0 = time.perf_counter()
    code, out, err = run(capsys, ["lfun", "--job", job])
    assert time.perf_counter() - t0 < 1
    assert code == cli.EXIT_SCHEMA and not out
    assert err.startswith("schema error: a fermat prediction has no single")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("argv", [
    ["predict", "--out"], ["sum", "--out"], ["sum", "--csv"],
    ["verify", "--case", "fermat-discrepancy", "--out"]], ids=" ".join)
def test_exit_code_unwritable_report(tmp_path, capsys, argv):
    # the files are written first, so a failed write prints no report
    path = str(tmp_path / "missing" / "report")
    if argv[0] != "verify":
        job = write_job(tmp_path, "job.json",
                        BETTI_JOB if argv[0] == "predict" else SUM_JOB)
        argv = argv[:1] + ["--job", job] + argv[1:]
    code, out, err = run(capsys, argv + [path])
    assert code == cli.EXIT_SCHEMA and not out
    assert err == f"cannot write {path}: No such file or directory\n"


def test_exit_code_budget(tmp_path, capsys):
    job = write_job(tmp_path, "big.json", BIG_SUM_JOB)
    code, _, err = run(capsys, ["sum", "--job", job, "--budget", "1000"])
    assert code == cli.EXIT_BUDGET and "budget" in err


def test_exit_code_budget_counts_tables(tmp_path, capsys, monkeypatch):
    def no_tables(ctx):
        raise AssertionError(f"tables built for F_{ctx.p}^{ctx.n}")

    monkeypatch.setattr(expsum, "get_tables", no_tables)
    job = write_job(tmp_path, "table.json", BIG_TABLE_JOB)
    code, out, err = run(capsys, ["sum", "--job", job])
    assert code == cli.EXIT_BUDGET and "table element" in err and not out


def test_exit_code_budget_counts_strata(tmp_path, capsys, monkeypatch):
    # x_1 on A^20 over F_2 at level 1: 2^20 points and a 2-element table
    # fit the default budget, but the walk through its 2^20 zero patterns
    # does not, so it is refused before any level runs
    def no_level(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(expsum, "_histograms", no_level)
    monkeypatch.setattr(expsum, "_strata", no_level)
    assert 2 ** 20 + expsum.TABLE_BYTES_PER_ELEMENT * 2 < expsum.DEFAULT_BUDGET
    job = write_job(tmp_path, "strata.json", {"command": "sum", "payload": {
        "base": {"p": 2}, "levels": 1, "variety": {
            "kind": "affine", "dim": 20, "f": [[1, [1] + [0] * 19]]}}})
    start = time.perf_counter()
    code, out, err = run(capsys, ["sum", "--job", job])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_BUDGET and "per stratum and term" in err
    assert "table element" in err and not out


def test_exit_code_budget_counts_sl2_terms(tmp_path, capsys, monkeypatch):
    # SL2 with N = 62,498 coefficients over F_2 at one level: its points,
    # table and strata fit the default budget, but the N (N + 1) / 2
    # updates of the s_n that F is made from (minutes of them) do not, so
    # it is refused before any level runs
    def no_level(*args, **kwargs):
        raise AssertionError("a level ran")

    monkeypatch.setattr(expsum, "_histograms", no_level)
    monkeypatch.setattr(expsum, "_strata", no_level)
    job = write_job(tmp_path, "sl2.json", {"command": "sum", "payload": {
        "base": {"p": 2}, "levels": 1,
        "variety": {"kind": "sl2", "coeffs": [1] * 62498}}})
    start = time.perf_counter()
    code, out, err = run(capsys, ["sum", "--job", job])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_BUDGET and not out
    assert GATE_MESSAGE.fullmatch(err)["what"] == "table through level 1 of 1"


def _newton_payload(points: int) -> dict:
    """A newton prediction on n = 4 over `points` random points of
    [0, 5]^4, seeded by their number."""
    rnd = random.Random(points)
    return {"kind": "newton", "n": 4, "support": [
        [rnd.randint(0, 5) for _ in range(4)] for _ in range(points)]}


def test_newton_hull_is_charged_before_it_is_built():
    # the hull tries every 4-subset of the support with 0: 20 points fit
    # the default budget, 30 and 40 (2.5 and 6 s jobs) do not; a hull in
    # dimension 1 is an interval, read off its ends
    work = [predict.newton_work(predict.NewtonSpec(4, tuple(
        map(tuple, _newton_payload(k)["support"])))) for k in (20, 30, 40)]
    assert work[0] < expsum.DEFAULT_BUDGET < work[1] < work[2]
    assert predict.newton_work(predict.NewtonSpec(1, tuple(
        (k,) for k in range(-20000, 20000)))) == 0


@pytest.mark.parametrize("command", ["predict", "lfun"])
def test_exit_code_budget_counts_the_newton_hull(tmp_path, capsys,
                                                 monkeypatch, command):
    def no_hull(*args):
        raise AssertionError("the hull was built")

    monkeypatch.setattr(predict, "newton_report", no_hull)
    monkeypatch.setattr(cli, "power_sum_table", no_hull)
    payload = _newton_payload(40)
    if command == "lfun":
        payload = {**KLOOSTERMAN_JOB["payload"], "predict": payload}
    job = write_job(tmp_path, "newton.json",
                    {"command": command, "payload": payload})
    start = time.perf_counter()
    code, out, err = run(capsys, [command, "--job", job])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_BUDGET and not out
    assert err.startswith("budget exceeded: the Newton polytope's hull")


def test_exit_code_uncertified(tmp_path, capsys):
    job = write_job(tmp_path, "tight.json", UNCERTIFIED_JOB)
    code, out, err = run(capsys, ["lfun", "--job", job])
    assert code == cli.EXIT_UNCERTIFIED and not out
    assert err == ("reconstruction not certified: no denominator of degree "
                   "<= 0 matches (needed 6)\n")


def test_exit_code_uncertified_auto(tmp_path, capsys):
    # Kloosterman's L has total degree 2; four levels leave room for 1
    payload = {k: v for k, v in UNCERTIFIED_JOB["payload"].items()
               if k != "bounds"}
    job = write_job(tmp_path, "short.json", {"command": "lfun", "payload": {
        **payload, "levels": 4}})
    code, out, err = run(capsys, ["lfun", "--job", job])
    assert code == cli.EXIT_UNCERTIFIED and not out
    assert err == ("reconstruction not certified: no rational function "
                   "certified at order 4 with slack 2\n")


def test_exit_code_unstable(tmp_path, capsys):
    # s_max below p^2 leaves a single p-power sample: estimate is flagged
    job = write_job(tmp_path, "short.json", DWORK_JOB)
    code, _, err = run(capsys, ["index", "--job", job, "--smax", "4"])
    assert code == cli.EXIT_UNSTABLE and "not stabilized" in err


# g = 7 / x^3 at p = 7: the outer pair of weights, lambda = 1/4 (a
# robba-clamp sample) and 1/2, straddles a break of the profile, so the
# endpoint slopes 5/3 and 3 differ by 4/3 and there is no index
STRADDLE_JOB = {"command": "index", "payload": {
    "p": 7, "g": {"num": ["7"], "den": ["0", "0", "0", "1"]}}}


@pytest.mark.parametrize("smax", ["60", "200"])
def test_exit_code_index_of_slopes_with_a_fractional_difference(
        tmp_path, capsys, smax):
    job = write_job(tmp_path, "straddle.json", STRADDLE_JOB)
    code, out, err = run(capsys, ["index", "--job", job, "--smax", smax])
    assert code == cli.EXIT_UNSTABLE and not out
    assert err == ("profile not stabilized: endpoint slopes 5/3 and 3 "
                   "differ by 4/3, not an integer\n")
    job = write_job(tmp_path, "radius.json",
                    {**STRADDLE_JOB, "command": "radius"})
    code, out, _ = run(capsys, ["radius", "--job", job, "--smax", smax])
    assert code == cli.EXIT_OK
    assert json.loads(out)["endpoint_slopes"] == ["5/3", 3]


@pytest.mark.parametrize("command", ["predict", "lfun"])
def test_exit_code_fermat_prediction_checks_n_first(tmp_path, capsys,
                                                    monkeypatch, command):
    # the Newton spec refuses n > 4 before the Chern value is computed
    def no_chern(*args):
        raise AssertionError("the Chern value was computed")

    monkeypatch.setattr(predict, "chern_degree", no_chern)
    monkeypatch.setattr(cli, "power_sum_table", no_chern)
    payload = {"kind": "fermat", "n": 10 ** 4}
    if command == "lfun":
        payload = {**KLOOSTERMAN_JOB["payload"], "predict": payload}
    job = write_job(tmp_path, "fermat.json",
                    {"command": command, "payload": payload})
    start = time.perf_counter()
    code, out, err = run(capsys, [command, "--job", job])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_SCHEMA and not out
    assert err == ("schema error: bad fermat prediction payload: torus "
                   "dimension must be between 1 and 4\n")


def test_unknown_verify_case_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--case", "not-a-case"])
    assert exc.value.code == 2  # argparse rejects unknown choices


def test_cli_import_loads_neither_cases_nor_thread_pool():
    # the verify command and a job with threads > 1 import them when run
    code = ("import sys, expsumlab.cli; print(sorted(set(sys.modules) & "
            "{'expsumlab.verify', 'concurrent.futures'}))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60, env=_src_env())
    assert proc.returncode == 0 and proc.stdout == "[]\n"


def test_verify_all(capsys):
    # smoke the aggregated entry on the two cheapest cases by calling the
    # suite directly; --all is exercised in the acceptance run
    from expsumlab.verify import verify_suite
    for case in ("fermat-discrepancy", "a3-betti"):
        assert verify_suite(case)["passed"]


# `verify --all --out` of every case, recorded when complements still
# evaluated g by Zech addition; CI compares the installed script's output
# with the same file
VERIFY_ALL_GOLDEN = Path(__file__).parent / "verify_all.json"


def test_verify_all_report_bytes(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code, _, _ = run(capsys, ["verify", "--all", "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == VERIFY_ALL_GOLDEN.read_bytes()


@pytest.mark.parametrize("kind,exponent,coords", [
    # S_2 of x^(2^62 + 1) on A^1(F_25) read [1, 2, 2, 0] when the exponent
    # times a code wrapped in int64
    ("affine", 2 ** 62 + 1, [[0, 0, 0, 0], [0, 0, 0, 0]]),
    # x^(3^40) on the torus raised OverflowError
    ("torus", 3 ** 40, [[-1, 0, 0, 0], [9, 0, 0, 0]]),
])
def test_sum_with_exponents_past_int64(tmp_path, capsys, kind, exponent,
                                       coords):
    job = write_job(tmp_path, "job.json", {"command": "sum", "payload": {
        "base": {"p": 5},
        "variety": {"kind": kind, "dim": 1, "f": [[1, [exponent]]]},
        "levels": 2}})
    code, out, _ = run(capsys, ["sum", "--job", job])
    assert code == 0
    assert [r["coords"] for r in json.loads(out)["records"]] == coords


# report bytes of COMPLEMENT_JOB, recorded when `sum` still counted the
# points of each level in a second enumeration
COMPLEMENT_REPORT = (
    '{"command":"sum","n":1,"p":3,"points":[7,73,703,6481],'
    '"progress":[{"m":1,"points":9},{"m":2,"points":81},'
    '{"m":3,"points":729},{"m":4,"points":6561}],'
    '"records":[{"coords":[1,0],"m":1},{"coords":[19,0],"m":2},'
    '{"coords":[1,0],"m":3},{"coords":[163,0],"m":4}]}\n')


def test_complement_sum_enumerates_each_level_once(tmp_path, capsys,
                                                   monkeypatch):
    levels = []
    histograms = expsum._histograms

    def counted(v, base, m, *args, **kwargs):
        levels.append(m)
        return histograms(v, base, m, *args, **kwargs)

    monkeypatch.setattr(expsum, "_histograms", counted)
    job = write_job(tmp_path, "job.json", COMPLEMENT_JOB)
    code, out, _ = run(capsys, ["sum", "--job", job])
    assert code == 0
    assert levels == [1, 2, 3, 4]
    assert out == COMPLEMENT_REPORT


SL2_JOB = {"command": "sum", "payload": {
    "base": {"p": 3}, "variety": {"kind": "sl2", "coeffs": [1, 1]},
    "levels": 4}}

# report bytes of SL2_JOB, recorded when SL2 was enumerated over a grid of
# matrices; progress still counts q^3 points per level
SL2_REPORT = (
    '{"command":"sum","n":1,"p":3,"points":[24,720,19656,531360],'
    '"progress":[{"m":1,"points":27},{"m":2,"points":729},'
    '{"m":3,"points":19683},{"m":4,"points":531441}],'
    '"records":[{"coords":[-15,-6],"m":1},{"coords":[-261,-234],"m":2},'
    '{"coords":[-2538,-4536],"m":3},{"coords":[729,-57186],"m":4}]}\n')


def test_sl2_sum_report_bytes(tmp_path, capsys):
    job = write_job(tmp_path, "sl2.json", SL2_JOB)
    code, out, _ = run(capsys, ["sum", "--job", job])
    assert code == 0
    assert out == SL2_REPORT


# the Dwork twist of (1/3)/x to depth 200: g = (pi + x/3) / x^2, where pi
# is -2 at p = 2 and has pi-coordinates (0, 1, 0, ...) at p = 3, 5, 7
DWORK_TWIST_JOBS = {p: {"command": "index", "smax": 200, "payload": {
    "p": p, "g": {"num": [pi, "1/3"], "den": ["0", "0", "1"]}}}
    for p, pi in ((2, ["-2"]), (3, ["0", "1"]), (5, ["0", "1", "0", "0"]),
                  (7, ["0", "1"] + ["0"] * 4))}
DWORK5_JOB = DWORK_TWIST_JOBS[5]
INDEX_OUTPUTS = Path(__file__).parent / "index_outputs"


@pytest.mark.parametrize("p", sorted(DWORK_TWIST_JOBS))
def test_dwork_twist_index_report_bytes(tmp_path, capsys, p):
    # reports recorded when the symbol recurrence ran to smax and every
    # symbol was valued, at every p; that of p = 5 when v_p was read by a
    # ladder of divisions by p^(2^k)
    job = write_job(tmp_path, "dwork.json", DWORK_TWIST_JOBS[p])
    code, out, _ = run(capsys, ["index", "--job", job])
    assert code == 0
    assert out == (INDEX_OUTPUTS / f"dwork-p{p}.json").read_text()


# operators whose symbols fill more than one class, each to its smax:
# g = pi f' for f = x + 1/x at p = 5, two classes, and a g at p = 7 whose
# numerator and denominator fill all six; reports recorded when the symbol
# recurrence ran on numpy object arrays of whole rows
RADIUS_JOBS = {
    "kloosterman-p5": {"command": "radius", "smax": 200, "payload": {
        "p": 5, "g": {"num": [["0", "-1", "0", "0"], "0",
                              ["0", "1", "0", "0"]],
                      "den": ["0", "0", "1"]}}},
    "dense-p7": {"command": "radius", "smax": 60, "payload": {
        "p": 7, "g": {"num": [["1/2", "-3", "2", "0", "5/7", "1"],
                              ["0", "1", "-1/3", "4", "0", "2"]],
                      "den": [["2", "1", "0", "-1", "0", "1/7"],
                              ["0", "1", "0", "0", "0", "0"]]}}},
}
RADIUS_OUTPUTS = Path(__file__).parent / "radius_outputs"


@pytest.mark.parametrize("name", sorted(RADIUS_JOBS))
def test_radius_reports_over_several_classes_match_golden_bytes(
        tmp_path, capsys, name):
    job = write_job(tmp_path, "radius.json", RADIUS_JOBS[name])
    code, out, _ = run(capsys, ["radius", "--job", job])
    assert code == 0
    assert out == (RADIUS_OUTPUTS / f"{name}.json").read_text()


def test_exit_code_budget_radius(tmp_path, capsys, monkeypatch):
    def no_recurrence(*args):
        raise AssertionError("symbol recurrence ran")

    monkeypatch.setattr(padic, "_symbol_numerators", no_recurrence)
    for command in ("radius", "index"):
        deep = write_job(tmp_path, "deep.json",
                         {**DWORK5_JOB, "command": command, "smax": 1600})
        code, out, err = run(capsys, [command, "--job", deep])
        assert code == cli.EXIT_BUDGET and "budget" in err and not out
    job = write_job(tmp_path, "dwork.json", DWORK_JOB)
    code, out, err = run(capsys, ["index", "--job", job, "--smax", "30",
                                  "--budget", "1000"])
    assert code == cli.EXIT_BUDGET and "budget" in err and not out


def test_exit_code_budget_counts_weights(tmp_path, capsys, monkeypatch):
    # 3,000 weights to depth 200: the recurrence alone fits the default
    # budget, and with the pass over the weights it does not
    def no_recurrence(*args):
        raise AssertionError("symbol recurrence ran")

    monkeypatch.setattr(padic, "_symbol_numerators", no_recurrence)
    grid = [f"{k}/1000" for k in range(1, 3001)]
    recurrence = padic.recurrence_work(5, 2, 3, 200)
    assert recurrence < expsum.DEFAULT_BUDGET < \
        recurrence + padic.WEIGHT_PASS_WORK * 200 * len(grid)
    for command in ("radius", "index"):
        job = write_job(tmp_path, "wide.json",
                        {**DWORK5_JOB, "command": command, "grid": grid})
        code, out, err = run(capsys, [command, "--job", job])
        assert code == cli.EXIT_BUDGET and "3000 weights" in err and not out


def _over_budget(command, **payload):
    if command in ("sum", "lfun"):
        payload = {"base": {"p": 2}, "levels": 1, "variety": {
            "kind": "torus", "dim": 1, "f": [[1, [1]]]}, **payload}
    else:
        payload = {"g": {"num": ["1/3"], "den": ["0", "1"]}, **payload}
    return {"command": command, "smax": 200, "payload": payload}


# jobs over the budget that were once refused only after building F_(2^400)
# or F_(2^800), trial division of a 54-bit p, or p - 1 coordinates for each
# coefficient of g, or whose count of the work was too long to print
EARLY_BUDGET_JOBS = {
    "sum-f2^400": _over_budget("sum", base={"p": 2, "n": 400}),
    "lfun-f2^800": _over_budget("lfun", base={"p": 2, "n": 800}),
    "sum-p-54-bits": _over_budget("sum", base={"p": 10000000000000061}),
    "sum-20000-levels": _over_budget("sum", levels=20000),
    "lfun-100000-levels": _over_budget("lfun", levels=100000),
    "lfun-p-100003": _over_budget("lfun", base={"p": 100003}),
    "sum-dim-20000": _over_budget("sum", variety={
        "kind": "affine", "dim": 20000, "f": []}),
    "radius-p-1000003": _over_budget("radius", p=1000003),
    "index-p-100003": _over_budget("index", p=100003),
}


@pytest.mark.parametrize("name", sorted(EARLY_BUDGET_JOBS))
def test_exit_code_budget_before_building(tmp_path, capsys, name):
    doc = EARLY_BUDGET_JOBS[name]
    job = write_job(tmp_path, "big.json", doc)
    start = time.perf_counter()
    code, out, err = run(capsys, [doc["command"], "--job", job])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_BUDGET and not out
    assert err.startswith("budget exceeded: ") and len(err.splitlines()) == 1


CHERN_1600_JOB = {"command": "predict", "payload": {
    "kind": "chern", "n": 1600, "d": [1] * 1601, "e": [1] * 1601}}


@pytest.mark.parametrize("command", ["predict", "lfun"])
def test_exit_code_budget_counts_the_chern_series(tmp_path, capsys,
                                                  monkeypatch, command):
    # the Chern series is charged its steps and coefficient bits before it
    # is summed
    def no_chern(*args):
        raise AssertionError("the Chern value was computed")

    monkeypatch.setattr(predict, "chern_degree", no_chern)
    monkeypatch.setattr(cli, "power_sum_table", no_chern)
    payload = CHERN_1600_JOB["payload"]
    if command == "lfun":
        payload = {**KLOOSTERMAN_JOB["payload"], "predict": payload}
    job = write_job(tmp_path, "chern.json",
                    {"command": command, "payload": payload})
    start = time.perf_counter()
    code, out, err = run(capsys, [command, "--job", job])
    assert time.perf_counter() - start < 1
    assert code == cli.EXIT_BUDGET and not out
    assert err.startswith("budget exceeded: the Chern series needs ")


# expsum.charge's one message: the work's figure, ~2^k past 2^64, or the
# exact ~16*p^n of a level-1 table too large to form
GATE_MESSAGE = re.compile(r"budget exceeded: (?P<what>.+) needs "
                          r"~(\d+|2\^\d+|16\*\d+\^\d+) work units "
                          r"\(.+\); budget is \d+\n")

# refused jobs of each family the budget prices, with their flags, by the
# start of what the gate says needs the work
GATE_JOBS = {
    "table-f5^20": (_over_budget("sum", base={"p": 5, "n": 20}), [],
                    "the table of F_5^20"),
    "table-f2^400": (EARLY_BUDGET_JOBS["sum-f2^400"], [],
                     "the table of F_2^400"),
    "table-f2^800": (EARLY_BUDGET_JOBS["lfun-f2^800"], [],
                     "the table of F_2^800"),
    "table-p-54-bits": (EARLY_BUDGET_JOBS["sum-p-54-bits"], [],
                        "the table of F_10000000000000061^1"),
    "levels-budget-1000": (BIG_SUM_JOB, ["--budget", "1000"],
                           "table through level "),
    "levels-big-table": (BIG_TABLE_JOB, [], "table through level 11 of 12"),
    "levels-20000": (EARLY_BUDGET_JOBS["sum-20000-levels"], [],
                     "table through level "),
    "levels-dim-20000": (EARLY_BUDGET_JOBS["sum-dim-20000"], [],
                         "table through level 1 of 1"),
    "lseries-p-100003": (EARLY_BUDGET_JOBS["lfun-p-100003"], [],
                         "the L-series over Q(zeta_100003) through order 1"),
    "lseries-100000-levels": (EARLY_BUDGET_JOBS["lfun-100000-levels"], [],
                              "the L-series over Q(zeta_2) through order "
                              "100000"),
    "recurrence-smax-1600": ({**DWORK5_JOB, "smax": 1600}, [],
                             "smax 1600 over 5 weights"),
    "recurrence-3000-weights": (
        {**DWORK5_JOB, "grid": [f"{k}/1000" for k in range(1, 3001)]}, [],
        "smax 200 over 3000 weights"),
    "recurrence-p-1000003": (EARLY_BUDGET_JOBS["radius-p-1000003"], [],
                             "smax 200 over 5 weights"),
    "recurrence-budget-1000": (DWORK_JOB, ["--smax", "30", "--budget", "1000"],
                               "smax 30 over 5 weights"),
    # a work of over 4,300 digits, once printed whole: a ValueError, exit 1
    "recurrence-smax-1500-digits": (
        {**DWORK5_JOB, "smax": int("1" * 1500)}, [], "smax 1111"),
    "newton-predict": ({"command": "predict",
                        "payload": _newton_payload(40)}, [],
                       "the Newton polytope's hull"),
    # fermat_chern_spec(1600): 2-3 s of division passes, once uncharged
    "chern-1600": (CHERN_1600_JOB, [], "the Chern series"),
    "chern-lfun": ({"command": "lfun", "payload": {
        **KLOOSTERMAN_JOB["payload"], "predict": CHERN_1600_JOB["payload"]}},
        [], "the Chern series"),
    "fermat-budget-1000": ({"command": "predict", "budget": 1000,
                            "payload": {"kind": "fermat", "n": 3}}, [],
                           "the Fermat prediction"),
    "newton-lfun": ({"command": "lfun", "payload": {
        **KLOOSTERMAN_JOB["payload"], "predict": _newton_payload(40)}}, [],
        "the Newton polytope's hull"),
}


@pytest.mark.parametrize("name", sorted(GATE_JOBS))
def test_budget_refusals_share_one_gate(tmp_path, capsys, name):
    doc, flags, what = GATE_JOBS[name]
    job = write_job(tmp_path, "over.json", doc)
    code, out, err = run(capsys, [doc["command"], "--job", job] + flags)
    assert code == cli.EXIT_BUDGET and not out
    match = GATE_MESSAGE.fullmatch(err)
    assert match and match["what"].startswith(what), err


needs_int_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python converts ints of any length to and from strings")


@needs_int_limit
@pytest.mark.parametrize("command", ["sum", "radius"])
def test_exit_code_job_file_int_too_long(tmp_path, capsys, command):
    # json.load refuses an int of over 4,300 digits with a ValueError, and
    # json.dumps would refuse to write it
    job = tmp_path / "long.json"
    job.write_text((
        '{"payload": {"base": {"p": 3}, "levels": %s, "variety": {"kind": '
        '"affine", "dim": 1, "f": [[1, [1]]]}}}' if command == "sum" else
        '{"smax": %s, "payload": {"p": 5, "g": {"num": ["1/3"], '
        '"den": ["0", "1"]}}}') % ("1" * 5000))
    code, out, err = run(capsys, [command, "--job", str(job)])
    assert code == cli.EXIT_SCHEMA and not out
    assert err.startswith("cannot read job file: ")
    assert len(err.splitlines()) == 1


@needs_int_limit
@pytest.mark.parametrize("payload", [
    {"kind": "sl2", "N": "9" * 4300},
    {"kind": "chern", "n": 3000, "d": [9, 9, 9], "e": [9, 9, 9]}],
    ids=["sl2", "chern"])
def test_exit_code_report_int_too_long(tmp_path, capsys, payload):
    # a prediction of over 4,300 digits cannot be printed, and is not
    # printed in part
    job = write_job(tmp_path, "huge.json",
                    {"command": "predict", "payload": payload})
    report = tmp_path / "report.json"
    for argv in ([], ["--out", str(report)]):
        code, out, err = run(capsys, ["predict", "--job", job] + argv)
        assert code == cli.EXIT_SCHEMA and not out and not report.exists()
        assert err.startswith("cannot write report: ")
        assert len(err.splitlines()) == 1


def test_lfun_over_f4001_ends_within_seconds(tmp_path, capsys):
    # x + 1/x over F_4001 through level 2 is inside the budget with its
    # L-series charged; its products over Q(zeta_4001) and the counting of
    # 4001 trace classes once ran 216 s before the reconstruction, which 2
    # levels cannot certify
    job = write_job(tmp_path, "kloosterman4001.json", {
        "command": "lfun", "payload": {
            "base": {"p": 4001}, "levels": 2,
            "variety": {"kind": "torus", "dim": 1,
                        "f": [[1, [1]], [1, [-1]]]}}})
    start = time.perf_counter()
    code, out, _ = run(capsys, ["lfun", "--job", job])
    assert time.perf_counter() - start < 10
    assert code == cli.EXIT_UNCERTIFIED and not out


# a x + b/x on G_m over F_5 through level 8, as in the kloosterman-f5
# benchmark workload
KLOOSTERMAN5_JOB = {"command": "lfun", "payload": {
    "base": {"p": 5},
    "variety": {"kind": "torus", "dim": 1, "f": [[2, [1]], [3, [-1]]]},
    "levels": 8,
    "predict": {"kind": "curve", "g": 0, "c": 0, "m": 2, "d": 2}}}

# report bytes of KLOOSTERMAN5_JOB, recorded when the field tables built
# exp, log and zech up front and read the trace off them
KLOOSTERMAN5_REPORT = (
    '{"command":"lfun","lseries":{"P":[[[1,1],[0,1],[0,1],[0,1]],'
    '[[2,1],[0,1],[1,1],[1,1]],[[5,1],[0,1],[0,1],[0,1]]],'
    '"Q":[[[1,1],[0,1],[0,1],[0,1]]],"certified_order":8,"degree":-2,'
    '"p":5,"total_degree":2},"match":true,"observed_degree":-2,'
    '"prediction":{"kind":"curve","predicted_degree":2},'
    '"sums":{"n":1,"p":5,"records":[{"coords":[2,0,1,1],"m":1},'
    '{"coords":[5,0,-3,-3],"m":2},{"coords":[-17,0,-7,-7],"m":3},'
    '{"coords":[16,0,39,39],"m":4},{"coords":[14,0,-20,-20],"m":5},'
    '{"coords":[-88,0,-189,-189],"m":6},{"coords":[295,0,377,377],"m":7},'
    '{"coords":[-527,0,273,273],"m":8}]}}\n')


def test_kloosterman_f5_lfun_report_bytes(tmp_path, capsys):
    job = write_job(tmp_path, "kloosterman5.json", KLOOSTERMAN5_JOB)
    code, out, _ = run(capsys, ["lfun", "--job", job])
    assert code == 0
    assert out == KLOOSTERMAN5_REPORT


# lfun reports over Q(zeta_7) and Q(zeta_211), recorded when every
# coordinate of the L-series was a Fraction: x + 1/x on G_m over F_7
# through level 6, and x^2 on A^1 over F_211 through level 2 with bounds
# [1, 0], whose P has 210 coordinates per coefficient; and two recorded
# when a certified L carried a Bezout witness and was certified by
# re-expansion: x^2 y - x on A^2 over F_5 (the plane-f5 benchmark job at
# c = 1) and x^2 + 1/x on G_m over F_13, whose P has degree 3, through
# level 6 each
LFUN_OUTPUTS = Path(__file__).parent / "lfun_outputs"
LFUN_GOLDEN_JOBS = {
    "kloosterman-f7": {"base": {"p": 7}, "levels": 6, "variety": {
        "kind": "torus", "dim": 1, "f": [[1, [1]], [1, [-1]]]}},
    "plane-f5": {"base": {"p": 5}, "levels": 6, "variety": {
        "kind": "affine", "dim": 2, "f": [[1, [2, 1]], [-1, [1, 0]]]}},
    "twist-f13": {"base": {"p": 13}, "levels": 6, "variety": {
        "kind": "torus", "dim": 1, "f": [[1, [2]], [1, [-1]]]}},
    "square-f211": {"base": {"p": 211}, "levels": 2, "bounds": [1, 0],
                    "variety": {"kind": "affine", "dim": 1,
                                "f": [[1, [2]]]}},
}


@pytest.mark.parametrize("name", sorted(LFUN_GOLDEN_JOBS))
def test_lfun_reports_match_golden_bytes(tmp_path, capsys, name):
    job = write_job(tmp_path, f"{name}.json", {
        "command": "lfun", "payload": LFUN_GOLDEN_JOBS[name]})
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, ["lfun", "--job", job, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (LFUN_OUTPUTS / f"{name}.json").read_bytes()


# sum reports over bases larger than F_p, recorded when each level's field
# was build_field's and its generator the first primitive element: a x^3 +
# (1 + 2a)/x^2 + 3x on G_m over F_25 = F_5[a], and g = a x^2 y + y +
# (1 + a) x over h = xy + 2a on the complement of h = 0 in A^2 over
# F_9 = F_3[a], 3 levels each; and two over F_5 recorded when rows that
# outnumber their codes were read one gather per column: x^313 + 2x on G_m
# through level 6, whose rows from level 3 on are 3, 3, 10 and 50 codes
# wide, and x y^313 + 2y + x^2 on G_m^2 through level 4; and two over F_5
# recorded when a complement's strata where h is one term were enumerated
# as complements, and when a coordinate read as 1/y was enumerated, not
# summed out: (x^2 y + 2y + x) / (xy)^2 through level 5, and
# (x + x^2) / y + 2x^3 on G_m^2 through level 6
SUM_OUTPUTS = Path(__file__).parent / "sum_outputs"
SUM_GOLDEN_JOBS = {
    "complement-monomial": {"base": {"p": 5}, "levels": 5, "variety": {
        "kind": "complement", "dim": 2,
        "g": [[1, [2, 1]], [2, [0, 1]], [1, [1, 0]]], "h": [[1, [1, 1]]],
        "k": 2}},
    "inverse-linear": {"base": {"p": 5}, "levels": 6, "variety": {
        "kind": "torus", "dim": 2,
        "f": [[1, [1, -1]], [1, [2, -1]], [2, [3, 0]]]}},
    "narrow-1d": {"base": {"p": 5}, "levels": 6, "variety": {
        "kind": "torus", "dim": 1, "f": [[1, [313]], [2, [1]]]}},
    "narrow-2d": {"base": {"p": 5}, "levels": 4, "variety": {
        "kind": "torus", "dim": 2,
        "f": [[1, [1, 313]], [2, [0, 1]], [1, [2, 0]]]}},
    "torus-f25": {"base": {"p": 5, "n": 2}, "levels": 3, "variety": {
        "kind": "torus", "dim": 1,
        "f": [[[0, 1], [3]], [[1, 2], [-2]], [3, [1]]]}},
    "complement-f9": {"base": {"p": 3, "n": 2}, "levels": 3, "variety": {
        "kind": "complement", "dim": 2,
        "g": [[[0, 1], [2, 1]], [1, [0, 1]], [[1, 1], [1, 0]]],
        "h": [[1, [1, 1]], [[0, 2], [0, 0]]], "k": 1}},
}


@pytest.mark.parametrize("name", sorted(SUM_GOLDEN_JOBS))
def test_sum_reports_over_extension_bases_match_golden_bytes(tmp_path, capsys,
                                                             name):
    job = write_job(tmp_path, f"{name}.json", {
        "command": "sum", "payload": SUM_GOLDEN_JOBS[name]})
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, ["sum", "--job", job, "--out", str(out)])
    assert code == 0
    assert out.read_bytes() == (SUM_OUTPUTS / f"{name}.json").read_bytes()


# g = x^2 y + 2y + x over h^2, h = xy + 1, on the complement of h = 0 in
# A^2 over F_5 through level 5
COMPLEMENT5_JOB = {"command": "sum", "payload": {
    "base": {"p": 5},
    "variety": {"kind": "complement", "dim": 2,
                "g": [[1, [2, 1]], [2, [0, 1]], [1, [1, 0]]],
                "h": [[1, [1, 1]], [1, [0, 0]]], "k": 2},
    "levels": 5}}

# report bytes of COMPLEMENT5_JOB, recorded when h was evaluated by Zech
# addition
COMPLEMENT5_REPORT = (
    '{"command":"sum","n":1,"p":5,"points":[21,601,15501,390001,9762501],'
    '"progress":[{"m":1,"points":25},{"m":2,"points":625},'
    '{"m":3,"points":15625},{"m":4,"points":390625},'
    '{"m":5,"points":9765625}],'
    '"records":[{"coords":[1,0,0,0],"m":1},{"coords":[1,0,0,0],"m":2},'
    '{"coords":[-374,0,0,0],"m":3},{"coords":[1,0,0,0],"m":4},'
    '{"coords":[1,0,0,0],"m":5}]}\n')

# x (1 + a) + 1/x on G_m over F_9 = F_3[a] through level 6
F9_TORUS_JOB = {"command": "sum", "payload": {
    "base": {"p": 3, "n": 2},
    "variety": {"kind": "torus", "dim": 1, "f": [[[1, 1], [1]], [1, [-1]]]},
    "levels": 6}}

# report bytes of F9_TORUS_JOB, recorded when base-field coefficients were
# embedded by a Horner walk over every code of the tower
F9_TORUS_REPORT = (
    '{"command":"sum","n":2,"p":3,"points":[8,80,728,6560,59048,531440],'
    '"progress":[{"m":1,"points":8},{"m":2,"points":80},'
    '{"m":3,"points":728},{"m":4,"points":6560},{"m":5,"points":59048},'
    '{"m":6,"points":531440}],'
    '"records":[{"coords":[-4,0],"m":1},{"coords":[2,0],"m":2},'
    '{"coords":[44,0],"m":3},{"coords":[158,0],"m":4},'
    '{"coords":[236,0],"m":5},{"coords":[-478,0],"m":6}]}\n')


# x y + x y^2 + ... + x y^7 on A^2 over F_5 through level 5: linear in x,
# with A = y + ... + y^7 of seven terms
MULTI_EXPONENT_JOB = {"command": "sum", "payload": {
    "base": {"p": 5},
    "variety": {"kind": "affine", "dim": 2,
                "f": [[1, [1, k]] for k in range(1, 8)]},
    "levels": 5}}

# report bytes of MULTI_EXPONENT_JOB, recorded when each last exponent e
# read its own |e| + 1 copies of the trace table
MULTI_EXPONENT_REPORT = (
    '{"command":"sum","n":1,"p":5,"points":[25,625,15625,390625,9765625],'
    '"progress":[{"m":1,"points":25},{"m":2,"points":625},'
    '{"m":3,"points":15625},{"m":4,"points":390625},'
    '{"m":5,"points":9765625}],'
    '"records":[{"coords":[5,0,0,0],"m":1},{"coords":[25,0,0,0],"m":2},'
    '{"coords":[125,0,0,0],"m":3},{"coords":[625,0,0,0],"m":4},'
    '{"coords":[3125,0,0,0],"m":5}]}\n')


# x y + x y^2 + ... + x y^7 on G_m^2 over F_2 through level 9: linear in
# x, with A = y + ... + y^7, which vanishes where y is a 7th root of unity
# other than 1, so at levels 3, 6 and 9 only
MULTI_TORUS_F2_JOB = {"command": "sum", "payload": {
    "base": {"p": 2},
    "variety": {"kind": "torus", "dim": 2,
                "f": [[1, [1, k]] for k in range(1, 8)]},
    "levels": 9}}

# report bytes of MULTI_TORUS_F2_JOB, recorded when every point of the
# torus was enumerated
MULTI_TORUS_F2_REPORT = (
    '{"command":"sum","n":1,"p":2,'
    '"points":[1,9,49,225,961,3969,16129,65025,261121],'
    '"progress":[{"m":1,"points":1},{"m":2,"points":9},{"m":3,"points":49},'
    '{"m":4,"points":225},{"m":5,"points":961},{"m":6,"points":3969},'
    '{"m":7,"points":16129},{"m":8,"points":65025},'
    '{"m":9,"points":261121}],'
    '"records":[{"coords":[-1],"m":1},{"coords":[-3],"m":2},'
    '{"coords":[41],"m":3},{"coords":[-15],"m":4},{"coords":[-31],"m":5},'
    '{"coords":[321],"m":6},{"coords":[-127],"m":7},'
    '{"coords":[-255],"m":8},{"coords":[2561],"m":9}]}\n')

# the plane x^2 y - x on A^2 over F_5 through level 6
PLANE_F5_JOB = {"command": "sum", "payload": {
    "base": {"p": 5},
    "variety": {"kind": "affine", "dim": 2,
                "f": [[1, [2, 1]], [-1, [1, 0]]]},
    "levels": 6}}

# report bytes of PLANE_F5_JOB, recorded when every point of each
# coordinate stratum was enumerated
PLANE_F5_REPORT = (
    '{"command":"sum","n":1,"p":5,'
    '"points":[25,625,15625,390625,9765625,244140625],'
    '"progress":[{"m":1,"points":25},{"m":2,"points":625},'
    '{"m":3,"points":15625},{"m":4,"points":390625},'
    '{"m":5,"points":9765625},{"m":6,"points":244140625}],'
    '"records":[{"coords":[5,0,0,0],"m":1},{"coords":[25,0,0,0],"m":2},'
    '{"coords":[125,0,0,0],"m":3},{"coords":[625,0,0,0],"m":4},'
    '{"coords":[3125,0,0,0],"m":5},{"coords":[15625,0,0,0],"m":6}]}\n')

# x + 3/x on G_m over F_17 through level 3: the table product of F_17^2
# and F_17^3 sums in uint16
KLOOSTERMAN17_JOB = {"command": "sum", "payload": {
    "base": {"p": 17},
    "variety": {"kind": "torus", "dim": 1, "f": [[1, [1]], [3, [-1]]]},
    "levels": 3}}

# report bytes of KLOOSTERMAN17_JOB, recorded when the generator was found
# by FqElem powers and the table product ran in int64
KLOOSTERMAN17_REPORT = (
    '{"command":"sum","n":1,"p":17,"points":[16,288,4912],'
    '"progress":[{"m":1,"points":16},{"m":2,"points":288},'
    '{"m":3,"points":4912}],'
    '"records":[{"coords":[0,0,2,0,2,2,0,0,2,2,0,0,2,2,0,2],"m":1},'
    '{"coords":[14,0,4,-4,-8,4,-4,-8,0,0,-8,-4,4,-8,-4,4],"m":2},'
    '{"coords":[-48,0,-46,-48,-102,-46,-16,-64,-54,-54,-64,-16,-46,-102,'
    '-48,-46],"m":3}]}\n')


@pytest.mark.parametrize("doc,report", [
    (COMPLEMENT5_JOB, COMPLEMENT5_REPORT), (F9_TORUS_JOB, F9_TORUS_REPORT),
    (MULTI_EXPONENT_JOB, MULTI_EXPONENT_REPORT),
    (MULTI_TORUS_F2_JOB, MULTI_TORUS_F2_REPORT),
    (PLANE_F5_JOB, PLANE_F5_REPORT),
    (KLOOSTERMAN17_JOB, KLOOSTERMAN17_REPORT)],
    ids=["complement-f5", "torus-f9", "multi-exponent-f5",
         "multi-exponent-torus-f2", "plane-f5", "kloosterman-f17"])
def test_sum_report_bytes(tmp_path, capsys, doc, report):
    job = write_job(tmp_path, "job.json", doc)
    code, out, _ = run(capsys, ["sum", "--job", job])
    assert code == 0
    assert out == report


def test_job_documents_match_schema():
    jsonschema = pytest.importorskip("jsonschema")
    path = Path(cli.__file__).parent / "schemas" / "job.schema.json"
    schema = json.loads(path.read_text())
    jsonschema.Draft202012Validator.check_schema(schema)
    validator = jsonschema.Draft202012Validator(schema)
    for doc in [SUM_JOB, KLOOSTERMAN_JOB, DWORK_JOB, RADIUS_JOB, SCALE_JOB,
                COMPLEMENT_JOB, SL2_JOB, BIG_SUM_JOB, BIG_TABLE_JOB,
                UNCERTIFIED_JOB, *DWORK_TWIST_JOBS.values(),
                KLOOSTERMAN5_JOB,
                COMPLEMENT5_JOB, F9_TORUS_JOB, MULTI_EXPONENT_JOB,
                MULTI_TORUS_F2_JOB, PLANE_F5_JOB,
                KLOOSTERMAN17_JOB] + PREDICT_JOBS + [
                    {"command": "sum", "payload": job}
                    for job in SUM_GOLDEN_JOBS.values()]:
        validator.validate(doc)
    assert not validator.is_valid(BAD_SUM_JOB)
    assert not any(validator.is_valid(doc) for doc in NO_THREADS_JOBS)
    assert not any(validator.is_valid(doc) for doc in NOT_INT_JOBS.values())
    assert not any(validator.is_valid(doc) for doc in BAD_SMAX_JOBS.values())
    assert not any(validator.is_valid(doc)
                   for doc in SCALE_MIXED_JOBS.values())
    assert not validator.is_valid(FERMAT_LFUN_JOB)
    assert not any(validator.is_valid(doc) for name, doc
                   in NOT_PRIME_JOBS.items() if name.endswith("-p1"))


def test_predict_job_of_each_kind():
    for doc in PREDICT_JOBS:
        report, _ = cli.run_job(doc)
        assert report["kind"] == doc["payload"]["kind"]
