import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from expsumlab import cli, expsum, padic


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


# the Dwork twist of (1/3)/x at p = 5 to depth 200: g = (pi + x/3) / x^2
DWORK5_JOB = {"command": "index", "smax": 200, "payload": {
    "p": 5, "g": {"num": [["0", "1", "0", "0"], "1/3"],
                  "den": ["0", "0", "1"]}}}

# report bytes of DWORK5_JOB, recorded when v_p was read by a ladder of
# divisions by p^(2^k)
DWORK5_REPORT = (
    '{"command":"index","endpoint_slopes":[2,2],"index":0,"p":5,"samples":['
    '{"den_tie":false,"lambda":"1/4","method":"power-subsequence",'
    '"r":"1/2","stabilized":true},'
    '{"den_tie":false,"lambda":"1/2","method":"power-subsequence",'
    '"r":1,"stabilized":true},'
    '{"den_tie":false,"lambda":1,"method":"power-subsequence",'
    '"r":2,"stabilized":true},'
    '{"den_tie":false,"lambda":"3/2","method":"power-subsequence",'
    '"r":3,"stabilized":true},'
    '{"den_tie":false,"lambda":2,"method":"power-subsequence",'
    '"r":4,"stabilized":true}]}\n')


def test_dwork_p5_index_report_bytes(tmp_path, capsys):
    job = write_job(tmp_path, "dwork5.json", DWORK5_JOB)
    code, out, _ = run(capsys, ["index", "--job", job])
    assert code == 0
    assert out == DWORK5_REPORT


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


# x y + x y^2 + ... + x y^7 on A^2 over F_5 through level 5: seven last
# exponents, whose windows all read the one doubled trace table
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


@pytest.mark.parametrize("doc,report", [
    (COMPLEMENT5_JOB, COMPLEMENT5_REPORT), (F9_TORUS_JOB, F9_TORUS_REPORT),
    (MULTI_EXPONENT_JOB, MULTI_EXPONENT_REPORT)],
    ids=["complement-f5", "torus-f9", "multi-exponent-f5"])
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
                UNCERTIFIED_JOB, DWORK5_JOB, KLOOSTERMAN5_JOB,
                COMPLEMENT5_JOB, F9_TORUS_JOB,
                MULTI_EXPONENT_JOB] + PREDICT_JOBS:
        validator.validate(doc)
    assert not validator.is_valid(BAD_SUM_JOB)
    assert not any(validator.is_valid(doc) for doc in NO_THREADS_JOBS)
    assert not any(validator.is_valid(doc) for doc in NOT_INT_JOBS.values())
    assert not any(validator.is_valid(doc) for doc in BAD_SMAX_JOBS.values())
    assert not any(validator.is_valid(doc)
                   for doc in SCALE_MIXED_JOBS.values())
    assert not any(validator.is_valid(doc) for name, doc
                   in NOT_PRIME_JOBS.items() if name.endswith("-p1"))


def test_predict_job_of_each_kind():
    for doc in PREDICT_JOBS:
        report, _ = cli.run_job(doc)
        assert report["kind"] == doc["payload"]["kind"]
