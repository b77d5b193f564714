import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

jsonschema = pytest.importorskip("jsonschema")

from rosegbs import cli
from rosegbs.cli import main

PRES1 = "<a,t1|t1 a^2 t1^-1 = a^12>"
PRES_CASE2 = "<a,t1|t1 a^3 t1^-1 = a^1>"
PRES_R2 = "<a,t1,t2|t1 a^2 t1^-1 = a^2 ; t2 a^4 t2^-1 = a^4>"
DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parents[1] / "src"


@pytest.fixture(scope="module")
def schema():
    from importlib import resources

    return json.loads(
        resources.files("rosegbs.data").joinpath("report.schema.json").read_text()
    )


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--format", "json")
    return code, json.loads(out)


def test_classify_text(capsys):
    code, out = run(capsys, "classify", "-p", "2", PRES1)
    assert code == 0
    assert "case 1: xi = 1" in out


def test_classify_case2(capsys):
    code, out = run(capsys, "classify", "-p", "3", "<a,t1|t1 a^3 t1^-1 = a^12>")
    assert code == 0 and "case 2: Sigma = 1" in out


def test_classify_json_schema(capsys, schema):
    code, rep = run_json(capsys, "classify", "-p", "2", PRES1)
    assert code == 0
    jsonschema.validate(rep, schema)
    assert rep["case"] == 1 and rep["xi"] == 1
    assert rep["loops"][0]["theta"] == 1


def test_not_prime_exits_2(capsys):
    assert main(["classify", "-p", "4", PRES1]) == 2


def test_prime_bound_exits_2(capsys):
    # 2^31 + 11 is prime; the bound is checked before primality
    assert main(["verify", "-p", "2147483659", PRES1]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: p must be at most 2^31, got 2147483659\n"
    assert main(["verify", "-p", "4", PRES1]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: 4 is not prime\n"


def test_parse_error_exits_2(capsys):
    assert main(["classify", "-p", "2", "<a,t1|t1 a^0 t1^-1 = a^3>"]) == 2
    assert main(["classify", "-p", "2", "<a,t1 | t01 a^2 t01^-1 = a^3>"]) == 2


def test_generators_text_serialization(capsys):
    code, out = run(capsys, "generators", "-p", "2", PRES_CASE2,
                    "--bounds.k-max", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("# family=")
    assert "t1 a^3 t1^-1 a^-1" in out


def test_generators_case1_single_line(capsys):
    code, rep = run_json(capsys, "generators", "-p", "2", PRES1)
    assert code == 0
    assert [g["word"] for g in rep["generators"]] == ["a^2"]


def test_generators_json_schema(capsys, schema):
    code, rep = run_json(capsys, "generators", "-p", "2", PRES_CASE2)
    assert code == 0
    jsonschema.validate(rep, schema)


def test_generators_truncation_flag(capsys, schema):
    code, rep = run_json(
        capsys, "generators", "-p", "2",
        "<a,t1,t2|t1 a^3 t1^-1 = a^1 ; t2 a^5 t2^-1 = a^1>",
        "--bounds.count-limit", "3",
    )
    assert code == 0 and rep["truncated"] and rep["count"] == 3
    jsonschema.validate(rep, schema)


def test_residual_json(capsys, schema):
    code, rep = run_json(capsys, "residual", "-p", "2", PRES_R2)
    assert code == 0
    jsonschema.validate(rep, schema)
    assert rep["decision"] is True
    assert rep["reason"] == "ALL_LOOPS_EQUAL_P_POWER"
    code, rep = run_json(
        capsys, "residual", "-p", "2",
        "<a,t1,t2|t1 a^3 t1^-1 = a^1 ; t2 a^2 t2^-1 = a^2>",
    )
    assert rep["decision"] is False and rep["witness"] == [1, 2]
    assert rep["obstruction_kind"] == "K"


def test_verify_exit_codes(capsys, schema):
    code, rep = run_json(capsys, "verify", "-p", "2", PRES1)
    assert code == 0 and rep["status"] == "ok"
    jsonschema.validate(rep, schema)
    # budget zero: nothing tested, inconclusive only
    code, rep = run_json(capsys, "verify", "-p", "2", PRES1,
                         "--budget.max-order", "0", "--budget.s-max", "0")
    assert code == 3 and rep["status"] == "inconclusive"
    jsonschema.validate(rep, schema)


@pytest.mark.parametrize("error", [RuntimeError("lift bug"), MemoryError("boom")])
def test_unexpected_failure_exits_4(capsys, monkeypatch, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr("rosegbs.cli.verify_theorem", fail)
    assert main(["verify", "-p", "2", PRES1]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err
    assert f"error: internal: {type(error).__name__}: {error}" in err


def test_verify_assignment_cap_is_inconclusive(capsys, monkeypatch, schema):
    # 2 codes per orbit representative: a cap of 40 leaves out the non-abelian
    # groups with more than 20 (D8xC2, C4:C4, V4:C4), never an abelian one;
    # C2 still separates a
    monkeypatch.setattr("rosegbs.quotients.MAX_ASSIGNMENTS", 40)
    code, rep = run_json(capsys, "verify", "-p", "2", PRES1)
    assert code == 3 and rep["status"] == "inconclusive"
    jsonschema.validate(rep, schema)
    skipped = ["D8xC2", "C4:C4", "V4:C4"]
    assert not set(skipped) & set(rep["catalog"])
    assert {"C2x4", "C16", "SD16", "D8*C4"} <= set(rep["catalog"])
    assert len(rep["catalog"]) == 22 - len(skipped)
    [reason] = rep["inconclusive"]
    assert ", ".join(skipped) in reason and "--budget.max-order" in reason
    [sep] = [v for v in rep["verdicts"] if v["check"] == "separation"]
    assert sep["verdict"] == "separated"
    assert rep["witnesses"][0]["target"] == "C2"


@pytest.mark.filterwarnings("ignore:no catalog available")
def test_verify_holomorph_blowup_is_inconclusive(capsys, schema):
    # the unit subgroup <2> mod 101^s has 100 * 101^(s-1) elements; the
    # oracle must stop at s = 1 and never enumerate it
    start = time.perf_counter()
    code, rep = run_json(capsys, "verify", "-p", "101",
                         "<a,t1 | t1 a^1 t1^-1 = a^2>")
    assert time.perf_counter() - start < 2
    assert code == 3
    jsonschema.validate(rep, schema)
    assert rep["holomorph_s"] == []
    assert rep["holomorph_unavailable"] == (
        "s=1: not-a-p-group: unit subgroup has order 100, not a power of 101"
    )


@pytest.mark.filterwarnings("ignore:no catalog available")
def test_verify_unprintable_order_exits_2(capsys):
    # the holomorph at s has order 101^(2s - 1): 4,300 digits at s = 1073,
    # the most an int prints with, and 4,304 at s = 1074
    argv = ["verify", "-p", "101", "<a,t1 | t1 a^1 t1^-1 = a^102>", "--budget.s-max"]
    assert main(argv + ["1073", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["holomorph_s"][-1] == 1073
    errs = []
    for fmt in ("json", "text"):
        assert main(argv + ["1074", "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        errs.append(captured.err)
    assert errs[0] == errs[1] == (
        "error: the holomorph at s=1074 has an order of more than 4300 digits,"
        " too long to print; set --budget.s-max below 1074\n"
    )


def test_verify_case2_json(capsys, schema):
    code, rep = run_json(capsys, "verify", "-p", "2", PRES_CASE2,
                         "--bounds.k-max", "1")
    assert code == 0
    jsonschema.validate(rep, schema)
    assert rep["orientation_adjudication"]["surviving"] == ["canonical"]
    assert rep["xi_or_sigma"] == 0


def test_verify_deterministic_output(capsys):
    _, out1 = run(capsys, "verify", "-p", "2", PRES_CASE2, "--format", "json")
    _, out2 = run(capsys, "verify", "-p", "2", PRES_CASE2, "--format", "json")
    assert out1 == out2


# Recorded `verify --format json` stdout; together these cover a catalog
# witness, a holomorph witness with a later holomorph unavailable, holomorph
# witnesses in the orientation adjudication, and both witness kinds at r = 2.
GOLDEN_VERIFY = {
    "verify_case1_catalog.json": ["-p", "2", "<a,t1 | t1 a^2 t1^-1 = a^12>"],
    "verify_holomorph_unavailable.json": [
        "-p", "3", "<a,t1 | t1 a^9 t1^-1 = a^18>", "--budget.max-order", "3",
    ],
    "verify_orientation_holomorph.json": [
        "-p", "2", "<a,t1 | t1 a^3 t1^-1 = a^1>", "--bounds.k-max", "1",
    ],
    "verify_r2_both_kinds.json": [
        "-p", "2", "<a,t1,t2 | t1 a^3 t1^-1 = a^1 ; t2 a^5 t2^-1 = a^1>",
        "--bounds.k-max", "1", "--bounds.comm-len", "4",
    ],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_VERIFY))
def test_verify_golden_output(capsys, name):
    code, out = run(capsys, "verify", *GOLDEN_VERIFY[name], "--format", "json")
    assert code == 0
    assert out == (DATA / name).read_text(encoding="utf-8")


# catalog-validate inputs, written to a file per run (the text names no path)
GOLDEN_CATALOGS = {
    "ok": "group C9 p=3 n=2\npow 1 = g2\nend\n"
          "group He3 p=3 n=3\ncomm 2 1 = g3\nend\n",
    "invalid": "group bad p=3 n=2\ncomm 2 1 = g2\nend\n",
    "empty": "",
}

# Recorded `--format text` stdout: name -> (argv, exit code).  The verify
# cases are those of GOLDEN_VERIFY and a zero-budget run; a "catalog-validate" argv names a key of
# GOLDEN_CATALOGS in place of the path.
GOLDEN_TEXT = {
    **{
        name.replace(".json", ".txt"): (["verify", *argv], 0)
        for name, argv in GOLDEN_VERIFY.items()
    },
    "verify_inconclusive.txt": (
        ["verify", "-p", "2", PRES1, "--budget.max-order", "0", "--budget.s-max", "0"],
        3,
    ),
    "classify_case1.txt": (
        ["classify", "-p", "3", "<a,t1,t2 | t1 a^9 t1^-1 = a^18 ; t2 a^6 t2^-1 = a^6>"],
        0,
    ),
    "classify_case2_warning.txt": (
        ["classify", "-p", "2", "<a,t1,t2 | t1 a^1 t1^-1 = a^-1 ; t2 a^3 t2^-1 = a^1>"],
        0,
    ),
    "generators_truncated.txt": (
        ["generators", "-p", "2", "<a,t1,t2 | t1 a^3 t1^-1 = a^1 ; t2 a^5 t2^-1 = a^1>",
         "--bounds.count-limit", "3"],
        0,
    ),
    "residual_pair_witness.txt": (
        ["residual", "-p", "2", "<a,t1,t2 | t1 a^3 t1^-1 = a^1 ; t2 a^2 t2^-1 = a^2>"],
        0,
    ),
    "residual_warning.txt": (
        ["residual", "-p", "2", "<a,t1,t2 | t1 a^1 t1^-1 = a^1 ; t2 a^2 t2^-1 = a^-2>"],
        0,
    ),
    **{
        f"catalog_validate_{key}.txt": (
            ["catalog-validate", key, "--confluence-words", "100"], int(key == "invalid"),
        )
        for key in GOLDEN_CATALOGS
    },
}


def golden_text_argv(name, tmp_path):
    argv, code = GOLDEN_TEXT[name]
    if argv[0] == "catalog-validate":
        path = tmp_path / "catalog.txt"
        path.write_text(GOLDEN_CATALOGS[argv[1]])
        argv = [argv[0], str(path), *argv[2:]]
    return argv, code


@pytest.mark.filterwarnings("ignore:catalog is empty")
@pytest.mark.parametrize("name", sorted(GOLDEN_TEXT))
def test_text_golden_output(capsys, tmp_path, name):
    argv, want = golden_text_argv(name, tmp_path)
    code, out = run(capsys, *argv, "--format", "text")
    assert code == want
    assert out == (DATA / name).read_text(encoding="utf-8")


def test_json_renders_no_text(capsys, tmp_path, monkeypatch):
    def fail(report):
        raise AssertionError("text rendered for --format json")

    for name in ("_verify_text", "_classify_text", "_residual_text"):
        monkeypatch.setattr(cli, name, fail)
    for name in ("verify_case1_catalog.txt", "classify_case1.txt",
                 "residual_pair_witness.txt"):
        argv, want = golden_text_argv(name, tmp_path)
        assert main([*argv, "--format", "json"]) == want
        json.loads(capsys.readouterr().out)


JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(2**63, 2**200).map(lambda n: -n),
    st.floats(allow_nan=True, allow_infinity=True), st.text(),
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(), inner, max_size=4),
    ),
    max_leaves=25,
)


@settings(max_examples=150, deadline=None)
@given(JSON_VALUES)
@example({"": [], "b": {}, "a": [[], {}, [[]], {"x": {}}], "\u00e9\x00\n\u2028\x7f": "\U0001F600\t\""})
@example([True, 1, False, 0, 2**64, -(2**64) - 1, 10**40, True, 1.0, -0.0])
@example({"f": [float("inf"), float("-inf"), float("nan"), 1e300, 5e-324, 0.1]})
@example([])
@example({})
@example("plain")
def test_json_emitter_matches_json_dumps(value):
    """The report emitter writes what json.dumps(.., sort_keys=True,
    indent=2) writes, byte for byte."""
    assert cli._json(value) == json.dumps(value, sort_keys=True, indent=2)


def test_presentation_from_file(tmp_path, capsys):
    path = tmp_path / "pres.txt"
    path.write_text(PRES1 + "\n")
    code, out = run(capsys, "classify", "-p", "2", str(path))
    assert code == 0 and "case 1" in out


def test_env_var_override(capsys, monkeypatch):
    monkeypatch.setenv("ROSEGBS_P", "2")
    monkeypatch.setenv("ROSEGBS_FORMAT", "json")
    code, out = run(capsys, "classify", PRES1)
    assert code == 0
    assert json.loads(out)["p"] == 2


def run_process(env, *argv):
    """rosegbs as its own process, with env as the only ROSEGBS_ variables."""
    full = {k: v for k, v in os.environ.items() if not k.startswith("ROSEGBS_")}
    full.update(env, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-m", "rosegbs.cli", *argv],
        env=full, capture_output=True, text=True, timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def run_main(capsys, monkeypatch, env, *argv):
    for k in os.environ:
        if k.startswith("ROSEGBS_"):
            monkeypatch.delenv(k)
    for k, v in env.items():
        monkeypatch.setenv(k, v)
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# name: (environment, argv, exit code); exit 0 cases report "p": 2
SETTINGS_CASES = {
    "bad-int": ({"ROSEGBS_K_MAX": "abc"}, ["verify", "-p", "2", PRES1], 2),
    "bad-choice": ({"ROSEGBS_FORMAT": "xml"}, ["classify", "-p", "2", PRES1], 2),
    "missing-p": ({}, ["classify", PRES1], 2),
    "flag-wins": (
        {"ROSEGBS_P": "3"}, ["classify", "-p", "2", PRES1, "--format", "json"], 0,
    ),
}


@pytest.mark.parametrize("via", ["process", "main"])
@pytest.mark.parametrize("name", sorted(SETTINGS_CASES))
def test_settings_resolution(capsys, monkeypatch, name, via):
    env, argv, want = SETTINGS_CASES[name]
    if via == "process":
        code, out, err = run_process(env, *argv)
    else:
        code, out, err = run_main(capsys, monkeypatch, env, *argv)
    assert code == want
    assert "Traceback" not in err
    if want == 2:
        assert err.startswith("error:") and out == ""
    else:
        assert json.loads(out)["p"] == 2


def test_seed_only_on_catalog_validate(tmp_path):
    argv = ["verify", "-p", "2", PRES1, "--format", "json"]
    code, out, err = run_process({}, *argv)
    assert code == 0 and err == ""
    assert run_process({"ROSEGBS_SEED": "abc"}, *argv) == (0, out, "")
    code, out, err = run_process({}, *argv, "--seed", "5")
    assert code == 2 and out == "" and "unrecognized arguments: --seed 5" in err
    path = tmp_path / "cat.txt"
    path.write_text("group C2 p=2 n=1\nend\n")
    code, out, err = run_process({"ROSEGBS_SEED": "abc"}, "catalog-validate", str(path))
    assert code == 2 and err.startswith("error: ROSEGBS_SEED")


def test_settings_read_on_every_call(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_parser", None)
    real = cli._build_parser
    monkeypatch.setattr(cli, "_build_parser", lambda: built.append(1) or real())
    monkeypatch.setenv("ROSEGBS_FORMAT", "text")
    code, out = run(capsys, "classify", "-p", "2", PRES1)
    assert code == 0 and out.startswith("case 1: xi = 1")
    monkeypatch.setenv("ROSEGBS_FORMAT", "json")
    code, out = run(capsys, "classify", "-p", "2", PRES1)
    assert code == 0 and json.loads(out)["xi"] == 1
    assert len(built) == 1


def test_catalog_validate(tmp_path, capsys, schema):
    path = tmp_path / "cat.txt"
    path.write_text(
        "group C9 p=3 n=2\npow 1 = g2\nend\n"
        "group He3 p=3 n=3\ncomm 2 1 = g3\nend\n"
    )
    code, rep = run_json(capsys, "catalog-validate", str(path),
                         "--confluence-words", "100")
    assert code == 0
    jsonschema.validate(rep, schema)
    assert [g["name"] for g in rep["groups"]] == ["C9", "He3"]


def test_catalog_validate_trivial_group(tmp_path, capsys, schema):
    path = tmp_path / "trivial.txt"
    path.write_text("group T p=2 n=0\nend\n")
    code, rep = run_json(capsys, "catalog-validate", str(path),
                         "--confluence-words", "100")
    assert code == 0
    jsonschema.validate(rep, schema)
    assert rep["groups"] == [{"name": "T", "p": 2, "order": 1, "status": "ok",
                              "confluence_words": 100}]


def test_catalog_validate_larger_prime(tmp_path, capsys, schema):
    # at p = 37 a letter's index g * (4p + 1) does not fit an int8
    path = tmp_path / "c37.txt"
    path.write_text("group C37 p=37 n=1\nend\n")
    code, rep = run_json(capsys, "catalog-validate", str(path))
    assert code == 0
    jsonschema.validate(rep, schema)
    assert rep["groups"] == [{"name": "C37", "p": 37, "order": 37, "status": "ok",
                              "confluence_words": 1000}]


def test_catalog_validate_word_count(tmp_path, capsys, schema):
    path = tmp_path / "cat.txt"
    path.write_text("group C9 p=3 n=2\npow 1 = g2\nend\n")
    code, rep = run_json(capsys, "catalog-validate", str(path),
                         "--confluence-words", "0")
    assert code == 0 and rep["groups"][0]["confluence_words"] == 0
    code = main(["catalog-validate", str(path), "--confluence-words", "-5"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error:") and "--confluence-words" in captured.err
    rep["groups"][0]["confluence_words"] = -5
    with pytest.raises(jsonschema.ValidationError):
        jsonschema.validate(rep, schema)


def test_catalog_validate_rejects_bad(tmp_path, capsys, schema):
    path = tmp_path / "bad.txt"
    path.write_text("group bad p=3 n=2\ncomm 2 1 = g2\nend\n")
    code, rep = run_json(capsys, "catalog-validate", str(path))
    assert code == 1 and rep["status"] == "invalid"
    jsonschema.validate(rep, schema)


def test_catalog_validate_prime_bound(tmp_path, capsys, schema):
    path = tmp_path / "m61.txt"
    path.write_text("group X p=2305843009213693951 n=1\nend\n")
    code, rep = run_json(capsys, "catalog-validate", str(path))
    assert code == 1 and rep["status"] == "invalid"
    assert rep["error"] == (
        "group X: p must be at most 2^31, got 2305843009213693951"
    )
    jsonschema.validate(rep, schema)


def test_catalog_validate_missing_file(capsys):
    assert main(["catalog-validate", "/nonexistent/cat.txt"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: [Errno 2] No such file or directory: '/nonexistent/cat.txt'\n"
    )


def test_warnings_are_one_line_each(tmp_path):
    """Library warnings reach stderr as 'warning: <message>' lines, with no
    source location, so their bytes do not move with the source."""
    code, out, err = run_process(
        {}, "verify", "-p", "7", "<a,t1 | t1 a^1 t1^-1 = a^8>", "--format", "json")
    assert code == 0 and json.loads(out)["catalog"] == ["C7"]
    assert err == ("warning: no shipped catalog for p=7; using abelian groups"
                   " of order <= 7^2 only\n")
    path = tmp_path / "empty.txt"
    path.write_text("# nothing here\n")
    assert run_process({}, "catalog-validate", str(path)) == (
        0, "empty catalog\nvalidated 0 groups\n", "warning: catalog is empty\n")
