import json
import time
from pathlib import Path

import pytest

jsonschema = pytest.importorskip("jsonschema")

from rosegbs.cli import main

PRES1 = "<a,t1|t1 a^2 t1^-1 = a^12>"
PRES_CASE2 = "<a,t1|t1 a^3 t1^-1 = a^1>"
PRES_R2 = "<a,t1,t2|t1 a^2 t1^-1 = a^2 ; t2 a^4 t2^-1 = a^4>"
DATA = Path(__file__).parent / "data"


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


def test_parse_error_exits_2(capsys):
    assert main(["classify", "-p", "2", "<a,t1|t1 a^0 t1^-1 = a^3>"]) == 2


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
    # order^2 > 100 leaves out every group of order 16; C2 still separates a
    monkeypatch.setattr("rosegbs.quotients.MAX_ASSIGNMENTS", 100)
    code, rep = run_json(capsys, "verify", "-p", "2", PRES1)
    assert code == 3 and rep["status"] == "inconclusive"
    jsonschema.validate(rep, schema)
    assert "C16" not in rep["catalog"] and "C8" in rep["catalog"]
    [reason] = rep["inconclusive"]
    assert "C16" in reason and "--budget.max-order" in reason
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


def test_catalog_validate_rejects_bad(tmp_path, capsys, schema):
    path = tmp_path / "bad.txt"
    path.write_text("group bad p=3 n=2\ncomm 2 1 = g2\nend\n")
    code, rep = run_json(capsys, "catalog-validate", str(path))
    assert code == 1 and rep["status"] == "invalid"
    jsonschema.validate(rep, schema)


def test_catalog_validate_missing_file(capsys):
    assert main(["catalog-validate", "/nonexistent/cat.txt"]) == 2
