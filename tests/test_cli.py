"""CLI: subcommand output, determinism, schemas, exit codes."""

import importlib.resources as resources
import json

import pytest

from hecke_census.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def schema(name):
    return json.loads(
        resources.files("hecke_census").joinpath(f"schemas/{name}.schema.json").read_text()
    )


def test_census_csv_golden(capsys):
    code, out = run(capsys, "census", "--p", "4", "--max-len", "4", "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "len,symmetric,p_reciprocal,symmetric_p,power,reciprocal_total,all_classes"
    assert lines[2].startswith("3,0,0,1,1,1,")
    assert lines[3].startswith("4,1,0,0,0,1,")


def test_census_json_schema(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run(capsys, "census", "--p", "6", "--max-len", "8")
    assert code == 0
    jsonschema.validate(json.loads(out), schema("census"))


def test_census_out_file(tmp_path, capsys):
    target = tmp_path / "table.csv"
    code, _ = run(capsys, "census", "--p", "4", "--max-len", "4",
                  "--format", "csv", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("len,")


def test_claims_schema_and_exit_zero_despite_mismatches(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run(capsys, "claims", "--p", "6", "--max-len", "10")
    assert code == 0  # MISMATCH entries are findings, not failures
    doc = json.loads(out)
    jsonschema.validate(doc, schema("claims"))
    assert any(e["status"] == "MISMATCH" for e in doc["claims"])


@pytest.mark.parametrize("p,expected", [("8", "-1/4"), ("12", "3/8")])
def test_claims_p_multiple_of_four_reports_out_of_range_terms(capsys, p, expected):
    # the odd-length family evaluates 2^l at negative l for p >= 8
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run(capsys, "claims", "--p", p, "--max-len", "10")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("claims"))
    first = next(e for e in doc["claims"] if e["id"] == "L4.7.1" and e["params"]["l"] == "2")
    assert (first["expected"], first["observed"], first["status"]) == (expected, "0", "MISMATCH")


def test_poly_r2_golden(capsys):
    code, out = run(capsys, "poly", "--r", "2")
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [-1, -2, 0, 1]
    assert abs(float(doc["rho"]) - 1.6180339887) < 1e-9
    assert doc["s"] == 1
    assert not doc["eisenstein"]["satisfied"]


def test_growth_schema_and_convergence(capsys):
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run(capsys, "growth", "--p", "6", "--max-len", "16")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("growth"))
    final_index, final_ratio = doc["ratio_trace"][-1]
    assert final_index == 79
    assert abs(float(final_ratio) - float(doc["rho"])) < 1e-6


def test_verify_passes(capsys):
    code, out = run(capsys, "verify", "--max-len", "10")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_short_budget_checks_every_fixture(capsys):
    # fixture tables reach the longest fixture whatever --max-len is
    code, out = run(capsys, "verify", "--max-len", "8")
    assert code == 0
    assert out.splitlines()[-1] == "16/16 checks passed"


def test_root_finder_failure_is_one_line_error(capsys):
    code = main(["poly", "--r", "20"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["census", "--p", "4"])  # missing --max-len
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "--p", "4", "--max-len", "4", "--unknown-flag"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["census", "--p", "4", "--max-len", "4", "--threads", "2"])  # removed option
    assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code = main(["census", "--p", "2", "--max-len", "4"])
    assert code == 2


def test_odd_p_claims_rejected(capsys):
    code = main(["claims", "--p", "5", "--max-len", "6"])
    assert code == 2
