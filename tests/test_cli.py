"""CLI: subcommand output, determinism, schemas, exit codes."""

import hashlib
import importlib.resources as resources
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hecke_census
from hecke_census import cli
from hecke_census.census import census, table_to_csv
from hecke_census.cli import _build_parser, main
from hecke_census.words import CyclicWord, make_params


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


def test_growth_even_r_seeds_from_odd_lengths(capsys):
    # p = 8 has r = 4 even, so the seed is the odd-length family
    jsonschema = pytest.importorskip("jsonschema")
    code, out = run(capsys, "growth", "--p", "8", "--max-len", "20")
    assert code == 0
    doc = json.loads(out)
    jsonschema.validate(doc, schema("growth"))
    assert doc["rho"] == "1.9275619754830586"
    _, final_ratio = doc["ratio_trace"][-1]
    assert abs(float(final_ratio) - float(doc["rho"])) < 1e-9


def test_growth_short_seed_is_a_usage_error(capsys):
    code = main(["growth", "--p", "6", "--max-len", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "r+1 = 4" in captured.err


def test_growth_short_seed_is_reported_before_the_root_iteration(capsys):
    # r = 20 is a known all_roots failure (exit 1); the seed check comes first
    code = main(["growth", "--p", "40", "--max-len", "10"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: --max-len 10 yields only 4 family terms; need at least r+1 = 21\n"
    )


def test_verify_passes(capsys):
    code, out = run(capsys, "verify")
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out


def test_verify_names_the_first_non_reciprocal_normal_form(capsys, monkeypatch):
    # i g^1 is not reciprocal; added at every length for p = 4 and p = 6,
    # the check must name the first one it meets, at p = 4
    generate = cli.normal_form_generate

    def unsound(params, length):
        return generate(params, length) | {CyclicWord.from_blocks(params, (1,))}

    monkeypatch.setattr(cli, "normal_form_generate", unsound)
    code, out = run(capsys, "verify")
    assert code == 1
    assert "[FAIL] normal-form soundness  (non-reciprocal normal form i g^1 (p=4))" in out
    assert out.splitlines()[-1] == "16/17 checks passed"


def test_verify_runs_no_root_iteration(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify must not run the root iteration")

    monkeypatch.setattr("hecke_census.spectral.all_roots", refuse)
    code, out = run(capsys, "verify")
    assert code == 0
    assert out.splitlines()[-1] == "17/17 checks passed"


def test_root_finder_failure_is_one_line_error(capsys):
    code = main(["poly", "--r", "20"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err


def _one_line_outcome(capsys, argv, codes):
    code = main(argv)
    out, err = capsys.readouterr()
    assert code in codes, (argv, err)
    assert "NaN" not in out
    assert "Traceback" not in err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1
    else:
        assert err == ""


@pytest.mark.parametrize("r", ["41", "60", "105", "121", "128"])
def test_poly_large_r_is_a_result_or_one_line_error(capsys, r):
    # the dominant root lies within 1e-12 of 2 from r = 41 on; at r = 105
    # and 121 the root iteration overflows to NaN, which is an error too
    _one_line_outcome(capsys, ["poly", "--r", r], (0, 1))


def test_large_p_census_and_claims(capsys):
    # the census needs no byte encoding, and the ledger's normal-form probe
    # only encodes blocks with |k| <= 11
    for p in ("257", "258"):
        _one_line_outcome(capsys, ["census", "--p", p, "--max-len", "6"], (0,))
    _one_line_outcome(capsys, ["claims", "--p", "82", "--max-len", "10"], (0,))
    _one_line_outcome(capsys, ["claims", "--p", "300", "--max-len", "10"], (0,))


@pytest.mark.parametrize("p", ["258", "300", "1000", "4096"])
def test_claims_past_one_byte_per_exponent(capsys, p):
    jsonschema = pytest.importorskip("jsonschema")
    code = main(["claims", "--p", p, "--max-len", "12"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    jsonschema.validate(json.loads(out), schema("claims"))


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"), reason="no int <-> str digit limit"
)
def test_counts_past_the_int_str_digit_limit(capsys):
    # all_classes(2600) of p = 6 has 688 digits; the CLI lifts the limit
    # for the run and restores it afterwards
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code = main(["census", "--p", "6", "--max-len", "2600", "--format", "csv"])
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(old)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == table_to_csv(census(make_params(6), 2600))


@pytest.mark.parametrize("p", ["40", "74"])
def test_claims_does_not_need_all_roots(capsys, p):
    # all_roots fails for r = 20 and r = 37; the ledger reads only the
    # polynomial, its dominant root and the Eisenstein report
    jsonschema = pytest.importorskip("jsonschema")
    code = main(["claims", "--p", p, "--max-len", "18"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    doc = json.loads(out)
    jsonschema.validate(doc, schema("claims"))
    assert {"L4.6-bracket", "EISEN"} <= {e["id"] for e in doc["claims"]}


# sha256 of exit code, stdout and stderr (joined by NUL): the root bytes and
# the one-line errors of the failing r are the contract
POLY_SHA256 = {
    "poly --r 2": "a3006f619bc04bbfc1c274c1fc6609ee2c52f75fc3a835b9631771a13cdfdb41",
    "poly --r 3": "f945b10e41f6fec3f866ad0e9c1e071f9f292fffd5cefc5576beda7122acaa64",
    "poly --r 4": "21e079a12916e5a80797cc19c7ce19a671005e9966e484ffff4eb79c32a05262",
    "poly --r 5": "ad7080f1966177dbf6538fffc19f2669f7fdd9521b165b895c0d464a100651e8",
    "poly --r 6": "91832e96ec7adc693d2d90f5f2f4444eec209dadf8ed0f87a120307d3f0864bd",
    "poly --r 7": "16e64de4f35481251ce021fadeaa7194e2db93778f278f3a6e5a5566923cef03",
    "poly --r 8": "a0a7befa814bfe18439c824b3eabcdbe59e08a96b4aa031aedec70ad64ef9e67",
    "poly --r 9": "de19e23df209f54191d63c81b313bfa5deb40a73a4d4fe58a75c8e857d411c7a",
    "poly --r 10": "06b2d5386c2c9232a918b91c497f7b1868bc18b0d6240943430cc3a5851e689b",
    "poly --r 11": "8e6e125b12c5ea5bb78947d4601e1a0e39527ef98af0fb01e51d7d9464e455a7",
    "poly --r 12": "83e571194a3cc6ee80767e73e8c43d6132f8ee18e52df930f445b1e4fb9a70ee",
    "poly --r 13": "6a8404698dcef7c864a5297b62c1fea3f491cb0ce636401c076818d9a32185af",
    "poly --r 14": "d1cc3ea5c823e3ad12bfa6c3e3029ce9977f1e467bf63064ac0a613e72f0d5ff",
    "poly --r 15": "24d48d97a308146f4cb456f338d528edd671b0e89de9d13766c805ab9032e1b2",
    "poly --r 16": "d478b0125b3645a10a5795a71d092b6e72d79815e96403ab5c280510b8560ff7",
    "poly --r 17": "c9bdb841c1d5d267a6a66945eeba37b4f988959e17ab9ca5c517eedda2457101",
    "poly --r 18": "f834c02752f87586c7c630e4d1d9c55d0005e3399879a7e2f90e1135eb638e4b",
    "poly --r 19": "87cc8db5edf3d90801831f4262dae9d32962ab04cce0c545cbea6e6625c9f28d",
    "poly --r 21": "90a4a1689233967062c230a90b2f235ea7e92f6f8d2f9121e322d1e3676d1a48",
    "poly --r 22": "63af87b81073ce6fefc17d07c25fa5ea7db9b5ced44ee03a2e2aa5ee96c383fe",
    "poly --r 23": "d3f5d584df637322352295069cfca9371e23af8ec99c5c7d6286139fadfaa55f",
    "poly --r 24": "18b3a1d604327a18fa12d2f0e695ac1fe68b9d9f75c081a0d6b1a7989d36769a",
    "poly --r 25": "099f20d1ceea66fd83d579994ebe165ccbac4a1545629ce22d50589d550007ba",
    "poly --r 38": "f20781d8737d90c4455c9a4fa406d9416a459e8ce843719b1d4fcd654bb09a78",
    "poly --r 39": "f26fd4eaf1e4a0bc15a5d939b091796aeacb33675a1a380e6e25b9bbeaab0dff",
    "poly --r 40": "5678e093e6c962322e5447da69756036ea2b111391fefe37269e81eb340a094b",
    "poly --r 41": "8ca7174624f1b5e5dcd73ded92bfd394b1238229cc6f319f04f796f4cd624d58",
    "poly --r 42": "5ec4d455a1614f2e0b32a20195d0a857589b7c864c9d2af3e0a4dd5694e34af2",
    "poly --r 43": "277fb1e883da1a85568fb78c5072c3f9c9ae0aa2279713ee05be07f76a52a166",
    "poly --r 44": "c57883a0a4821ba087263ef74dc6ae09820e6eb861fe8c1eef2da1089c59a589",
    "poly --r 45": "3d419598acec2fe61a4d084edc69546d44b83599733e800895593485d1f1a2eb",
    "poly --r 46": "d6c4f9f056427e7192e2cf8e607958cf8fc063da0b22c27262be4fc49b81f5f2",
    "poly --r 47": "1cf4fbe26a8cbf638dbf8f7f32baafd9fbf3096cacb1aaf16489618a49ab441d",
    "poly --r 48": "d063bbe6537a170d3414d96e84ee189d86c8a5e2aeb584b4a20ed8993196a028",
    "poly --r 49": "658df4285a097d08cf16789f6692580676d4605cd5f0c4d6857153193cbb0bd9",
    "poly --r 50": "9ab0e649773b1ac17db238f48bf0609bf5d2883c46207d889f659373757c6e2a",
    "poly --r 51": "2abeb02ac9ae8740c6e8d555a3a16a37d263e0fb411ff84e21a4898f46d9f374",
    "poly --r 52": "669716f40634d53bad36668bb1b8bdc6750f259b44024e080a7e73e7b523ed0c",
    "poly --r 53": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 54": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 55": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 56": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 57": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 58": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 59": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 60": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 105": "515f622c79f5845f12a8617f3799f96edb3738469e2af523935ba1c421c46396",
    "poly --r 121": "515f622c79f5845f12a8617f3799f96edb3738469e2af523935ba1c421c46396",
    "growth --p 6 --max-len 20 --extend-to 400": "d96abf0a86d7c4107fe6cc6ab972a73ada2a6aa8b08ce20c3336046bed0b41c5",
}


@pytest.mark.parametrize("argv", sorted(POLY_SHA256))
def test_poly_bytes_pinned(capsys, argv):
    code = main(argv.split())
    out, err = capsys.readouterr()
    digest = hashlib.sha256(f"{code}\0{out}\0{err}".encode("utf-8")).hexdigest()
    assert digest == POLY_SHA256[argv]


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
    for argv in (["poly", "--r", "3"], ["growth", "--p", "6", "--max-len", "12"]):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--tol", "1e-12"])  # removed option
        assert exc.value.code == 2
    for argv in (["claims", "--p", "4", "--max-len", "6", "--format", "json"],
                 ["verify", "--max-len", "8"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)  # removed option
        assert exc.value.code == 2


def test_domain_error_exit_code(capsys):
    code = main(["census", "--p", "2", "--max-len", "4"])
    assert code == 2


def test_odd_p_claims_rejected(capsys):
    code = main(["claims", "--p", "5", "--max-len", "6"])
    assert code == 2


def test_one_parser_per_process_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # the parser is built once and reused: a usage error, then --format csv,
    # then the JSON default must each print what a new process prints
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(hecke_census.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    calls = (
        ["census", "--p", "6"],
        ["census", "--p", "6", "--max-len", "8", "--format", "csv"],
        ["census", "--p", "6", "--max-len", "8"],
    )
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "hecke_census", *argv],
                               capture_output=True, text=True, env=env, check=False)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert code == 0 and out.startswith("{")
    assert _build_parser() is _build_parser()
