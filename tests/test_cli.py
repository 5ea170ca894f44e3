"""CLI: subcommand output, determinism, schemas, exit codes."""

import builtins
import hashlib
import importlib.resources as resources
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hecke_census
from hecke_census import cli, reciprocal
from hecke_census.census import census, table_to_csv
from hecke_census.cli import _build_parser, main
from hecke_census.necklaces import Category
from hecke_census.words import InvolutionType, Word, make_params
from word_reference import key


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


@pytest.mark.parametrize("extend_to", ["5", "-3", "9"])
def test_growth_extension_below_the_seed_is_a_usage_error(capsys, extend_to):
    # max-len 20 gives p = 6 a seed of 10 family terms; an index below it extends nothing
    code = main(["growth", "--p", "6", "--max-len", "20", "--extend-to", extend_to])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        f"error: --extend-to {extend_to} is below the 10 family terms\n"
    )


def test_growth_extension_to_the_seed_and_the_default_past_it(capsys):
    # an index equal to the seed's length is the seed's own trace, which is
    # also what the default writes once the seed is longer than 80 terms
    code, out = run(capsys, "growth", "--p", "6", "--max-len", "20", "--extend-to", "10")
    assert code == 0 and len(json.loads(out)["ratio_trace"]) == 8
    code, out = run(capsys, "growth", "--p", "6", "--max-len", "200")
    assert code == 0
    assert out == run(capsys, "growth", "--p", "6", "--max-len", "200", "--extend-to", "100")[1]


VERIFY_OUT = """\
[PASS] fixture: p=4 reciprocal len 3
[PASS] fixture: p=4 reciprocal len 4
[PASS] fixture: p=4 reciprocal len 7
[PASS] fixture: p=6 reciprocal len 4
[PASS] fixture: p=6 reciprocal len 6
[PASS] fixture: p=4 symmetric len 4
[PASS] fixture: p=6 symmetric len 6
[PASS] fixture: p=6 symmetric len 8
[PASS] fixture: p=4 p_reciprocal len 10
[PASS] fixture: p=4 p_reciprocal len 8
[PASS] classification cross-validation
[PASS] census engine == enumeration
[PASS] corrected double sum == census series h
[PASS] rho(r=2) golden
[PASS] rho(r=3) golden
[PASS] squarefree r=2..10
[PASS] normal-form soundness
17/17 checks passed
"""


def test_verify_passes(capsys):
    assert run(capsys, "verify") == (0, VERIFY_OUT)


def verify_fails(capsys, check, detail):
    """verify exits 1 and prints its passing output but for one failed check."""
    failed = VERIFY_OUT.replace(f"[PASS] {check}\n", f"[FAIL] {check}  ({detail})\n")
    assert run(capsys, "verify") == (1, failed.replace("17/17", "16/17"))


def test_verify_names_the_first_non_reciprocal_normal_form(capsys, monkeypatch):
    # i g^1 is not reciprocal; added to every bucket for p = 4 and p = 6,
    # the check must name the first one it meets, at p = 4
    generate = cli.normal_form_generate

    def unsound(params, max_len):
        return [bucket + [key(params, (1,)).code] for bucket in generate(params, max_len)]

    monkeypatch.setattr(cli, "normal_form_generate", unsound)
    verify_fails(capsys, "normal-form soundness", "non-reciprocal normal form i g^1 (p=4)")


def test_verify_checks_normal_forms_to_the_cross_check_length(capsys, monkeypatch):
    # the classifier calls one reciprocal class of length 14 non-reciprocal:
    # i g^1 i g^1 i g^-1 i g^-1 i g^2 i g^-2 of p = 6, which is a normal form;
    # the witness search, run on every normal form, finds its involutions
    category = reciprocal.reflection_category

    def blind(r, s):
        return Category.NOT_RECIPROCAL if s == bytes.fromhex("000001010203") else category(r, s)

    monkeypatch.setattr(reciprocal, "reflection_category", blind)
    verify_fails(capsys, "classification cross-validation",
                 "disagreement at i g^1 i g^1 i g^-1 i g^-1 i g^2 i g^-2 (p=6)")


def test_verify_catches_a_false_positive_off_the_normal_forms(capsys, monkeypatch):
    # the classifier calls i g^1, which is no normal form, symmetric; the
    # normal-form checks never see it, but the enumeration counts it
    census_module = sys.modules["hecke_census.census"]  # the package's census is the function
    category, code = census_module.reflection_category, key(make_params(4), (1,)).code

    def loose(r, s):
        return Category.SYMMETRIC if s == code else category(r, s)

    monkeypatch.setattr(census_module, "reflection_category", loose)
    verify_fails(capsys, "census engine == enumeration", "p=4 len 2")


def test_verify_names_the_first_wrong_census_length(capsys, monkeypatch):
    # an engine count off by one at a length that no fixture reads
    engine = cli.census

    def off_by_one(params, max_len):
        table = engine(params, max_len)
        if params.p == 6:
            table.rows[13] = table.rows[13]._replace(all_classes=table.rows[13].all_classes + 1)
        return table

    monkeypatch.setattr(cli, "census", off_by_one)
    verify_fails(capsys, "census engine == enumeration", "p=6 len 13")


def test_verify_names_the_first_classification_disagreement(capsys, monkeypatch):
    # the witness search loses the involution of the symmetric class i g^1 i g^-1
    classify, dropped = cli.classify, key(make_params(4), (1, -1))

    def lossy(c, with_witnesses=True):
        info = classify(c, with_witnesses)
        return info._replace(witnesses=()) if c == dropped else info

    monkeypatch.setattr(cli, "classify", lossy)
    verify_fails(capsys, "classification cross-validation", "disagreement at i g^1 i g^-1 (p=4)")


def test_verify_runs_no_root_iteration(capsys, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("verify must not run the root iteration")

    monkeypatch.setattr("hecke_census.spectral.all_roots", refuse)
    assert run(capsys, "verify") == (0, VERIFY_OUT)


def test_consistency_failure_is_one_line_error(capsys, monkeypatch):
    # a witness search that finds no involution is a hard invariant failure:
    # exit 1 with one error line, not a traceback
    monkeypatch.setattr(Word, "involution_type", lambda self: InvolutionType.NOT_INVOLUTION)
    code = main(["verify"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == "error: no involution found in the reciprocator coset of i g^2\n"


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
    # the dominant root lies within 1e-12 of 2 from r = 41 on, and its
    # nearest double leaves a residual of 3 from r = 53 on: an error
    _one_line_outcome(capsys, ["poly", "--r", r], (0, 1))


def test_large_p_census_and_claims(capsys):
    # the census needs no byte encoding, and the ledger's normal-form probe
    # only builds blocks with |k| <= 11
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
    "poly --r 2": "7ba124093be6e02f1a7c4db1fab5e693641faba02bb0a6aa37494353ba7c16f4",
    "poly --r 3": "2a18c36ed5ad50fa19ba4388aaebec0ff830854e6afc5d09a46c390c93ce9ede",
    "poly --r 4": "dfc31c17ac08c523ca733848eb6094fe2d627e74f4fd80a6dd9961054a2d038a",
    "poly --r 5": "a74ec689f369901d135c3b116596bc0d1b8e466f8fc270610e27d3f7e7cde3e7",
    "poly --r 6": "73a92e26e49552c027a08e45195668c08e71de9341800bddea0699f434533548",
    "poly --r 7": "1ad226754a75521d3ad460e3947bf1f47032cfcd78c93a3ddb16f907b66e04da",
    "poly --r 8": "7162c3ffc978cab2d5307d264dda4565173477ebd11f588d503d34120f09e93b",
    "poly --r 9": "fe1b22f43b6abed7615bfdec50254ea137c438e1822d698cc59b47633196f515",
    "poly --r 10": "518923c9fcc0e13aee941affc6ccd0ece2259c8aceb3c7d8e5d03a6ea5fb6f0e",
    "poly --r 11": "7b2d560bb54567d2c1c45120dfa1bab8b16852042ad6517e7fd03001051543cd",
    "poly --r 12": "51d3f1e11b5c6c7768219f426557148377570d1fa4273345607cd2610dab8573",
    "poly --r 13": "f2907ce42cf7d08a7034044aa78f8f75e66a4fc9a472a42568b56de6af82856d",
    "poly --r 14": "f12ddbbb5b69e02f0111e71160c79805aa34489272df83954c5b72f98658c44b",
    "poly --r 15": "9c0be3def56352f3ce5d8dd99a4fa1aa615fe05f22199f9f35513a0682145065",
    "poly --r 16": "c066db6c20d6ded41ac2271a4814e1af29025d4154d498b88248ee2d47991ce9",
    "poly --r 17": "ee2012e3504e5c2bacd34f42b59b2791ed9e855212fa9937e5b228b32b9c3b0b",
    "poly --r 18": "0a6c4b341b6a7d33303c18259e469a912ba81ae10d2f00a388c035ffd7342b82",
    "poly --r 19": "07deb2fe3a08d25a926c982c646b3ace2cfce6c7d01606cc15d35e2b882dee49",
    "poly --r 21": "03d6d2496ca5985312853d97e782626e8ad5ad43ddde3fe822fb980b6a99a454",
    "poly --r 22": "172a261eaadb8299d15179176e0bec4aaf7cc489b93c1d673f452e5d4401714d",
    "poly --r 23": "7acc2caa389b27878985c1b02f634d4012c3d85cf8f69fab1bfb1ebacb6491e4",
    "poly --r 24": "c531726a66e95f36f321b696679c815e3a2c9adc47e29c44617bf89eb29920f4",
    "poly --r 25": "8a0b354dca8ce0c58422d83495abf7dea9f9bbb9c13485ed7ef05401be8d09be",
    "poly --r 38": "9ef58fc70f4699a0b73e57cab6a3eaabce792b2c7583fadbf8a9ee15ec9db385",
    "poly --r 39": "1899f75790a6745a62b06e5574e074961c9a399031316824ccc975ba60eb4e37",
    "poly --r 40": "c9ed01ce1b6c03ff7afa89fbb375de272e347ee2e80f7e9ea655c98f0800ad1b",
    "poly --r 41": "97c8e6448a3905d454f5869b4ea3492ccd3a5d566ca8f21a17ff2884610b6fae",
    "poly --r 42": "2cb7737d1550049b002633826febfe1ea1e34dc91df76e80854b5cea79e07a6d",
    "poly --r 43": "2b4adeef83fa63795b0460030c5c734b9019c88a9ba69b1222a7ebaca3c5b86d",
    "poly --r 44": "5a8a201d9dfdf361d11603f81328fc7ed5c8a9f7e18c57a3f32bb6e982da2de7",
    "poly --r 45": "6c5c6f6548fb440917c9e5d39197c8d58964f1d889aae52228911562dfdaeed0",
    "poly --r 46": "e13851ecc3f8f38831da7e0fe7c30251e2a9b55dd3f4d13c18cd1a1b3170cda6",
    "poly --r 47": "4502f8565236b0ee913183eeeca0371fcc2d9d70c3896a5f7d491309a0e50489",
    "poly --r 48": "774663697de2b09c264ca2a6b3f6ddf40ae248d973e30b140ee18c8c2d242180",
    "poly --r 49": "4588002a2addf67e0f025162fa22ce16e57fc4536d7718265489e90efd2e4aba",
    "poly --r 50": "a78901f007be79558324e341230780f0904fec2de49735cab95d8bf3b796785b",
    "poly --r 51": "a5f29af1e02874052684613f04617b9bbcee772e4b0f90130c722cfd5d121133",
    "poly --r 52": "e0a153c1690ad5a301ebb4f61ed6fa41f5283819f6dfc3fe08d2ea2ff3162c27",
    "poly --r 53": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 54": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 55": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 56": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 57": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 58": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 59": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 60": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 105": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "poly --r 121": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "growth --p 6 --max-len 20 --extend-to 400": "bee765b92dd9f7fab53a6e1921ca0f43d6fca1891f78d0332bad29d2e56423d5",
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
    # then the JSON default must each print what a new process prints.  The
    # fresh processes are the first to load json (census), fractions (claims
    # at p = 4, whose ledger has a value of 1/2) and cmath (poly, growth)
    # where the command uses them
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(Path(hecke_census.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]))
    calls = (
        ["census", "--p", "6"],
        ["census", "--p", "6", "--max-len", "8", "--format", "csv"],
        ["claims", "--p", "6", "--max-len", "12"],
        ["claims", "--p", "4", "--max-len", "12"],
        ["poly", "--r", "3"],
        ["growth", "--p", "6", "--max-len", "20", "--extend-to", "400"],
        ["verify"],
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


def _import_statements(capsys, monkeypatch, argv):
    """The modules named by the import statements that ``main(argv)`` runs,
    in order, after a first run has loaded every module it needs."""
    assert main(argv) == 0
    names = []
    real = builtins.__import__

    def counting(name, *args, **kwargs):
        names.append(name)
        return real(name, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(builtins, "__import__", counting)
        code = main(argv)
    capsys.readouterr()
    assert code == 0
    return names


def test_commands_run_a_fixed_number_of_import_statements(capsys, monkeypatch):
    # json, fractions and cmath are imported where a command uses them, never
    # once per value: a larger run runs no more import statements
    claims = [_import_statements(capsys, monkeypatch, ["claims", "--p", "6", "--max-len", n])
              for n in ("12", "40")]
    assert claims[0] == claims[1] and len(claims[0]) == 1
    for small, large in (
        (["census", "--p", "6", "--max-len", "8"], ["census", "--p", "6", "--max-len", "60"]),
        (["census", "--p", "6", "--max-len", "8", "--format", "csv"],
         ["census", "--p", "6", "--max-len", "60", "--format", "csv"]),
        (["poly", "--r", "3"], ["poly", "--r", "19"]),
        (["growth", "--p", "6", "--max-len", "20", "--extend-to", "80"],
         ["growth", "--p", "6", "--max-len", "40", "--extend-to", "400"]),
    ):
        names = _import_statements(capsys, monkeypatch, small)
        assert names == _import_statements(capsys, monkeypatch, large) and len(names) <= 1, small
    # a class key reads its codec from its own module: a warm verify, which
    # decodes and measures every normal form it keys, imports nothing
    assert _import_statements(capsys, monkeypatch, ["verify"]) == []
