"""CLI: subcommand output, determinism, schemas, exit codes."""

import builtins
import hashlib
import importlib.resources as resources
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import hecke_census
from hecke_census import cli, reciprocal
from hecke_census.census import census, table_to_csv
from hecke_census.cli import _parsers, main
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


def test_verify_fails_when_the_gcd_chain_and_the_three_term_criterion_disagree(capsys, monkeypatch):
    # a criterion that calls P_7 non-squarefree against the gcd chain
    criterion = cli.growth_multiplicity
    monkeypatch.setattr(cli, "growth_multiplicity", lambda r: criterion(r) + (r == 7))
    failed = VERIFY_OUT.replace("[PASS] squarefree r=2..10\n", "[FAIL] squarefree r=2..10\n")
    assert run(capsys, "verify") == (1, failed.replace("17/17", "16/17"))


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
    "poly --r 3": "71c366dc50d38712561fd768bce2d773cd449ec1f7a99da8fabe86731e513654",
    "poly --r 4": "737b679a8f1b32891f4336e944fe3e05ae1453079c429f024032cc0b687419ea",
    "poly --r 5": "a74ec689f369901d135c3b116596bc0d1b8e466f8fc270610e27d3f7e7cde3e7",
    "poly --r 6": "cf100efc433e6163c779a92a2392913f679763e196af0ff9779f9a7462a5bf55",
    "poly --r 7": "99c9bd2033b65a01e02ada59184fcadf2835e72f297230398d8345a16bd7490b",
    "poly --r 8": "0e53b80cc5693d07bed70b16a0c2177b408f5b2f9e7424ba1a424bed4549bce5",
    "poly --r 9": "a8115a5049005dde5d113a673414754ef6583aeda6c9ea9e6758baf11ee3eebd",
    "poly --r 10": "9c528323e91afd4442dae634386afb0304fa8347bfe8f2a7a613f7a6c92c6655",
    "poly --r 11": "ec5f0f0a4d70a773e03672a69e22f2a82a7466e656dd94e4806033bff768ae66",
    "poly --r 12": "3d694660b5f37e6b89a913f2528805859b29fb26e821806f32b14ac4decd2bb7",
    "poly --r 13": "e35c11065fa83cc840fea0b855fd569b0ca5dd45fca919d0e0e714d79ae6b8b4",
    "poly --r 14": "ec541d0f12b7491e48a2af0a0871ef767866625a99a0e129adffdd6e67762e7a",
    "poly --r 15": "ddf1bddfb7a01c0429be404563fb60954044a9daf777f200377d8f8f73f291f1",
    "poly --r 16": "eb53abe60230d895eef377bf89f80a92f2547b6b14cf88b8be2daf25f7953c51",
    "poly --r 17": "e3f5a834314662ebe2d2fb646ee89804f973cdee92cffd8c59a9099a3b9e6787",
    "poly --r 18": "cc9102a9a27e102a023985fc541caea436ec3bcfe8d9108d47a227af3e9bff8d",
    "poly --r 19": "6264c1141197261d2428d6748b5817ab2a0f4366c9e1d284720833d668abe4b6",
    "poly --r 21": "91d156c84c42297941ff05b12b5591470790ae42e0db1b2fb5fd1e9e6f9d0b9f",
    "poly --r 22": "494b8bb3179371a0a688eec47bf74ec75e2a851b6f5caff2a6daf2ab4deb739b",
    "poly --r 23": "2eca0db1d9c3079feebcbbca1d684fbf9f3fa4c22a70dc3dd12ee8b89552958a",
    "poly --r 24": "ce2d10144f703a88e973348515a3a40a4cd80776137dc60537334139865a7378",
    "poly --r 25": "599bbe192ba1a096e65d61466993aa928fcc0d6424b7c7f3dc4932530a6acb13",
    "poly --r 38": "6e86637adb40160de0e9b83f0e8358d8801622b411941ba3a9c6abce9363290e",
    "poly --r 39": "a056b6317271fcf8b862285e71b43132bd20afc9b0b5ae513f747c9ea4596558",
    "poly --r 40": "91fb8085f17250b623949ed327f6b283ab84c8faabc71f368f1958604969f1da",
    "poly --r 41": "2ed7908c5f0d9365b1d1cbf7469195c034cb5db88bdcf4938699c504bc4d9394",
    "poly --r 42": "8ec6f22f25e6576661bdc2d8034a6c8c281638b98dd8f7b2b8279eb068495714",
    "poly --r 43": "87c147b0bc0bc02332a83c2286ca00c3ddbde721e63880ad0f60cc909d1344cc",
    "poly --r 44": "8099ecaa86ad9c40b105c3bda3d3f0a7f3e300a5d44e0ecc74cb73d81953c618",
    "poly --r 45": "25a7a3c17349137b532562cdb168622b4346baa3a2ff35e031c0a2a0b7c8373d",
    "poly --r 46": "6ee8de97a43bb3bcfda0824d3145ff6f3e6b2dc67021c01b1f1bd4ab3eec07b5",
    "poly --r 47": "59182d23410afff5b147288927800a45298082f36d99df442bd82035e281201e",
    "poly --r 48": "d858104ade5f2ffd4a381b760bb17e90e70c9768204f407fa6e91bd74badaaf3",
    "poly --r 49": "61f7b1e8c707ed352cb4150104be4e0ed62218d330877f7b711b5ec50d54c779",
    "poly --r 50": "2afbc2a8160791f81fc27acb119acd66d423ae5bacee3e864eaacd76faf65569",
    "poly --r 51": "75a3197939916c5b0804b217ffecf8311fdfc98c5c0579642153c9be6a3e9802",
    "poly --r 52": "16c3d65d7da0910f52997fce29a51874c91058158fc47e7575a8f3b6bcc03e23",
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
    # rho rounds to 2.0 from r = 54 on, where P_r = 3, and rho^r passes the
    # largest double after r = 1024: the same one-line error, no overflow
    "poly --r 1100": "c1e3a72347b406e7f9ac39faf47f58d270f6df33cf4279a585003daa8a71469d",
    "growth --p 6 --max-len 20 --extend-to 400": "df7c4d251708983f3bb5272f2df8b7526ac60696bf22fdd66c832529f7491a12",
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


# argv for which main, which hands a known command's argv to that command's
# parser alone, must do what the full parser does: the first thirteen exit 0
DISPATCH_ARGV = (
    ["census", "--p", "6", "--max-len", "8", "--format", "csv"],
    ["census", "--p", "6", "--max-len", "8"],
    ["census", "--max-len=8", "--p=5", "--format=csv"],
    ["census", "--p", "5", "--p", "6", "--max-len", "4", "--format", "csv"],
    ["census", "--p", "6", "--max", "4", "--format", "csv"],
    ["claims", "--p", "6", "--max-len", "8"],
    ["growth", "--p", "6", "--max-len", "20", "--extend-to", "100"],
    ["poly", "--r", "3"],
    ["verify"],
    ["-h"],
    ["-h", "census"],
    ["census", "-h"],
    ["census", "--p", "6", "--max-len", "8", "-h"],
    [],
    ["nosuch"],
    ["cen", "--p", "6", "--max-len", "8"],
    ["census", "--p", "6"],
    ["census", "--p", "x", "--max-len", "4"],
    ["census", "--p", "6", "--max-len", "4", "--format", "xml"],
    ["census", "--p", "2", "--max-len", "4"],
    ["census", "--p", "6", "--max-len", "4", "--bogus"],
    ["census", "--p", "6", "--max-len", "4", "extra"],
    ["poly", "--r", "3", "--p", "6"],
    ["--", "census", "--p", "6", "--max-len", "4"],
    ["census", "--", "--p", "6", "--max-len", "4"],
    ["census", "--p", "6", "--max-len", "4", "--"],
)


def _outcome(capsys, argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_a_command_parses_once_and_prints_what_the_full_parser_prints(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage to the terminal width
    parser = _parsers()[0]
    with monkeypatch.context() as patch:  # a valid call never reaches the full parser
        patch.setattr(parser, "parse_args", None)
        assert _outcome(capsys, DISPATCH_ARGV[0])[0] == 0
    once = [_outcome(capsys, argv) for argv in DISPATCH_ARGV]
    monkeypatch.setattr(cli, "_parsers", lambda: (parser, {}))  # no command parsed alone
    for argv, got in zip(DISPATCH_ARGV, once):
        assert got == _outcome(capsys, argv), argv
    assert [code for code, _, _ in once] == [0] * 13 + [2] * (len(DISPATCH_ARGV) - 13)


def test_one_parser_per_process_prints_what_a_fresh_process_prints(capsys, monkeypatch):
    # the parser is built once and reused: a usage error, then --format csv,
    # then the JSON default must each print what a new process prints.  The
    # fresh processes are the first to load json (census) and fractions
    # (claims at p = 4, whose ledger has a value of 1/2) where the command
    # uses them
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
    assert _parsers() is _parsers()


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
    # fractions is imported where a command uses it, never once per value:
    # a larger run runs no more import statements
    claims = [_import_statements(capsys, monkeypatch, ["claims", "--p", "6", "--max-len", n])
              for n in ("12", "40")]
    assert claims[0] == claims[1] and len(claims[0]) == 1
    # no writer imports json: a census in either format imports nothing
    for fmt in ("json", "csv"):
        for n in ("8", "60"):
            argv = ["census", "--p", "6", "--max-len", n, "--format", fmt]
            assert _import_statements(capsys, monkeypatch, argv) == [], argv
    for small, large in (
        (["poly", "--r", "3"], ["poly", "--r", "19"]),
        (["growth", "--p", "6", "--max-len", "20", "--extend-to", "80"],
         ["growth", "--p", "6", "--max-len", "40", "--extend-to", "400"]),
    ):
        names = _import_statements(capsys, monkeypatch, small)
        assert names == _import_statements(capsys, monkeypatch, large) and len(names) <= 1, small
    # a class key reads its codec from its own module: a warm verify, which
    # decodes and measures every normal form it keys, imports nothing
    assert _import_statements(capsys, monkeypatch, ["verify"]) == []


# the names that perfbench/tracing.py patches and no longer finds: none of
# them is in the package, and the benchmark reads their metrics as 0
STALE_TRACE_NAMES = ["hecke_census.formulas.census", "hecke_census.words.reduce_syllables",
                     "CyclicWord.from_blocks", "?.rev_neg"]


def test_the_benchmark_tracer_finds_every_name_but_the_stale_ones():
    path = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # the modules by their short names, as the benchmark loads them: the
    # package's own attribute ``census`` is the function
    lib = SimpleNamespace(**{name.removeprefix("hecke_census."): module
                             for name, module in sys.modules.items()
                             if name.startswith("hecke_census.")})
    tracer = tracing.Tracer()
    tracer.install(lib)
    try:
        assert tracer.missing == STALE_TRACE_NAMES
    finally:
        tracer.uninstall()
    # the benchmark's self-test writes its faulty CSV through the census module
    assert sys.modules["hecke_census.census"].table_to_csv is cli.table_to_csv
