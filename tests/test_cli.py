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
    "poly --r 4": "51cc69e5e7c299e16ef0d5537f573d4570bb65385cc548259d6d7bcb3b0860ce",
    "poly --r 5": "97607203f14211e7aa5a76e311a328c2e1bce33e82677e957de630eb5556ecd7",
    "poly --r 6": "acbca1cd48eb3fb8162be5709efb91187c1a9c43804b496fbff3894924645d6f",
    "poly --r 7": "fb6796cb0d82903e07caefc6e3f31ddf72d1d5dcac7ca1814efddfe04682188a",
    "poly --r 8": "f0ddd4f53e00ca964b8da0277af203b263317cb1db8a7711f7e6ec633454856a",
    "poly --r 9": "1ef28d3d6286fafd4d660d31df96859b71275269ab57bc47e716220158a89e5f",
    "poly --r 10": "b12208b3d943abd2e6e3e9891c43b433dec80cd5a334fc694b4bc928d6c4b713",
    "poly --r 11": "14f88da79eb82f35a1f9923a827cc5966b3b04b9161b08c85d8019378319331a",
    "poly --r 12": "38628151c7387bc59254f046b8338fe16b5186d563961c0355f1359c8959f8c1",
    "poly --r 13": "3e065553c1df132bbd180130effe84879a9409fd1468640910ac4eab66ff4f3e",
    "poly --r 14": "2ca0110b2275c3f7f3ab05c79824426a1bd7eb47df3a87b05704cc3b562574f2",
    "poly --r 15": "bc187809bde71573bedd989ec2804c4a07a158bd40ca55d1c359295f800d80cf",
    "poly --r 16": "b729508d8bc150d698b9a1bb93c2c8b5dd37c93cca273d62173c32dce4caaf83",
    "poly --r 17": "6f2fa7484f46ed2d27b14e869d546b01f179b786eaab3e766482cb49babef88a",
    "poly --r 18": "67e588a0e43dd8f3ed3ce5abc767c00d6381ff369332c17db0060ab4ddcc5b06",
    "poly --r 19": "3cc2a60f304172a8b23bb1c9413067671bf86e58f7face7b8a095f0d22dfa4dd",
    "poly --r 21": "ef7a4d8f548a77e035eeb86bf804d1001123aba6988cc1d58679bf9958ae8e65",
    "poly --r 22": "c39a4c39781b321097b849fccb022a25a47baacb311822edd2a1cb00ff977f3d",
    "poly --r 23": "5283b3244bce7b579628b736ad3ecd2b575ce6a17c38c5a47386a3e9df7ce58f",
    "poly --r 24": "3908d307a05b5566b1ff70ca1e5dcd88bff606b948677bd72a324eda751f8113",
    "poly --r 25": "0e96bde3a9dede29dddd8dede24f91a9d7ae9e4b23a4537a132e6c418b1f9d2e",
    "poly --r 38": "0de57f2ee83d08ae8ebc1d9ebd4a0daf71fb7a5e50c79d643cc37602f9e9d419",
    "poly --r 39": "3a6b9d8ef1d3898861e0f6b73fefa5e59c2248184439dfa7420cee2792196cb4",
    "poly --r 40": "1ae4f01c4dfeae9694eb49c951867ebf5f40500d3d1d346f03e8c8f9d44e50ae",
    "poly --r 41": "ec02cf8a9a4a9af8ccf4aeb0b11764a6cbad61258a26d1a9900a3e1bf3db6e95",
    "poly --r 42": "9107da792082d205729b37359c05855592dbb955b735879a04388fffa225b88b",
    "poly --r 43": "0b7c10dc2133b4362c2e092fa1c3ee3dfa7a3293b4831fcd4f8deb59f11e859f",
    "poly --r 44": "cf451d6d471760675776c1215160a81f765d6f1df1a1a3707c1f5c50d13550fc",
    "poly --r 45": "2a6aca784d290ce2275c63fb2cac295e16f1b8ea592c27e4d5c24766553aaf00",
    "poly --r 46": "f169eb397344fbf62d1ed1f4881a03dbd9b168d7c55469f55b1ec477f26e2193",
    "poly --r 47": "18d837ab78f0a71a52626139fc22ac27111a5d232c7b1fa8be43b0259607bf1c",
    "poly --r 48": "adbf4c42f5aeb7836ebd928238d2f6f0c8525460723ff43ff849c37fc1e8c12f",
    "poly --r 49": "66ba8fb4e533b90493f834b7af5e877c91ef74762a0bc30b49ef16b32eca255b",
    "poly --r 50": "86b7ed1f2f8a59006565d2ec0d97524cdc7eb76a9cef9dc8a7f4c6e228d032d8",
    "poly --r 51": "7ee4728c9882876e1d69564f2b833540328227a7f164e6d96c81ac728b5a313e",
    "poly --r 52": "fb5b85e9107486f0161eaa52d26a7de0bd26e8109542ae48c6d79217fe9028b0",
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
