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
    "poly --r 3": "71c366dc50d38712561fd768bce2d773cd449ec1f7a99da8fabe86731e513654",
    "poly --r 4": "6c3d07e953c0373e063fa4d3799bc0c3d30aafe74f7a434d6d42f0fea1d7251b",
    "poly --r 5": "93061be8d78e6453ce4b8d106f907a758b82641ebc80f8f05eaef6fb7af29d2c",
    "poly --r 6": "acbca1cd48eb3fb8162be5709efb91187c1a9c43804b496fbff3894924645d6f",
    "poly --r 7": "9e14a1ee30d17fb9265d1f0a7d4e6eef6bc4a0b8ac4381acd0ecd257ec14b065",
    "poly --r 8": "3dc5a925a46f176bee94653e18d9b9bbce22d8e42f037a18cd273599ff70871e",
    "poly --r 9": "d7fb688838daa4fb2ea7c3d66c002fa7a86d6ca95cfc63335deb8c1a10002833",
    "poly --r 10": "2aa6aa574a791daf62b495270c1b477525443643a687be1ca6eee93fb311d967",
    "poly --r 11": "7fe34b7f8cfe92bd05aaf1ad3d649d9b5dd321ab21998340278c1aa9f780f8a2",
    "poly --r 12": "855ed23609f4dacccc2c17b560a278e5c91d6dda701decf9aa4693432b50deed",
    "poly --r 13": "7886412cb2b3ab75b3672856d3d1df067d03ae0ceccbf03a610fa4a7a839c2e5",
    "poly --r 14": "4b98a5a2130e56effb58b9684d87c3cc67831f5506738a38e5ccff60a199acf2",
    "poly --r 15": "ade08e82331fd5fd0152ef50b019b63532088deb5a00facbb3d6b8bf9193194f",
    "poly --r 16": "121ba47ec303731dc91db44e69a3693c73353ff525bdd77b819c4990952d218f",
    "poly --r 17": "71cd4d64a3e202a5ef480e5c88c883f12e75c41b778b8281b66fff6788886ec0",
    "poly --r 18": "43ca7819533d988acfb2225498f259ae6b817a00d09249e467c9d5f985f44bf8",
    "poly --r 19": "549f1d9cc367bbb0ef43bfcdd9363a52ea9bf43dfef6a92b3fb40fc33e910ac7",
    "poly --r 21": "de8be763acc0747eaf8e0a578e2641d39716b27c3ec847e8e7509c1a895ad49b",
    "poly --r 22": "b34701d9cbc2670d927c7c342a093f4b619fe8d2bf0fb1074f31862676c0fb6c",
    "poly --r 23": "4059c1f7c1e715521f888a135f37e359c71d802fa73c2ba875eeb789e33470a2",
    "poly --r 24": "65bc97187edf45e52224571287e64915a41d4712d2985f998ad18747e78abfd2",
    "poly --r 25": "b764cf8f640831fc486b4813fe41b2503358fb190f547bb3e10ea00d784f2987",
    "poly --r 38": "21fe6334011a935d1726b092074c8704adf36cddba0d44a2e91f7983954aa05e",
    "poly --r 39": "8a4e5caa9b3affa156f6f10e658f3b54c902d2793ac02cebcf8d0531d8019d76",
    "poly --r 40": "f64fd8f399e4699b3212fca035e0d6a976b07b5f0a9c1df0731ded6cdaccb763",
    "poly --r 41": "2da3a5a9552d6564e9d3ebfcdc45e1e871420484cceba5c665b52311fdca60be",
    "poly --r 42": "e7a8dc0b7c7762a67829522464005415ddc07ec4006a6dd40af661cb09ec98c1",
    "poly --r 43": "09db69cda2522bae3bf4b3854c5fc7dfd7cab061e0e506388bb71682c4f270be",
    "poly --r 44": "1799a050fb6f40490feb88c2ae2d064206c6823e248dfc6db0de11ea08838aa7",
    "poly --r 45": "d16b3ce890567104668ac0dbe8018d0d105d316188040059c1651d1e0da393f6",
    "poly --r 46": "3d3d247c52d1cf01fc0a518074228a9b65ca406214c2ecb7ee5678f7cd500c74",
    "poly --r 47": "d25e94dd7e073d9b078a22a74507d133e8783549c01162853bb883b5efb77b17",
    "poly --r 48": "46139fb038da97ca575506d03b028066b955a7af443ebf07588ed43fc698320a",
    "poly --r 49": "152d4a088c4466b2b142f37a830abcc51e5afe89d9af1458d93d1c563d135110",
    "poly --r 50": "fbb139bf5c378ccc15d47f3c8342d3e44f750e6b20399dd01012965eaa843182",
    "poly --r 51": "a86982fa42e17bb7bc0784d2e5edb96bf4ce44714f71b55b3376a6c355daffff",
    "poly --r 52": "d7ce26196e7014ca1c4cdb7c4ff347a580d48feede07683d3cdfc3b5c4128329",
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
    # fractions and cmath are imported where a command uses them, never
    # once per value: a larger run runs no more import statements
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
