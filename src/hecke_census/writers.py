"""The writers of the three documents: the census table (CSV and JSON), the
claims ledger and the growth report.

Each JSON document is byte for byte what ``json.dumps(doc, indent=2)``
writes, plus a newline.  Its fixed shape is spelled in f-strings and its
variable-length arrays go through ``json_block``, in place of
``json.dumps``: with ``indent`` set, that falls back to its pure-Python
encoder.  Strings go through the C escaper that ``json.dumps`` uses, which
loads without the ``json`` package, so no command imports ``json``.

The writers take the package's records as they are, by their fields, and
this module imports nothing from the package.
"""

from __future__ import annotations

import math

try:  # the C string escaper of json.dumps, which loads without the json package
    from _json import encode_basestring_ascii
except ImportError:  # an interpreter without json's C accelerator
    from json.encoder import encode_basestring_ascii

CSV_HEADER = "len,symmetric,p_reciprocal,symmetric_p,power,reciprocal_total,all_classes"


def json_block(members: list[str], pad: str, brackets: str = "[]") -> str:
    """Encoded members as the JSON array, or object with ``brackets="{}"``,
    that ``json.dumps(..., indent=2)`` writes at the indent ``pad``."""
    if not members:
        return brackets
    inner = "\n" + pad + "  "
    return brackets[0] + inner + ("," + inner).join(members) + "\n" + pad + brackets[1]


def json_text(value, pad: str = "") -> str:
    """``value`` as ``json.dumps(value, indent=2)`` writes it at the indent
    ``pad``: a scalar, or a list, tuple or dict with string keys of such
    values.  Any other value raises ``TypeError``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        if value != value:
            return "NaN"
        if value in (math.inf, -math.inf):
            return "Infinity" if value > 0 else "-Infinity"
        return float.__repr__(value)
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        return json_block([json_text(v, inner) for v in value], pad)
    if isinstance(value, dict) and all(isinstance(k, str) for k in value):
        return json_block([f"{json_text(k)}: {json_text(v, inner)}" for k, v in value.items()],
                          pad, "{}")
    raise TypeError(f"not a JSON value with string keys: {value!r}")


def table_to_csv(table) -> str:
    """The census table as CSV, one f-string per row."""
    lines, rows = [CSV_HEADER], table.rows
    for length in range(2, table.max_len + 1):
        s, pr, sp, pw, al = rows[length]
        lines.append(f"{length},{s},{pr},{sp},{pw},{s + pr + sp},{al}")
    return "\n".join(lines) + "\n"


def table_to_json(table) -> str:
    """The census table as JSON, one f-string per row, the counts as
    decimal strings."""
    rows = [f'{{\n      "len": {length},\n      "symmetric": "{row.symmetric}",\n'
            f'      "p_reciprocal": "{row.p_reciprocal}",\n'
            f'      "symmetric_p": "{row.symmetric_p}",\n      "power": "{row.power}",\n'
            f'      "reciprocal_total": "{row.reciprocal_total}",\n'
            f'      "all_classes": "{row.all_classes}"\n    }}'
            for length, row in sorted(table.rows.items())]
    return (f'{{\n  "p": {table.params.p},\n  "max_len": {table.max_len},\n'
            f'  "rows": {json_block(rows, "  ")}\n}}\n')


def _jsonable(v):
    """A ledger value as the ledger writes it: a number as its decimal
    string, a fraction as ``"n/d"``, any other value as it is."""
    if isinstance(v, bool):
        return v
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        return repr(v)
    if hasattr(v, "denominator"):  # a Fraction: ints were written above, floats have none
        return f"{v.numerator}/{v.denominator}"
    return v


def ledger_to_json(entries) -> str:
    """The ledger entries as ``{"claims": [...]}``, one f-string per entry,
    whose params, expected and observed values go through ``_jsonable``."""
    text = encode_basestring_ascii
    claims = []
    for claim_id, params, expected, observed, status, paper_ref in entries:
        params = json_block([f"{text(k)}: {json_text(_jsonable(v), '        ')}"
                             for k, v in params.items()], "      ", "{}")
        claims.append(f'{{\n      "id": {text(claim_id)},\n'
                      f'      "params": {params},\n'
                      f'      "expected": {json_text(_jsonable(expected), "      ")},\n'
                      f'      "observed": {json_text(_jsonable(observed), "      ")},\n'
                      f'      "status": {text(status)},\n'
                      f'      "paper_ref": {text(paper_ref)}\n    }}')
    return f'{{\n  "claims": {json_block(claims, "  ")}\n}}\n'


def growth_to_json(report) -> str:
    """The growth report, whose ``eisenstein`` is the record of
    ``spectral.eisenstein_check``.  Each finite root and each ratio-trace
    pair is one f-string, and the integer lists go through ``int.__repr__``;
    a NaN or an infinity, which ``float.__repr__`` writes as JSON does not,
    goes through ``json_text``."""
    roots = [f"[\n      {float.__repr__(z.real)},\n      {float.__repr__(z.imag)}\n    ]"
             if math.isfinite(z.real) and math.isfinite(z.imag)
             else json_block([json_text(z.real), json_text(z.imag)], "    ")
             for z in report.roots]
    trace = [f'[\n      {i!r},\n      "{v!r}"\n    ]' for i, v in report.ratio_trace]
    e = report.eisenstein
    shifted = json_block(list(map(int.__repr__, e["shifted_coefficients"])), "    ")
    eisenstein = (f'{{\n    "satisfied": {json_text(e["satisfied"])},\n'
                  f'    "prime": {e["prime"]!r},\n'
                  f'    "shifted_coefficients": {shifted},\n'
                  f'    "reason": {json_text(e["reason"])}\n  }}')
    coefficients = json_block(list(map(int.__repr__, report.poly.coefficients)), "  ")
    return (f'{{\n  "r": {report.r!r},\n'
            f'  "coefficients": {coefficients},\n'
            f'  "rho": "{report.rho!r}",\n'
            f'  "s": {report.s!r},\n'
            f'  "squarefree": {json_text(report.squarefree)},\n'
            f'  "eisenstein": {eisenstein},\n'
            f'  "roots": {json_block(roots, "  ")},\n'
            f'  "ratio_trace": {json_block(trace, "  ")}\n}}\n')
