"""Per-layer tracing from outside the package.

``Tracer.install`` replaces public names where each module looks them up
(``cli.census``, ``spectral.all_roots``, ``CyclicWord.from_blocks``, ...)
with wrappers, and ``uninstall`` puts the originals back.  Nothing under
``src/`` changes.

Layer calls that happen a few times per op become spans, kept in memory
with their parent, op, start, end and self time.  Hot calls (class
construction, word reduction, classification, reflection tests) are only
aggregated into a count and a total time, per pass.  A span's self time is
its busy time minus the busy time of the spans nested in it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

# per-layer metrics, read from the tracer totals of the same name
LAYER_METRICS = (
    "cli.main_s",
    "census.census_s",
    "census.census_calls",
    "census.classes_counted",
    "census.enumerate_s",
    "census.classes_enumerated",
    "census.serialize_s",
    "necklaces.rev_neg_calls",
    "words.from_blocks_s",
    "words.from_blocks_calls",
    "words.reduce_s",
    "words.reduce_calls",
    "reciprocal.classify_s",
    "reciprocal.classify_calls",
    "reciprocal.witness_s",
    "reciprocal.witness_calls",
    "reciprocal.normal_form_s",
    "formulas.claims_check_s",
    "formulas.ledger_entries",
    "spectral.analyze_growth_s",
    "spectral.all_roots_s",
    "spectral.all_roots_calls",
    "spectral.all_roots_failures",
)
# metrics that read a span's self time instead of its inclusive time
SELF_TIME = {"formulas.claims_check_s": "formulas.claims_check_self_s"}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.totals: defaultdict[str, float] = defaultdict(float)
        self.op: str | None = None
        self._stack: list[list] = []  # [span record, resume time, child busy time]
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- spans ---------------------------------------------------------------

    def begin(self, name: str, record: dict | None = None) -> dict:
        """Open a span, or resume ``record`` (a generator span)."""
        now = time.perf_counter()
        if record is None:
            record = {
                "id": len(self.spans),
                "parent": self._stack[-1][0]["id"] if self._stack else None,
                "op": self.op,
                "name": name,
                "start": now,
                "end": now,
                "busy": 0.0,
                "self": 0.0,
            }
            self.spans.append(record)
            self.totals[name + "_calls"] += 1
        self._stack.append([record, now, 0.0])
        return record

    def end(self) -> dict:
        record, resumed, child = self._stack.pop()
        now = time.perf_counter()
        busy = now - resumed
        record["end"] = now
        record["busy"] += busy
        record["self"] += busy - child
        if self._stack:
            self._stack[-1][2] += busy
        self.totals[record["name"] + "_s"] += busy
        self.totals[record["name"] + "_self_s"] += busy - child
        return record

    def span(self, name: str, fn, on_result=None, on_error=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if on_error:
                    on_error()
                raise
            finally:
                self.end()
            if on_result:
                on_result(result)
            return result

        return wrapper

    def generator_span(self, name: str, fn, counter: str):
        """One span per call of a generator function; busy only while it runs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = None
            it = iter(fn(*args, **kwargs))
            while True:
                record = self.begin(name, record)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self.end()
                self.totals[counter] += 1
                yield item

        return wrapper

    def hot(self, name: str, fn):
        """Aggregate calls and inclusive time; no span per call."""
        totals = self.totals
        calls, seconds = name + "_calls", name + "_s"
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                totals[seconds] += clock() - t0
                totals[calls] += 1

        return wrapper

    def count(self, name: str, fn):
        """Aggregate calls only: for calls too cheap to time."""
        totals = self.totals
        calls = name + "_calls"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            totals[calls] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation --------------------------------------------------------

    def bump(self, key: str, by: float = 1) -> None:
        self.totals[key] += by

    def _patch(self, owner, attr: str, make, static: bool = False) -> None:
        """Replace owner.attr by make(original); note it as missing if absent."""
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', '?')}.{attr}")
            return
        wrapped = make(original.__func__ if static else original)
        setattr(owner, attr, staticmethod(wrapped) if static else wrapped)
        self._restore.append((owner, attr, original))

    def install(self, lib) -> None:
        """Wrap each layer's public names where the calling module looks them up."""

        def census(fn):
            def counted(table):
                self.bump("census.classes_counted", sum(r.all_classes for r in table.rows.values()))

            return self.span("census.census", fn, on_result=counted)

        def claims_check(fn):
            def entries(ledger):
                self.bump("formulas.ledger_entries", len(ledger.entries))

            return self.span("formulas.claims_check", fn, on_result=entries)

        def all_roots(fn):
            return self.span(
                "spectral.all_roots", fn, on_error=lambda: self.bump("spectral.all_roots_failures")
            )

        def serialize(fn):
            return self.span("census.serialize", fn)

        def normal_form(fn):
            return self.span("reciprocal.normal_form", fn)

        def classify(fn):
            return self.hot("reciprocal.classify", fn)

        cli, words = lib.cli, lib.words
        self._patch(cli, "census", census)
        self._patch(lib.formulas, "census", census)
        self._patch(cli, "table_to_csv", serialize)
        self._patch(cli, "table_to_json", serialize)
        self._patch(
            lib.census,
            "enumerate_classes",
            lambda fn: self.generator_span("census.enumerate", fn, "census.classes_enumerated"),
        )
        self._patch(cli, "claims_check", claims_check)
        self._patch(cli, "analyze_growth", lambda fn: self.span("spectral.analyze_growth", fn))
        self._patch(lib.spectral, "all_roots", all_roots)
        self._patch(cli, "normal_form_generate", normal_form)
        self._patch(lib.reciprocal, "normal_form_generate", normal_form)
        self._patch(cli, "classify", classify)
        self._patch(lib.reciprocal, "classify", classify)
        self._patch(
            lib.reciprocal, "reciprocator_witnesses", lambda fn: self.hot("reciprocal.witness", fn)
        )
        self._patch(words, "reduce_syllables", lambda fn: self.hot("words.reduce", fn))
        self._patch(
            getattr(words, "CyclicWord", None),
            "from_blocks",
            lambda fn: self.hot("words.from_blocks", fn),
            static=True,
        )
        self._patch(
            getattr(lib.necklaces, "BlockAlphabet", None),
            "rev_neg",
            lambda fn: self.count("necklaces.rev_neg", fn),
        )

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def layer_metrics(self) -> dict[str, float]:
        """This pass's per-layer metrics; call once per pass, then ``totals.clear()``."""
        values = {name: self.totals.get(SELF_TIME.get(name, name), 0.0) for name in LAYER_METRICS}
        return {name: v if name.endswith("_s") else int(v) for name, v in values.items()}
