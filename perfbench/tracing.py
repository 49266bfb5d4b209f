"""Spans around the public functions of each twobridge module.

``Tracer.install`` wraps every function in ``TARGETS`` and replaces it in
every loaded ``twobridge`` module that holds it, so ``cobordism.signature``
and ``sigtables.signature`` are traced as well as ``diagram.signature``.
Each call (each ``next()`` for the two word generators) appends a span
``[name, start, end, parent, job, work]`` to an in-memory list; the list is
written out once, when the pass ends.  Spans inside process-pool children
are not captured: the parent's ``histogram_enumerated`` span covers the
pool's wall time, and the pool probe reports the children's CPU time.

``layer_metrics`` turns the spans of one pass into the per-layer metrics
listed in BENCHMARK.json.  A span's self time is its duration minus the
time covered by descendant spans of other modules, so
``cobordism.decompose`` self time excludes ``signature`` and
``validate_word`` but includes ``cancel_mirrors``.
"""

from __future__ import annotations

import json
import resource
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

TARGETS = {
    "words": ("enumerate_words", "enumerate_palindromic_words", "validate_word"),
    "diagram": ("signature", "orient_diagram", "all_A_components"),
    "sigtables": ("histogram_enumerated", "recursed_table", "totals",
                  "palindromic_total_abs", "load_cached_row", "store_cached_row"),
    "cobordism": ("decompose", "cancel_mirrors", "link_lemma_fix", "average_g4_row"),
    "markov": ("exact_expected_distance", "per_class_moments", "monte_carlo_distance"),
    "checks": ("run_check",),
}
GENERATORS = {"words.enumerate_words", "words.enumerate_palindromic_words"}

NAME, START, END, PARENT, JOB, WORK = range(6)


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _work(name: str, args: tuple, kwargs: dict):
    """Units of work a call did, for the per-unit rates."""
    if name == "sigtables.histogram_enumerated":
        c = args[0] if args else kwargs["c"]
        return (2 ** (c - 2) - (-1) ** c) // 3
    if name == "markov.exact_expected_distance":
        s, t = args[:2]
        return 1 << (s * t) if t else 0
    if name == "markov.monte_carlo_distance":
        return args[2] if len(args) > 2 else kwargs["trials"]
    return None


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self.counts: Counter = Counter()
        self.check_seconds: dict[str, float] = {}
        self.rss_growth_kb: list[int] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield rec
        finally:
            self._close(rec)

    def _open(self, name: str) -> list:
        stack = self._stack
        rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.job, None]
        stack.append(len(self.spans))
        self.spans.append(rec)
        rec[START] = perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[END] = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            rss_before = _maxrss_kb() if name == "markov.monte_carlo_distance" else 0
            rec = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except ValueError:
                if name == "sigtables.load_cached_row":
                    tracer.counts["cache.rejects"] += 1
                raise
            finally:
                tracer._close(rec)
            rec[WORK] = _work(name, args, kwargs)
            if name == "sigtables.load_cached_row":
                tracer.counts["cache.misses" if result is None else "cache.hits"] += 1
            elif name == "checks.run_check":
                tracer.check_seconds[result.name] = result.seconds
            elif rss_before:
                tracer.rss_growth_kb.append(_maxrss_kb() - rss_before)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)

            def steps():
                while True:
                    rec = tracer._open(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        rec[WORK] = 0
                        return
                    finally:
                        tracer._close(rec)
                    rec[WORK] = 1
                    yield item

            return steps()

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Replace every target, in every twobridge module that holds it."""
        loaded = [m for key, m in sys.modules.items()
                  if key == "twobridge" or key.startswith("twobridge.")]
        for module, names in TARGETS.items():
            home = sys.modules[f"twobridge.{module}"]
            for fname in names:
                original = getattr(home, fname)
                full = f"{module}.{fname}"
                wrapper = (self._wrap_generator if full in GENERATORS
                           else self._wrap)(full, original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, wrapper)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for rec in self.spans:
                out.write(json.dumps(rec) + "\n")


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(tracer: Tracer, check_names: tuple[str, ...]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, derived from its spans."""
    spans = tracer.spans
    calls: Counter = Counter()
    busy: defaultdict = defaultdict(float)
    work: Counter = Counter()
    self_time: defaultdict = defaultdict(float)
    # Time covered by descendants of another module, accumulated child-first:
    # children are always appended after their parent.
    foreign = [0.0] * len(spans)
    for i in range(len(spans) - 1, -1, -1):
        name, start, end, parent, _, units = spans[i]
        duration = end - start
        calls[name] += 1
        busy[name] += duration
        if units:
            work[name] += units
        self_time[name] += duration - foreign[i]
        if parent >= 0:
            same = _layer(spans[parent][NAME]) == _layer(name)
            foreign[parent] += foreign[i] if same else duration

    def per(total: float, count: float, scale: float = 1.0) -> float:
        return total / count * scale if count else 0.0

    cli_names = [n for n in calls if n.startswith("cli.")]
    out = {
        "words.enumerate_words.us_per_word":
            per(busy["words.enumerate_words"], work["words.enumerate_words"], 1e6),
        "words.enumerate_palindromic_words.us_per_word":
            per(busy["words.enumerate_palindromic_words"],
                work["words.enumerate_palindromic_words"], 1e6),
        "words.validate_word.calls": calls["words.validate_word"],
        "diagram.signature.calls": calls["diagram.signature"],
        "diagram.signature.us_per_call":
            per(busy["diagram.signature"], calls["diagram.signature"], 1e6),
        "diagram.orient_diagram.busy_s": busy["diagram.orient_diagram"],
        "diagram.all_A_components.busy_s": busy["diagram.all_A_components"],
        "sigtables.histogram_enumerated.busy_s": busy["sigtables.histogram_enumerated"],
        "sigtables.histogram_enumerated.words_per_s":
            per(work["sigtables.histogram_enumerated"],
                busy["sigtables.histogram_enumerated"]),
        "sigtables.recursed_table.calls": calls["sigtables.recursed_table"],
        "sigtables.recursed_table.busy_s": busy["sigtables.recursed_table"],
        "sigtables.totals.busy_s": busy["sigtables.totals"],
        "sigtables.palindromic_total_abs.busy_s": busy["sigtables.palindromic_total_abs"],
        "sigtables.cache.hits": tracer.counts["cache.hits"],
        "sigtables.cache.misses": tracer.counts["cache.misses"],
        "sigtables.cache.rejects": tracer.counts["cache.rejects"],
        "sigtables.store_cached_row.busy_s": busy["sigtables.store_cached_row"],
        "cobordism.decompose.calls": calls["cobordism.decompose"],
        "cobordism.decompose.self_us_per_call":
            per(self_time["cobordism.decompose"], calls["cobordism.decompose"], 1e6),
        "cobordism.cancel_mirrors.busy_s": busy["cobordism.cancel_mirrors"],
        "cobordism.link_lemma_fix.calls": calls["cobordism.link_lemma_fix"],
        "cobordism.average_g4_row.busy_s": busy["cobordism.average_g4_row"],
        "markov.exact_expected_distance.busy_s": busy["markov.exact_expected_distance"],
        "markov.exact_expected_distance.sequences_per_s":
            per(work["markov.exact_expected_distance"],
                busy["markov.exact_expected_distance"]),
        "markov.per_class_moments.busy_s": busy["markov.per_class_moments"],
        "markov.monte_carlo_distance.samples_per_s":
            per(work["markov.monte_carlo_distance"], busy["markov.monte_carlo_distance"]),
        "markov.monte_carlo_distance.rss_growth_mb":
            max(tracer.rss_growth_kb, default=0) / 1024,
        "cli.self_s": sum(self_time[n] for n in cli_names),
        "cli.jobs": sum(calls[n] for n in cli_names),
    }
    for check in check_names:
        out[f"checks.{check}.seconds"] = tracer.check_seconds.get(check, 0.0)
    return out
