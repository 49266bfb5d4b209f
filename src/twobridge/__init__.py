"""2-bridge knot enumeration, signatures, and 4-genus bounds.

The modules split the work by stage: `words` enumerates the
alternating-word model T(c), `diagram` evaluates plat diagrams
(writhe, all-A state circles, Traczyk signature), `sigtables` builds
and verifies the signature histograms, `cobordism` runs the
saddle-move decomposition that yields 4-genus upper bounds, `markov`
handles the summand-walk distributions behind the average-case
bound, `budget` holds the work limit of every exhaustive
computation, and `checks` bundles every verification into named,
timed checks (also exposed as `twobridge verify-all`).

``import twobridge`` loads none of them.  Each name of ``__all__`` but
``__version__`` is looked up in its home module on access (PEP 562), so
the first access imports that module, and ``from twobridge import
checks`` still imports the module ``checks``.
"""

from importlib import import_module

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "choose_block_size",
    "count_report",
    "decompose",
    "enumerate_words",
    "exact_expected_distance",
    "g4_interval",
    "histogram_enumerated",
    "metrics_for_word",
    "monte_carlo_distance",
    "recursed_table",
    "signature",
    "totals",
    "transition_matrix",
    "validate_word",
    "word_count",
    "__version__",
]

# The home module of each name above but __version__.
_HOMES = {name: home for home, names in (
    ("budget", ("BudgetError",)),
    ("cobordism", ("choose_block_size", "decompose", "g4_interval")),
    ("diagram", ("metrics_for_word", "signature")),
    ("markov", ("exact_expected_distance", "monte_carlo_distance", "transition_matrix")),
    ("sigtables", ("histogram_enumerated", "recursed_table", "totals")),
    ("words", ("count_report", "enumerate_words", "validate_word", "word_count")),
) for name in names}


def __getattr__(name: str):
    """A re-exported name, read from its home module."""
    try:
        home = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{home}", __name__), name)
