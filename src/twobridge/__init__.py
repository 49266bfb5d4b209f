"""2-bridge knot enumeration, signatures, and 4-genus bounds.

The subpackages split the work by stage: `words` enumerates the
alternating-word model T(c), `diagram` evaluates plat diagrams
(writhe, all-A state circles, Traczyk signature), `sigtables` builds
and verifies the signature histograms, `cobordism` runs the
saddle-move decomposition that yields 4-genus upper bounds, `markov`
handles the summand-walk distributions behind the average-case
bound, `budget` holds the work limit of every exhaustive
computation, and `checks` bundles every verification into named,
timed checks (also exposed as `twobridge verify-all`).
"""

from .cobordism import choose_block_size, decompose, g4_interval
from .diagram import metrics_for_word, signature
from .budget import BudgetError
from .markov import exact_expected_distance, monte_carlo_distance, transition_matrix
from .sigtables import histogram_enumerated, recursed_table, totals
from .words import count_report, enumerate_words, validate_word, word_count

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
