"""Exact combinatorics of staircase tableaux.

Subpackages cover the data model (`core`), column-growth enumeration
(`enumerator`), completion counts (`counting`), exact uniform sampling
(`sampler`), closed-form distributions (`stats`), polynomial triangles and
series identities (`polyengine`), and the exclusion-chain cross-check
(`asep`).  The `cli` module exposes the same functionality as subcommands.
"""

from .core import (
    GreekSymbol,
    InvalidTableauError,
    Label,
    StatVector,
    Tableau,
    WeightMonomial,
    from_text,
    is_valid,
    label_uq,
    statistics,
    to_line,
    to_text,
    type_word,
    validate,
    weight,
)
from .counting import completion_count, completions, total_count
from .enumerator import ColumnFill, enumerate_all, extend, legal_fills
from .sampler import (
    iter_samples,
    probability_of,
    sample_many,
    sample_statistics,
    sample_uniform,
)

__version__ = "0.1.0"

__all__ = [
    "ColumnFill",
    "GreekSymbol",
    "InvalidTableauError",
    "Label",
    "StatVector",
    "Tableau",
    "WeightMonomial",
    "__version__",
    "completion_count",
    "completions",
    "enumerate_all",
    "extend",
    "from_text",
    "is_valid",
    "iter_samples",
    "label_uq",
    "legal_fills",
    "probability_of",
    "sample_many",
    "sample_statistics",
    "sample_uniform",
    "statistics",
    "to_line",
    "to_text",
    "total_count",
    "type_word",
    "validate",
    "weight",
]
