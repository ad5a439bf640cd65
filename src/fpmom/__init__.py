"""Exact moment series for the generating operator of free group factors.

The generating operator G of the free group on N generators is the sum
of the generators and their inverses inside the integer group ring.
This package computes the scalar moment series trace(G^n) and the
moment series over the cyclic subgroup generated by the canonical
length-2N word (all generators times all inverses), using a fast radial
recurrence that is cross-checked against two independent oracles:
brute-force group-ring expansion and walk counting on the 2N-regular
tree.  All arithmetic is exact (Python integers throughout).
"""

from ._version import TOOL_VERSION as __version__
from .laurent import LaurentPolynomial
from .words import (
    Word,
    enumerate_reduced_words,
    format_word,
    parse_word,
    reduced_word_count,
)
from .ring import (
    DEFAULT_SUPPORT_CAP,
    Hyperword,
    RingElement,
    SupportCapError,
    conditional_expectation,
    embed,
    generating_operator,
    iter_powers,
    multiply,
    power,
    radial_sum,
)
from .recurrence import (
    RadialDecomposition,
    amalgamated_moment,
    amalgamated_projection,
    decomposition_of,
    iter_decompositions,
    scalar_moment,
)
from .oracle import (
    DiffReport,
    Mismatch,
    WalkTable,
    brute_force_budget,
    self_test,
    verify,
    walk_counts,
)
from .series import (
    MomentSeries,
    amalgamated_series,
    emit,
    scalar_series,
)

__all__ = [
    "__version__",
    "Word",
    "parse_word",
    "format_word",
    "reduced_word_count",
    "enumerate_reduced_words",
    "LaurentPolynomial",
    "RingElement",
    "Hyperword",
    "SupportCapError",
    "DEFAULT_SUPPORT_CAP",
    "multiply",
    "power",
    "iter_powers",
    "radial_sum",
    "generating_operator",
    "conditional_expectation",
    "embed",
    "RadialDecomposition",
    "iter_decompositions",
    "decomposition_of",
    "scalar_moment",
    "amalgamated_moment",
    "amalgamated_projection",
    "WalkTable",
    "DiffReport",
    "Mismatch",
    "walk_counts",
    "brute_force_budget",
    "verify",
    "self_test",
    "MomentSeries",
    "scalar_series",
    "amalgamated_series",
    "emit",
]
