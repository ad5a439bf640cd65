"""Exact moment series for the generating operator of free group factors.

The generating operator G of the free group on N generators is the sum
of the generators and their inverses inside the integer group ring.
This package computes the scalar moment series trace(G^n) and the
moment series over the cyclic subgroup generated by the canonical
length-2N word (all generators times all inverses), using a fast radial
recurrence that is cross-checked against two independent oracles:
brute-force group-ring expansion and walk counting on the 2N-regular
tree.  All arithmetic is exact: the library computes in Python integers,
and the ``scalar`` and ``xdecomp`` commands run their recurrences in
exact ``decimal`` arithmetic when the values grow long enough that
spelling them as integers would dominate the run (``fpmom.series``).
"""

from ._version import TOOL_VERSION as __version__
from .laurent import LaurentPolynomial
from .words import (
    Word,
    format_word,
    reduced_word_count,
    subgroup_word,
)
from .ring import (
    RingElement,
    conditional_expectation,
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
    scalar_moment,
)
from .oracle import (
    DEFAULT_SUPPORT_CAP,
    DiffReport,
    Mismatch,
    SupportCapError,
    brute_force_budget,
    returning_walks,
    self_test,
    verify,
)
from .series import scalar_series

__all__ = [
    "__version__",
    "Word",
    "format_word",
    "reduced_word_count",
    "LaurentPolynomial",
    "RingElement",
    "SupportCapError",
    "DEFAULT_SUPPORT_CAP",
    "multiply",
    "power",
    "iter_powers",
    "radial_sum",
    "generating_operator",
    "subgroup_word",
    "conditional_expectation",
    "RadialDecomposition",
    "decomposition_of",
    "scalar_moment",
    "amalgamated_moment",
    "amalgamated_projection",
    "DiffReport",
    "Mismatch",
    "returning_walks",
    "brute_force_budget",
    "verify",
    "self_test",
    "scalar_series",
]
