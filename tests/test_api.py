"""The public surface: package exports, the names the benchmark tracer
binds, the README quickstart, and every docstring example."""

import doctest
import importlib
import inspect
import pkgutil

import fpmom
from fpmom.recurrence import decomposition_of
from fpmom.oracle import walk_counts

PUBLIC_NAMES = [
    "DEFAULT_SUPPORT_CAP",
    "DiffReport",
    "Hyperword",
    "LaurentPolynomial",
    "Mismatch",
    "MomentSeries",
    "RadialDecomposition",
    "RingElement",
    "SupportCapError",
    "WalkTable",
    "Word",
    "__version__",
    "amalgamated_moment",
    "amalgamated_projection",
    "amalgamated_series",
    "brute_force_budget",
    "conditional_expectation",
    "decomposition_of",
    "embed",
    "emit",
    "enumerate_reduced_words",
    "format_word",
    "generating_operator",
    "iter_decompositions",
    "iter_powers",
    "multiply",
    "parse_word",
    "power",
    "radial_sum",
    "reduced_word_count",
    "scalar_moment",
    "scalar_series",
    "self_test",
    "verify",
    "walk_counts",
]

# bench/tracer.py wraps every public function of these modules, gives spans
# or counters to the methods below, and reads the attributes below.
TRACED_LAYERS = ("laurent", "ring", "recurrence", "oracle", "series", "cli")
TRACED_FUNCTIONS = {
    "ring": ("multiply", "iter_powers"),
    "recurrence": ("iter_decompositions", "decomposition_of"),
    "oracle": ("walk_counts",),
    "series": ("emit",),
}
TRACED_CLASS_ATTRIBUTES = {
    ("laurent", "LaurentPolynomial"): ("__init__", "to_pairs", "to_csv_cell", "to_tex"),
    ("ring", "RingElement"): ("to_json_dict", "terms", "support_size"),
    ("recurrence", "RadialDecomposition"): ("step", "coeffs"),
}


def _modules():
    return [
        importlib.import_module(f"fpmom.{info.name}")
        for info in pkgutil.iter_modules(fpmom.__path__)
    ]


def test_package_exports():
    assert sorted(fpmom.__all__) == PUBLIC_NAMES
    for name in fpmom.__all__:
        assert hasattr(fpmom, name), name


def test_submodule_exports_resolve():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_traced_names_exist():
    for layer in TRACED_LAYERS:
        importlib.import_module(f"fpmom.{layer}")
    for layer, names in TRACED_FUNCTIONS.items():
        module = importlib.import_module(f"fpmom.{layer}")
        for name in names:
            fn = getattr(module, name)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name
    for (layer, cls_name), attrs in TRACED_CLASS_ATTRIBUTES.items():
        cls = getattr(importlib.import_module(f"fpmom.{layer}"), cls_name)
        for attr in attrs:
            assert hasattr(cls, attr), (cls_name, attr)
    # dataclass fields live on the instances
    assert decomposition_of(3, 2).power == 3
    assert walk_counts(2, 3).counts[3][3] == 4 * 3 * 3


def test_readme_quickstart():
    from fpmom import (
        Hyperword, conditional_expectation, generating_operator,
        scalar_moment, amalgamated_moment, power, scalar_series,
    )

    assert scalar_moment(8, 2) == 2092
    assert str(amalgamated_moment(4, 2)) == "h + 28 + h^-1"

    g = generating_operator(2)
    g4 = power(g, 4)
    assert g4.trace() == 28
    h = Hyperword.canonical(2)
    assert str(h.word) == "abAB"
    assert conditional_expectation(g4, h) == amalgamated_moment(4, 2)

    assert scalar_series(2, 8).value(8) == 2092


def test_docstring_examples():
    attempted = 0
    for module in _modules():
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted > 0
