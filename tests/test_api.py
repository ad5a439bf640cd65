"""The public surface: package exports, the names the benchmark tracer
binds, the README quickstart, every docstring example, the one module
that owns the packed word format, and the one int rule of the public
entry points."""

import ast
import doctest
import importlib
import inspect
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import fpmom
import fpmom.ring
import fpmom.series
from fpmom.recurrence import decomposition_of

PUBLIC_NAMES = [
    "DEFAULT_SUPPORT_CAP",
    "DiffReport",
    "LaurentPolynomial",
    "Mismatch",
    "RadialDecomposition",
    "RingElement",
    "SupportCapError",
    "Word",
    "__version__",
    "amalgamated_moment",
    "amalgamated_projection",
    "brute_force_budget",
    "conditional_expectation",
    "decomposition_of",
    "format_word",
    "generating_operator",
    "iter_powers",
    "multiply",
    "power",
    "radial_sum",
    "reduced_word_count",
    "returning_walks",
    "scalar_moment",
    "scalar_series",
    "self_test",
    "subgroup_word",
    "verify",
]

# bench/tracer.py, read without importing or editing it
TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _tracer_assignments():
    """The tracer's module-level ``name = value`` nodes, by name."""
    return {
        node.targets[0].id: node.value
        for node in ast.parse(TRACER.read_text()).body
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
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


def test_version_has_one_source():
    # pyproject.toml reads the version from fpmom._version, the string that
    # every JSON output and the bench's provenance stamp print
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((Path(__file__).resolve().parents[1] / "pyproject.toml").read_text())
    assert "version" not in pyproject["project"]
    assert "version" in pyproject["project"]["dynamic"]
    dynamic = pyproject["tool"]["setuptools"]["dynamic"]
    assert dynamic["version"] == {"attr": "fpmom._version.TOOL_VERSION"}


def test_submodule_exports_resolve():
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), (module.__name__, name)


def test_traced_names_exist():
    # install() wraps the public functions of each layer and calls getattr on
    # every SPAN_METHODS and COUNTED_METHODS entry, so a missing layer or
    # method would raise in every traced job
    tracer = _tracer_assignments()
    for layer in ast.literal_eval(tracer["LAYERS"]):
        importlib.import_module(f"fpmom.{layer}")
    tables = [ast.literal_eval(tracer[name]) for name in ("SPAN_METHODS", "COUNTED_METHODS")]
    assert ("recurrence", "RadialDecomposition") in tables[1]  # the parse found both
    for table in tables:
        for (layer, cls_name), methods in table.items():
            cls = getattr(importlib.import_module(f"fpmom.{layer}"), cls_name)
            for method in methods:
                assert callable(getattr(cls, method)), (cls_name, method)
    # the tracer reads these attributes off the instances
    g2 = fpmom.power(fpmom.generating_operator(2), 2)
    assert g2.support_size == len(g2.terms) == 13
    d3 = decomposition_of(3, 2)
    assert d3.power == 3 and dict(d3.coeffs) == {3: 1, 1: 7}


# Names bench/tracer.py hooks or spans that no fpmom function carries any more;
# their metrics read 0 until the tracer is rebound.
STALE_TRACER_NAMES = {
    "walk_counts",
    "verify_scalar",
    "verify_amalgamated",
    "verify_radiality",
    "iter_decompositions",
    "emit",
}


def test_tracer_names_are_live_or_listed():
    # a stale name does not crash the tracer, it silently zeroes a metric
    tracer = _tracer_assignments()
    names = {ast.literal_eval(key) for key in tracer["_HOOKS"].keys}
    names.update(ast.literal_eval(tracer["VERIFY_SPANS"]))
    assert {"multiply", "emit", "verify_scalar"} <= names  # the parse found both
    live = {
        name
        for module in _modules()
        for name, fn in vars(module).items()
        if inspect.isfunction(fn) and fn.__module__ == module.__name__
    }
    assert names - live <= STALE_TRACER_NAMES, sorted(names - live - STALE_TRACER_NAMES)


def test_traced_ring_calls(monkeypatch):
    # the tracer counts calls of the module-level multiply and hashes the
    # keys of RingElement.terms, so both must keep their meaning
    calls = []
    real_multiply = fpmom.ring.multiply

    def counting_multiply(*args, **kwargs):
        calls.append(args)
        return real_multiply(*args, **kwargs)

    monkeypatch.setattr(fpmom.ring, "multiply", counting_multiply)
    g5 = fpmom.ring.power(fpmom.ring.generating_operator(2), 5)
    assert len(calls) == 5
    assert all(type(word) is fpmom.Word for word in g5.terms)


# fpmom.words defines the packed word format; other modules import these
PACKED_FORMAT_HELPERS = {
    "_letter_bits", "_inverse_digit", "_packed_length", "_speller", "_follow", "_level",
    "_level_index", "_terms_json",
}


def test_words_owns_the_packed_format():
    for module in _modules():
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (
                (node.level == 1 and node.module == "ring") or node.module == "fpmom.ring"
            ):
                private = [alias.name for alias in node.names if alias.name.startswith("_")]
                assert not private, (module.__name__, private)
        if module.__name__ != "fpmom.words":
            defined = {
                node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
            }
            assert not defined & PACKED_FORMAT_HELPERS, module.__name__
    assert fpmom.Word.__slots__ == ("_packed", "_rank")


def test_only_expand_uses_the_terms_writer():
    # RingElement.to_json is the reference that expand's writer is checked
    # against, so it must not spell through that writer
    for module in _modules():
        if module.__name__ in ("fpmom.words", "fpmom.cli"):
            continue
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                assert "_terms_json" not in {alias.name for alias in node.names}, module.__name__
            elif isinstance(node, ast.Attribute):
                assert node.attr != "_terms_json", module.__name__


DICT_RING_NAMES = {
    "multiply",
    "power",
    "iter_powers",
    "RingElement",
    "radial_sum",
    "generating_operator",
    "conditional_expectation",
}


def test_only_the_ring_uses_the_dict_ring():
    # the dict ring is the reference that the class lists are checked
    # against, so no command may expand through it.  A module reaches it by
    # importing one of its names, or by reading one off fpmom or fpmom.ring
    # (`power` alone is also a decomposition's field and a local name).
    # fpmom's __init__, which re-exports it, is not among the modules walked.
    for module in _modules():
        if module.__name__ == "fpmom.ring":
            continue
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                used = {alias.name for alias in node.names}
                if (node.module or "").endswith("ring"):
                    assert "*" not in used, module.__name__
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) in (
                "fpmom", "ring", "fpmom.ring"
            ):
                used = {node.attr}
            else:
                continue
            assert not used & DICT_RING_NAMES, (module.__name__, used & DICT_RING_NAMES)


# Public calls with a bool or an out-of-range int: each must raise TypeError
# for the bool, or ValueError naming the caller's own parameter.
G2 = fpmom.generating_operator(2)
BAD_INT_CALLS = {
    "laurent-bool-coefficient": (lambda: fpmom.LaurentPolynomial({0: True}), TypeError, ""),
    "laurent-bool-exponent": (lambda: fpmom.LaurentPolynomial({True: 3}), TypeError, ""),
    "laurent-coefficient-bool": (
        lambda: fpmom.LaurentPolynomial({1: 5, 0: 28}).coefficient(True), TypeError, "exponent"
    ),
    "laurent-coefficient-float": (
        lambda: fpmom.LaurentPolynomial({1: 5, 0: 28}).coefficient(1.0), TypeError, "exponent"
    ),
    "laurent-shifted-bool": (
        lambda: fpmom.LaurentPolynomial({0: 1}).shifted(True), TypeError, "delta"
    ),
    "laurent-shifted-float": (
        lambda: fpmom.LaurentPolynomial({0: 1}).shifted(1.5), TypeError, "delta"
    ),
    "radial_sum-bool-rank": (lambda: fpmom.radial_sum(2, True), TypeError, "rank"),
    "ring-element-bool-rank": (lambda: fpmom.RingElement(True, {}), TypeError, "rank"),
    "word-bool-letter": (lambda: fpmom.Word([True], rank=2), TypeError, ""),
    "word-bool-rank": (lambda: fpmom.Word([1], rank=True), TypeError, "rank"),
    "returning_walks-bool-rank": (lambda: fpmom.returning_walks(True, 3), TypeError, "rank"),
    "returning_walks-bool-steps": (
        lambda: fpmom.returning_walks(2, False), TypeError, "max_steps"
    ),
    "returning_walks-negative": (lambda: fpmom.returning_walks(2, -1), ValueError, "max_steps"),
    "decomposition_of-bool-rank": (lambda: fpmom.decomposition_of(3, True), TypeError, "rank"),
    "scalar_moment-bool-rank": (lambda: fpmom.scalar_moment(4, True), TypeError, "rank"),
    "scalar_series-bool-rank": (lambda: fpmom.scalar_series(True, 4), TypeError, "rank"),
    "scalar_series-rank-0": (lambda: fpmom.scalar_series(0, 4), ValueError, "rank"),
    "amalgamated_moment-bool-rank": (
        lambda: fpmom.amalgamated_moment(4, True), TypeError, "rank"
    ),
    "amalgamated_moment-rank-1": (lambda: fpmom.amalgamated_moment(4, 1), ValueError, "rank"),
    "amalgamated_projection-rank-1": (
        lambda: fpmom.amalgamated_projection(fpmom.decomposition_of(4, 1)), ValueError, "rank"
    ),
    "power-bool-exponent": (lambda: fpmom.power(G2, True), TypeError, "n"),
    "iter_powers-negative": (lambda: list(fpmom.iter_powers(G2, -1)), ValueError, "max_order"),
    "iter_power_classes-negative": (
        lambda: list(fpmom.ring.iter_power_classes(2, -1)), ValueError, "max_order"
    ),
    "iter_power_classes-bool-rank": (
        lambda: list(fpmom.ring.iter_power_classes(True, 2)), TypeError, "rank"
    ),
    "verify-order-0": (lambda: fpmom.verify(2, 0), ValueError, "max_order"),
    "scalar_series-order-0": (lambda: fpmom.scalar_series(2, 0), ValueError, "max_order"),
    "amalgamated_rows-order-0": (
        lambda: fpmom.series.amalgamated_rows(2, 0), ValueError, "max_order"
    ),
    "subgroup_word-bool-rank": (lambda: fpmom.subgroup_word(True), TypeError, "rank"),
    "subgroup_word-rank-1": (lambda: fpmom.subgroup_word(1), ValueError, "rank"),
    "subgroup_word-bool-k": (lambda: fpmom.subgroup_word(2, True), TypeError, "k"),
    "conditional_expectation-rank-1": (
        lambda: fpmom.conditional_expectation(fpmom.generating_operator(1)), ValueError, "rank"
    ),
}


@pytest.mark.parametrize("name", BAD_INT_CALLS)
def test_bad_int_arguments_are_refused(name):
    call, error, parameter = BAD_INT_CALLS[name]
    with pytest.raises(error, match=rf"^{parameter}\b" if parameter else None):
        call()


def test_one_int_rule():
    # int arguments are checked by fpmom.words._require_int, or inline with
    # `type(x) is not int`; isinstance(x, int) would let a bool through
    for module in _modules():
        tree = ast.parse(inspect.getsource(module))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "isinstance":
                kinds = node.args[1]
                names = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                assert "int" not in map(ast.unparse, names), (module.__name__, node.lineno)
            if isinstance(node, ast.FunctionDef) and node.name == "_require_int":
                assert module.__name__ == "fpmom.words", module.__name__


def test_cli_int_flags_use_at_least():
    # every int flag of the CLI is parsed and checked by its argparse type
    # _at_least; a bare type=int or a later _require(args.x >= n) would be a
    # second check that a new flag could skip
    import fpmom.cli

    for node in ast.walk(ast.parse(inspect.getsource(fpmom.cli))):
        if isinstance(node, ast.keyword) and node.arg == "type":
            assert ast.unparse(node.value) != "int", node.lineno
        if isinstance(node, ast.Call) and ast.unparse(node.func) == "_require":
            for compare in ast.walk(node.args[0]):
                if isinstance(compare, ast.Compare) and any(
                    isinstance(op, (ast.Lt, ast.LtE, ast.Gt, ast.GtE)) for op in compare.ops
                ):
                    assert "args." not in ast.unparse(compare), node.lineno


def test_cli_starts_without_dataclasses():
    # every CLI job pays for its imports, from source when bytecode is not
    # written; dataclasses alone pulls in inspect, ast, dis and tokenize
    src = str(Path(fpmom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import sys, fpmom.cli; "
        "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', 'tokenize'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_canonical_run_loads_no_argparse():
    # a canonical argv is read straight off the flag table; argparse, and the
    # gettext and locale it loads, are left to help and errors
    src = str(Path(fpmom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    code = (
        "import io, sys, fpmom.cli; "
        "sys.stdout = io.StringIO(); "
        "rc = fpmom.cli.main(['amalg', '--rank', '2', '--max-order', '4']); "
        "out, sys.stdout = sys.stdout.getvalue(), sys.__stdout__; "
        "print(rc, out.count('entries'), "
        "sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 1 []"


def test_readme_quickstart():
    from fpmom import (
        conditional_expectation, generating_operator, subgroup_word,
        scalar_moment, amalgamated_moment, power, scalar_series,
    )

    assert scalar_moment(8, 2) == 2092
    assert str(amalgamated_moment(4, 2)) == "h + 28 + h^-1"

    g = generating_operator(2)
    g4 = power(g, 4)
    assert g4.trace() == 28
    assert conditional_expectation(g4) == amalgamated_moment(4, 2)
    assert str(subgroup_word(2)) == "abAB"

    assert scalar_series(2, 8)[7] == 2092


def test_docstring_examples():
    attempted = 0
    for module in _modules():
        result = doctest.testmod(module)
        assert result.failed == 0, module.__name__
        attempted += result.attempted
    assert attempted > 0
