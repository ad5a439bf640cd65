import decimal
import json

import pytest

import fpmom.recurrence
import fpmom.series
from fpmom.laurent import LaurentPolynomial
from fpmom.recurrence import amalgamated_moment
from fpmom.series import (
    amalgamated_rows,
    scalar_series,
    write_csv,
    write_json,
    write_series,
    write_tex,
)
from fpmom.words import _terms_json


def _amalgamated(rank, max_order):
    """E(G^n) for n = 1..max_order, read back from ``amalgamated_rows``."""
    values = []
    for n, (exps, coeffs) in amalgamated_rows(rank, max_order):
        assert n == len(values) + 1
        values.append(LaurentPolynomial(dict(zip(exps, map(int, coeffs)))))
    return values


def _text(fmt, rank, kind, values):
    """What ``fpmom scalar`` or ``fpmom amalg`` writes for these values."""
    if kind == "scalar":
        cells = map(str, values)
    else:
        cells = (v._spelled() for v in values)
    return "".join(write_series(fmt, rank, kind, len(values), enumerate(cells, 1)))


def test_scalar_series_rank_two():
    s = scalar_series(2, 8)
    assert s == (0, 4, 0, 28, 0, 232, 0, 2092)
    assert s[7] == 2092


def test_scalar_series_other_ranks():
    assert scalar_series(1, 8) == (0, 2, 0, 6, 0, 20, 0, 70)
    assert scalar_series(3, 4) == (0, 6, 0, 66)


def test_scalar_series_matches_kesten():
    """Kesten's return generating function for the 2N-regular tree
    (Kesten, "Symmetric random walks on groups", Trans. AMS 1959) gives,
    with q = 2N - 1 and x = z^2,

        F(x) = 2q / (q - 1 + (q + 1) sqrt(1 - 4qx)).

    Rationalising the denominator gives
    2((q+1)^2 x - 1) F = (q - 1) - (q + 1) sqrt(1 - 4qx), and since
    sqrt(1 - 4y) = 1 - 2 sum_k Cat(k-1) y^k, comparing coefficients of x^k
    yields a_0 = 1 and a_k = (2N)^2 a_(k-1) - 2N Cat(k-1) q^k for the
    moment a_k = tr(G^2k).  Odd moments vanish.  The P-recurrence never
    uses this closed form, so the two agree only if both are right.
    """
    for rank, max_order in ((1, 400), (2, 2000), (3, 400), (5, 400), (8, 400)):
        two_n, q = 2 * rank, 2 * rank - 1
        expected = []
        a = catalan = 1  # a_(k-1) and Cat(k-1)
        for k in range(1, max_order // 2 + 1):
            a = two_n * two_n * a - two_n * catalan * q**k
            catalan = catalan * 2 * (2 * k - 1) // (k + 1)
            expected += [0, a]
        assert scalar_series(rank, max_order) == tuple(expected), rank


def test_amalgamated_series_rank_two():
    s = _amalgamated(2, 4)
    assert not s[0]
    assert s[1] == LaurentPolynomial({0: 4})
    assert not s[2]
    assert s[3] == LaurentPolynomial({1: 1, -1: 1, 0: 28})


def test_amalgamated_series_rank_three():
    s = _amalgamated(3, 6)
    # no subgroup powers appear before order 6 (generator length is 6)
    for n in range(1, 6):
        assert set(dict(s[n - 1].items())) <= {0}
    assert s[5] == LaurentPolynomial({1: 1, -1: 1, 0: 876})


def test_amalgamated_series_needs_rank_two():
    with pytest.raises(ValueError):
        amalgamated_rows(1, 4)


def test_amalgamated_series_projects_the_moments():
    # the even walk's rows against the row recurrence's E(G^n)
    for rank in (2, 3, 4, 5):
        for max_order in (59, 60):
            series = _amalgamated(rank, max_order)
            assert series == [amalgamated_moment(k, rank) for k in range(1, max_order + 1)]


def test_cross_kind_consistency():
    scal = scalar_series(2, 12)
    amal = _amalgamated(2, 12)
    for n in range(1, 13):
        assert amal[n - 1].coefficient(0) == scal[n - 1]


def test_series_validation():
    for call in (lambda: scalar_series(2, 0), lambda: amalgamated_rows(2, 0)):
        with pytest.raises(ValueError, match="max_order"):
            call()
    with pytest.raises(TypeError, match="max_order"):
        scalar_series(2, 4.0)


def test_series_rank_is_checked():
    with pytest.raises(TypeError):
        scalar_series(True, 4)  # would write "rank":true
    with pytest.raises(ValueError):
        scalar_series(-3, 4)
    with pytest.raises(ValueError):
        amalgamated_rows(1, 4)
    assert scalar_series(1, 2) == (0, 2)


def test_emit_json_shape():
    data = _text("json", 2, "scalar", scalar_series(2, 4))
    assert data.startswith('{"rank":2,"kind":"scalar","max_order":4,')
    assert '"provenance":"recurrence"' in data
    assert '{"n":4,"value":"28"}' in data
    assert data.endswith("\n")


def test_emit_json_amalgamated_pairs():
    data = _text("json", 2, "amalgamated", _amalgamated(2, 4))
    assert '"value":[{"exp":-1,"coeff":"1"},{"exp":0,"coeff":"28"},{"exp":1,"coeff":"1"}]' in data
    assert '{"n":3,"value":[]}' in data


def test_json_round_trip():
    for rank, kind, values in (
        (2, "scalar", scalar_series(2, 9)),
        (2, "amalgamated", _amalgamated(2, 9)),
        (1, "scalar", scalar_series(1, 5)),
    ):
        blob = _text("json", rank, kind, values)
        payload = json.loads(blob)
        assert (payload["rank"], payload["kind"]) == (rank, kind)
        assert [e["n"] for e in payload["entries"]] == list(range(1, payload["max_order"] + 1))
        decoded = [
            int(e["value"])
            if kind == "scalar"
            else LaurentPolynomial({p["exp"]: int(p["coeff"]) for p in e["value"]})
            for e in payload["entries"]
        ]
        assert decoded == list(values)
        assert _text("json", rank, kind, decoded) == blob
    # with no fields the object opens straight onto its entries
    text = "".join(write_json({}, [(1, "2"), (2, ((-1, 0), ("3", "-4")))]))
    assert text == (
        '{"entries":[{"n":1,"value":"2"},'
        '{"n":2,"value":[{"exp":-1,"coeff":"3"},{"exp":0,"coeff":"-4"}]}]}\n'
    )
    assert json.loads(text)["entries"][1]["value"][1] == {"exp": 0, "coeff": "-4"}


def test_emit_csv_scalar():
    lines = _text("csv", 2, "scalar", scalar_series(2, 4)).strip().split("\n")
    assert lines == ["n,value", "1,0", "2,4", "3,0", "4,28"]


def test_emit_csv_amalgamated():
    lines = _text("csv", 2, "amalgamated", _amalgamated(2, 4)).strip().split("\n")
    assert lines[0] == "n,value"
    assert lines[2] == "2,0:4"
    assert lines[3] == "3,"  # zero polynomial leaves an empty cell
    assert lines[4] == "4,-1:1;0:28;1:1"


def test_emit_tex():
    tex = _text("tex", 2, "amalgamated", _amalgamated(2, 4))
    assert tex.startswith("\\begin{tabular}")
    assert "$4$ & $h + 28 + h^{-1}$ \\\\" in tex
    assert "$3$ & $0$ \\\\" in tex
    assert tex.rstrip().endswith("\\end{tabular}")


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        _text("yaml", 2, "scalar", scalar_series(2, 2))


def test_emit_deterministic():
    a = _text("json", 2, "amalgamated", _amalgamated(2, 8))
    b = _text("json", 2, "amalgamated", _amalgamated(2, 8))
    assert a == b


def test_big_values_survive_json():
    s = scalar_series(2, 40)
    back = json.loads(_text("json", 2, "scalar", s))["entries"][39]
    assert back == {"n": 40, "value": str(s[39])}
    assert s[39] > 10**18  # needs exact big-int handling


# the writers' bytes for hand-built series with negative, asymmetric and
# +-1 coefficients, recorded while each format still had its own renderer
HAND_BUILT = {
    "amalgamated": (3, (
        LaurentPolynomial(),
        LaurentPolynomial({-2: -1, 0: 5, 3: 1, 7: -12}),
        LaurentPolynomial(),
        LaurentPolynomial({1: -1}),
        LaurentPolynomial(),
        LaurentPolynomial({-1: 1, 0: -1, 2: 10**20}),
        LaurentPolynomial(),
        LaurentPolynomial({0: 1}),
    )),
    "scalar": (1, (0, -4, 0, 1, 0, -(10**21))),
}
HAND_BUILT_BYTES = {
    ("amalgamated", "json"):
        b'{"rank":3,"kind":"amalgamated","max_order":8,"provenance":"recurrence",'
        b'"tool_version":"0.1.0","entries":[{"n":1,"value":[]},{"n":2,"value":'
        b'[{"exp":-2,"coeff":"-1"},{"exp":0,"coeff":"5"},{"exp":3,"coeff":"1"},'
        b'{"exp":7,"coeff":"-12"}]},{"n":3,"value":[]},{"n":4,"value":'
        b'[{"exp":1,"coeff":"-1"}]},{"n":5,"value":[]},{"n":6,"value":'
        b'[{"exp":-1,"coeff":"1"},{"exp":0,"coeff":"-1"},'
        b'{"exp":2,"coeff":"100000000000000000000"}]},{"n":7,"value":[]},'
        b'{"n":8,"value":[{"exp":0,"coeff":"1"}]}]}\n',
    ("amalgamated", "csv"):
        b"n,value\n1,\n2,-2:-1;0:5;3:1;7:-12\n3,\n4,1:-1\n5,\n"
        b"6,-1:1;0:-1;2:100000000000000000000\n7,\n8,0:1\n",
    ("amalgamated", "tex"):
        b"\\begin{tabular}{rl}\n\\hline\n$n$ & moment \\\\\n\\hline\n$1$ & $0$ \\\\\n"
        b"$2$ & $-12h^{7} + h^{3} + 5 - h^{-2}$ \\\\\n$3$ & $0$ \\\\\n$4$ & $-h$ \\\\\n"
        b"$5$ & $0$ \\\\\n$6$ & $100000000000000000000h^{2} - 1 + h^{-1}$ \\\\\n"
        b"$7$ & $0$ \\\\\n$8$ & $1$ \\\\\n\\hline\n\\end{tabular}\n",
    ("scalar", "json"):
        b'{"rank":1,"kind":"scalar","max_order":6,"provenance":"recurrence",'
        b'"tool_version":"0.1.0","entries":[{"n":1,"value":"0"},{"n":2,"value":"-4"},'
        b'{"n":3,"value":"0"},{"n":4,"value":"1"},{"n":5,"value":"0"},'
        b'{"n":6,"value":"-1000000000000000000000"}]}\n',
    ("scalar", "csv"): b"n,value\n1,0\n2,-4\n3,0\n4,1\n5,0\n6,-1000000000000000000000\n",
    ("scalar", "tex"):
        b"\\begin{tabular}{rl}\n\\hline\n$n$ & moment \\\\\n\\hline\n$1$ & $0$ \\\\\n"
        b"$2$ & $-4$ \\\\\n$3$ & $0$ \\\\\n$4$ & $1$ \\\\\n$5$ & $0$ \\\\\n"
        b"$6$ & $-1000000000000000000000$ \\\\\n\\hline\n\\end{tabular}\n",
}


@pytest.mark.parametrize("kind,fmt", sorted(HAND_BUILT_BYTES))
def test_emit_keeps_its_bytes(kind, fmt):
    rank, values = HAND_BUILT[kind]
    assert _text(fmt, rank, kind, values).encode("utf-8") == HAND_BUILT_BYTES[kind, fmt]


@pytest.mark.parametrize("rank,max_order", [(1, 5), (2, 0), (2.0, 5), (2, True)])
def test_amalgamated_rows_checks_at_the_call(rank, max_order):
    # the rows come lazily, but bad arguments raise before the first one
    with pytest.raises((TypeError, ValueError)):
        amalgamated_rows(rank, max_order)


def _untouchable():
    """Rows that fail the test if anything reads them."""
    yield pytest.fail("rows were read at the call")


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda rows: write_series("bogus", 2, "scalar", 3, rows), ValueError),
        (lambda rows: write_json({"rank": object()}, rows), TypeError),
        (lambda rows: write_json({"rank": 2}, rows, names=("n",)), TypeError),
        (lambda rows: amalgamated_rows(1, 4), ValueError),
        (lambda rows: amalgamated_rows(2, 0), ValueError),
        (lambda rows: amalgamated_rows(2, True), TypeError),
    ],
    ids=["series-format", "json-fields", "json-names", "rows-rank", "rows-order", "rows-bool"],
)
def test_argument_checks_raise_at_the_call(call, error):
    # the writers and row sources stream, but refuse bad arguments before
    # any text is asked for
    with pytest.raises(error):
        call(_untouchable())


@pytest.mark.parametrize(
    "call",
    [
        lambda rows: write_series("csv", 2, "scalar", 3, rows),
        lambda rows: write_json({"rank": 2}, rows),
        lambda rows: write_csv(rows),
        lambda rows: write_tex(rows),
        lambda rows: _terms_json(2, {1: rows}),
    ],
    ids=["series", "json", "csv", "tex", "terms"],
)
def test_writers_read_rows_only_when_iterated(call):
    chunks = call(_untouchable())
    with pytest.raises(pytest.fail.Exception):
        list(chunks)


@pytest.mark.parametrize(
    "command,gate",
    [("scalar", "_SCALAR_GATE"), ("xdecomp", "_ROW_GATE")],
)
def test_commands_above_the_gate_leave_the_callers_decimal_context(monkeypatch, command, gate):
    # the exact context is current only while a chunk is made: between
    # chunks the caller's context holds, and the bytes are the int engine's
    rank, n = 8, 1100
    assert fpmom.recurrence._exact_decimal(n, rank, getattr(fpmom.recurrence, gate))
    run = getattr(fpmom.series, command)
    with monkeypatch.context() as m:
        m.setattr(fpmom.series, "_exact_decimal", lambda *args: None)
        want = "".join(run(rank, n, "csv"))
    with decimal.localcontext() as caller:
        caller.prec = 7
        chunks = run(rank, n, "csv")
        first = next(chunks)
        assert decimal.getcontext() is caller and caller.prec == 7
        rest = "".join(chunks)
        assert decimal.getcontext() is caller and caller.prec == 7
    assert len(first) < len(want)
    assert first + rest == want


@pytest.mark.parametrize("power", [4, 10**6], ids=["below-gate", "above-gate"])
def test_xdecomp_refuses_an_unknown_format_at_the_call(power):
    with pytest.raises(ValueError, match="unknown format 'tex'"):
        fpmom.series.xdecomp(2, power, "tex")
