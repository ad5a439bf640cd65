import json

import pytest

from fpmom.laurent import LaurentPolynomial
from fpmom.recurrence import amalgamated_moment
from fpmom.series import (
    MomentSeries,
    amalgamated_series,
    emit,
    scalar_series,
)


def test_scalar_series_rank_two():
    s = scalar_series(2, 8)
    assert s.rank == 2
    assert s.kind == "scalar"
    assert s.values == (0, 4, 0, 28, 0, 232, 0, 2092)
    assert s.max_order == 8
    assert s.value(8) == 2092


def test_scalar_series_other_ranks():
    assert scalar_series(1, 8).values == (0, 2, 0, 6, 0, 20, 0, 70)
    assert scalar_series(3, 4).values == (0, 6, 0, 66)


def test_amalgamated_series_rank_two():
    s = amalgamated_series(2, 4)
    assert s.kind == "amalgamated"
    assert s.value(1).is_zero
    assert s.value(2) == LaurentPolynomial({0: 4})
    assert s.value(3).is_zero
    assert s.value(4) == LaurentPolynomial({1: 1, -1: 1, 0: 28})


def test_amalgamated_series_rank_three():
    s = amalgamated_series(3, 6)
    # no subgroup powers appear before order 6 (generator length is 6)
    for n in range(1, 6):
        assert set(dict(s.value(n).items())) <= {0}
    assert s.value(6) == LaurentPolynomial({1: 1, -1: 1, 0: 876})


def test_amalgamated_series_needs_rank_two():
    with pytest.raises(ValueError):
        amalgamated_series(1, 4)


def test_amalgamated_series_projects_the_moments():
    for rank in (2, 3, 4, 5):
        series = amalgamated_series(rank, 60)
        for k in range(1, 61):
            assert series.value(k) == amalgamated_moment(k, rank)


def test_cross_kind_consistency():
    scal = scalar_series(2, 12)
    amal = amalgamated_series(2, 12)
    for n in range(1, 13):
        assert amal.value(n).constant_term == scal.value(n)


def test_series_validation():
    with pytest.raises(ValueError):
        MomentSeries(2, "scalar", ())  # no orders
    with pytest.raises(ValueError):
        MomentSeries(2, "scalar", (5, 4))  # odd nonzero
    with pytest.raises(ValueError):
        MomentSeries(2, "moments", (0,))
    with pytest.raises(TypeError):
        MomentSeries(2, "scalar", (LaurentPolynomial(),))
    with pytest.raises(TypeError):
        MomentSeries(2, "amalgamated", (0,))
    with pytest.raises(ValueError):
        scalar_series(2, 4).value(5)


def test_emit_json_shape():
    data = emit(scalar_series(2, 4), "json").decode()
    assert data.startswith('{"rank":2,"kind":"scalar","max_order":4,')
    assert '"provenance":"recurrence"' in data
    assert '{"n":4,"value":"28"}' in data
    assert data.endswith("\n")


def test_emit_json_amalgamated_pairs():
    data = emit(amalgamated_series(2, 4), "json").decode()
    assert '"value":[{"exp":-1,"coeff":"1"},{"exp":0,"coeff":"28"},{"exp":1,"coeff":"1"}]' in data
    assert '{"n":3,"value":[]}' in data


def test_json_round_trip():
    for series in (scalar_series(2, 9), amalgamated_series(2, 9), scalar_series(1, 5)):
        blob = emit(series, "json")
        payload = json.loads(blob)
        assert [e["n"] for e in payload["entries"]] == list(range(1, payload["max_order"] + 1))
        values = tuple(
            int(e["value"])
            if payload["kind"] == "scalar"
            else LaurentPolynomial({p["exp"]: int(p["coeff"]) for p in e["value"]})
            for e in payload["entries"]
        )
        decoded = MomentSeries(payload["rank"], payload["kind"], values)
        assert decoded == series
        assert emit(decoded, "json") == blob


def test_emit_csv_scalar():
    lines = emit(scalar_series(2, 4), "csv").decode().strip().split("\n")
    assert lines == ["n,value", "1,0", "2,4", "3,0", "4,28"]


def test_emit_csv_amalgamated():
    lines = emit(amalgamated_series(2, 4), "csv").decode().strip().split("\n")
    assert lines[0] == "n,value"
    assert lines[2] == "2,0:4"
    assert lines[3] == "3,"  # zero polynomial leaves an empty cell
    assert lines[4] == "4,-1:1;0:28;1:1"


def test_emit_tex():
    tex = emit(amalgamated_series(2, 4), "tex").decode()
    assert tex.startswith("\\begin{tabular}")
    assert "$4$ & $h + 28 + h^{-1}$ \\\\" in tex
    assert "$3$ & $0$ \\\\" in tex
    assert tex.rstrip().endswith("\\end{tabular}")


def test_emit_unknown_format():
    with pytest.raises(ValueError):
        emit(scalar_series(2, 2), "yaml")


def test_emit_deterministic():
    a = emit(amalgamated_series(2, 8), "json")
    b = emit(amalgamated_series(2, 8), "json")
    assert a == b


def test_big_values_survive_json():
    s = scalar_series(2, 40)
    blob = emit(s, "json")
    back = json.loads(blob)["entries"][39]
    assert back == {"n": 40, "value": str(s.value(40))}
    assert s.value(40) > 10**18  # needs exact big-int handling
