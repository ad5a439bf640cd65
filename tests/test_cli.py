import contextlib
import decimal
import errno
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import fpmom
import fpmom.cli
import fpmom.oracle
import fpmom.recurrence
import fpmom.series
import fpmom.words
from fpmom.cli import _COMMANDS, _read_canonical, build_parser, main
from fpmom.oracle import iter_power_classes


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_scalar_json(capsys):
    code, out, err = run(capsys, "scalar", "--rank", "2", "--max-order", "8")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 2
    assert payload["kind"] == "scalar"
    assert payload["entries"][-1] == {"n": 8, "value": "2092"}


def test_scalar_csv(capsys):
    code, out, _ = run(
        capsys, "scalar", "--rank", "2", "--max-order", "4", "--format", "csv"
    )
    assert code == 0
    assert out.strip().split("\n") == ["n,value", "1,0", "2,4", "3,0", "4,28"]


def test_scalar_rank_one(capsys):
    code, out, _ = run(capsys, "scalar", "--rank", "1", "--max-order", "4")
    assert code == 0
    values = [e["value"] for e in json.loads(out)["entries"]]
    assert values == ["0", "2", "0", "6"]


def test_default_rank_is_two(capsys):
    code, out, _ = run(capsys, "scalar", "--max-order", "2")
    assert code == 0
    assert json.loads(out)["rank"] == 2


def test_scalar_usage_errors(capsys):
    code, out, err = run(capsys, "scalar", "--rank", "0", "--max-order", "4")
    assert code == 2
    assert out == ""
    assert "rank" in err
    code, _, _ = run(capsys, "scalar", "--rank", "2", "--max-order", "0")
    assert code == 2


def test_bad_flag_exits_two(capsys):
    assert run(capsys, "scalar", "--rank", "x", "--max-order", "2")[0] == 2
    assert run(capsys, "nonsense")[0] == 2
    assert run(capsys)[0] == 2


def test_amalg_json(capsys):
    code, out, _ = run(capsys, "amalg", "--rank", "2", "--max-order", "4")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "amalgamated"
    assert payload["entries"][3]["value"] == [
        {"exp": -1, "coeff": "1"},
        {"exp": 0, "coeff": "28"},
        {"exp": 1, "coeff": "1"},
    ]


def test_amalg_rejects_rank_one(capsys):
    code, out, err = run(capsys, "amalg", "--rank", "1", "--max-order", "4")
    assert code == 2
    assert out == ""
    assert "rank" in err


def test_xdecomp_csv(capsys):
    code, out, err = run(capsys, "xdecomp", "--rank", "2", "--power", "8")
    assert code == 0
    assert out.strip().split("\n") == [
        "m,coefficient",
        "8,1",
        "6,22",
        "4,202",
        "2,958",
        "0,2092",
    ]
    # erratum note is a diagnostic, not data
    assert "958" in err and "744" in err and "1316" in err


def test_xdecomp_no_note_for_other_powers(capsys):
    code, out, err = run(capsys, "xdecomp", "--rank", "2", "--power", "3")
    assert code == 0
    assert out.strip().split("\n") == ["m,coefficient", "3,1", "1,7"]
    assert err == ""


def test_xdecomp_json(capsys):
    code, out, _ = run(
        capsys, "xdecomp", "--rank", "2", "--power", "4", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "rank": 2,
        "power": 4,
        "coeffs": [
            {"m": 4, "coeff": "1"},
            {"m": 2, "coeff": "10"},
            {"m": 0, "coeff": "28"},
        ],
    }


def test_expand_power_two(capsys):
    code, out, _ = run(capsys, "expand", "--rank", "2", "--power", "2")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["terms"]) == 13
    assert payload["terms"][0] == {"word": "e", "coeff": "4"}


def test_expand_power_zero(capsys):
    code, out, _ = run(capsys, "expand", "--rank", "2", "--power", "0")
    assert code == 0
    assert json.loads(out)["terms"] == [{"word": "e", "coeff": "1"}]


CAP_REFUSAL = "error: product needs at least {} terms but the support cap is {}; raise the cap to proceed\n"


def test_expand_cap_via_flag(capsys):
    # G^6 at rank 2 holds 1,093 words; G^5's 364 words extend to 1,092 of
    # them, and the cancellations add the identity.  A cap below a
    # product's extensions refuses before it is built, naming them; a cap
    # below its support refuses after, naming the support.  Recorded on the
    # dict kernel, where verify expands the same powers.
    for command in (["expand", "--power", "6"], ["verify", "--max-order", "6"]):
        argv = [command[0], "--rank", "2", *command[1:], "--support-cap"]
        code, out, _ = run(capsys, *argv, "1093")
        assert code == 0 and out
        for cap, needed in ((1092, 1093), (1091, 1092), (120, 121), (50, 120)):
            code, out, err = run(capsys, *argv, str(cap))
            assert code == 3
            assert out == ""
            assert err == CAP_REFUSAL.format(needed, cap)


@pytest.mark.parametrize(
    "command",
    [
        ["scalar", "--max-order", "4"],
        ["amalg", "--max-order", "4"],
        ["xdecomp", "--power", "4"],
    ],
    ids=["scalar", "amalg", "xdecomp"],
)
def test_support_cap_only_where_powers_expand(capsys, command):
    # only expand and verify build group-ring elements
    code, out, err = run(capsys, command[0], "--rank", "2", *command[1:], "--support-cap", "5")
    assert code == 2
    assert out == ""
    assert "--support-cap" in err


def test_verify_passes(capsys):
    code, out, err = run(capsys, "verify", "--rank", "2", "--max-order", "6")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().split("\n")]
    assert len(reports) == 3
    assert all(r["verdict"] == "pass" for r in reports)
    assert all(r["mismatches"] == [] for r in reports)
    assert "PASS" in err


def test_verify_expands_powers_once(capsys, monkeypatch):
    calls = []

    def counting_iter_power_classes(*args, **kwargs):
        calls.append(args)
        return iter_power_classes(*args, **kwargs)

    monkeypatch.setattr(fpmom.oracle, "iter_power_classes", counting_iter_power_classes)
    code, _, _ = run(capsys, "verify", "--rank", "2", "--max-order", "6")
    assert code == 0
    assert len(calls) == 1


def test_verify_tree_only(capsys):
    code, out, _ = run(
        capsys, "verify", "--rank", "2", "--max-order", "40", "--oracle", "tree"
    )
    assert code == 0
    reports = [json.loads(line) for line in out.strip().split("\n")]
    assert len(reports) == 1  # no ring-backed checks requested


def test_verify_rank_one_skips_amalgamated(capsys):
    code, out, err = run(capsys, "verify", "--rank", "1", "--max-order", "6")
    assert code == 0
    reports = [json.loads(line) for line in out.strip().split("\n")]
    assert len(reports) == 2
    assert "skipped" in err


def test_verify_self_test(capsys):
    code, out, err = run(capsys, "verify", "--self-test", "--max-order", "8")
    assert code == 1
    report = json.loads(out.strip())
    assert report["verdict"] == "fail"
    assert len(report["mismatches"]) == 1
    assert "FAIL" in err


def test_output_file(tmp_path, capsys):
    target = tmp_path / "series.json"
    code, out, _ = run(
        capsys, "scalar", "--rank", "2", "--max-order", "4", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["entries"][1]["value"] == "4"


@pytest.mark.parametrize(
    "command",
    [["scalar", "--max-order", "4"], ["verify", "--max-order", "4"]],
    ids=["scalar", "verify"],
)
@pytest.mark.parametrize(
    "where, reason",
    [
        ("missing/out.json", "No such file or directory"),
        (".", "Is a directory"),
        ("file/out.json", "Not a directory"),
    ],
    ids=["missing-parent", "directory", "file-parent"],
)
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, command, where, reason):
    # a missing parent directory, a path that is a directory, or a parent
    # that is a regular file
    (tmp_path / "file").touch()
    target = tmp_path / where
    code, out, err = run(capsys, *command, "--output", str(target))
    assert code == 2
    assert out == ""
    assert err == f"error: cannot write {target}: {reason}\n"


def test_unwritable_output_is_refused_before_computing(tmp_path, capsys, monkeypatch):
    steps = []
    real = fpmom.oracle.iter_power_classes

    def counting_iter_power_classes(*args, **kwargs):
        steps.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(fpmom.oracle, "iter_power_classes", counting_iter_power_classes)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(
        capsys, "verify", "--rank", "2", "--max-order", "11", "--output", "missing/x.json"
    )
    assert code == 2
    assert out == ""
    assert err == "error: cannot write missing/x.json: No such file or directory\n"
    assert steps == []


@pytest.mark.parametrize(
    "output", [["--output", ""], ["--output="]], ids=["canonical", "argparse"]
)
def test_empty_output_is_refused_before_computing(capsys, monkeypatch, output):
    # an empty path names no file; it is not a request for stdout
    argv = ["scalar", "--max-order", "2", *output]
    assert (_read_canonical(argv) is None) == (output == ["--output="])
    calls = []
    monkeypatch.setattr(fpmom.series, "scalar_series", lambda *args: calls.append(args))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot write")
    assert calls == []


@pytest.mark.parametrize(
    "flag", [["--oracle", "tree"], ["--ring-max-order", "3"], ["--support-cap", "5"]],
    ids=["oracle", "ring-max-order", "support-cap"],
)
def test_self_test_refuses_flags_it_ignores(capsys, flag):
    code, out, err = run(capsys, "verify", "--self-test", *flag)
    assert code == 2
    assert out == ""
    assert f"error: {flag[0]} has no effect with --self-test" in err


@pytest.mark.parametrize(
    "flag", [["--ring-max-order", "5"], ["--support-cap", "1"]],
    ids=["ring-max-order", "support-cap"],
)
def test_tree_oracle_refuses_ring_flags(capsys, flag):
    code, out, err = run(capsys, "verify", "--oracle", "tree", *flag)
    assert code == 2
    assert out == ""
    assert f"error: {flag[0]} has no effect with --oracle tree" in err


@pytest.mark.parametrize(
    "command",
    [
        "scalar --max-order 4 --rank 0",
        "xdecomp --power 4 --rank 0",
        "expand --power 2 --rank 0",
        "verify --rank 0",
        "amalg --max-order 4 --rank 1",
        "scalar --max-order 0",
        "amalg --max-order 0",
        "verify --max-order 0",
        "xdecomp --power 0",
        "expand --power -1",
        "verify --ring-max-order 0",
        "expand --power 2 --support-cap 0",
        "verify --support-cap 0",
        "verify --oracle ring",
    ],
)
def test_int_flag_below_its_least_exits_two(capsys, command):
    # every int flag is checked once, by its parser type, so the last flag
    # given is refused before any command runs (as is the removed ring oracle)
    argv = command.split()
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"argument {argv[-2]}:" in err


def test_byte_identical_reruns(capsys):
    first = run(capsys, "amalg", "--rank", "2", "--max-order", "8")
    second = run(capsys, "amalg", "--rank", "2", "--max-order", "8")
    assert first == second


def _amalg_text(rank, max_order, fmt):
    """``amalg``'s text, from E(G^n) of the row recurrence at every order."""
    cells = (fpmom.amalgamated_moment(n, rank)._spelled() for n in range(1, max_order + 1))
    rows = enumerate(cells, 1)
    return "".join(fpmom.series.write_series(fmt, rank, "amalgamated", max_order, rows))


@pytest.mark.parametrize("fmt", fpmom.series.FORMATS)
@pytest.mark.parametrize("rank", range(2, 8))
def test_amalg_writes_what_emit_writes(capsys, rank, fmt):
    # amalg writes from the even walk; the reference from the row recurrence
    for max_order in range(1, 61):
        code, out, _ = run(capsys, "amalg", "--rank", str(rank), "--max-order",
                           str(max_order), "--format", fmt)
        assert code == 0
        assert out == _amalg_text(rank, max_order, fmt), max_order


def test_amalg_walks_only_the_even_powers(capsys, monkeypatch):
    expected = {fmt: _amalg_text(3, 41, fmt) for fmt in fpmom.series.FORMATS}

    def refuse(*args, **kwargs):
        raise AssertionError("amalg left the even walk")

    monkeypatch.setattr(fpmom.recurrence.RadialDecomposition, "step", refuse)
    monkeypatch.setattr(fpmom.recurrence, "_radial_row", refuse)
    for fmt, data in expected.items():
        code, out, _ = run(capsys, "amalg", "--rank", "3", "--max-order", "41", "--format", fmt)
        assert code == 0
        assert out == data, fmt


@pytest.mark.parametrize("rank, max_power", [(1, 9), (2, 7), (3, 5), (5, 3), (27, 2)])
def test_expand_writes_what_to_json_writes(capsys, rank, max_power):
    # expand spells class lists; to_json spells the dict power's sorted keys
    g = fpmom.generating_operator(rank)
    for n in range(max_power + 1):
        code, out, _ = run(capsys, "expand", "--rank", str(rank), "--power", str(n))
        assert code == 0
        assert out == fpmom.power(g, n).to_json(), n


def _kesten(rank, k_max):
    """a_0..a_k_max of a_k = tr(G^2k) by Kesten's first-return recurrence,
    a_k = (2N)^2 a_(k-1) - 2N Cat(k-1) q^k (see tests/test_series.py)."""
    two_n, q = 2 * rank, 2 * rank - 1
    values = [1]
    catalan = 1  # Cat(k-1)
    for k in range(1, k_max + 1):
        values.append(two_n * two_n * values[-1] - two_n * catalan * q**k)
        catalan = catalan * 2 * (2 * k - 1) // (k + 1)
    return values


@pytest.fixture
def digit_limit():
    """Run with the interpreter's default int -> str limit of 4300 digits."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(saved)


def _run_past_digit_limit(capsys, limit, *argv):
    """Run the CLI in-process, check the digit limit is back, and return stdout
    together with a parser that reads ints past the limit."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit

    def big_int(text):
        sys.set_int_max_str_digits(0)
        try:
            return int(text)
        finally:
            sys.set_int_max_str_digits(limit)

    return out, big_int


@pytest.mark.parametrize("rank,max_order", [(30, 3700), (2, 8200)])
def test_scalar_values_past_the_digit_limit(capsys, digit_limit, rank, max_order):
    # tr(G^3700) at rank 30 and tr(G^8200) at rank 2 have over 4300 digits
    out, big_int = _run_past_digit_limit(
        capsys, digit_limit, "scalar", "--rank", str(rank), "--max-order", str(max_order)
    )
    values = [big_int(e["value"]) for e in json.loads(out)["entries"]]
    assert values[1::2] == _kesten(rank, max_order // 2)[1:]
    assert not any(values[::2])
    assert values[-1] >= 10**digit_limit


def test_xdecomp_past_the_digit_limit(capsys, digit_limit):
    out, big_int = _run_past_digit_limit(
        capsys, digit_limit, "xdecomp", "--rank", "30", "--power", "3700"
    )
    lines = out.splitlines()
    assert lines[0] == "m,coefficient" and lines[1] == "3700,1"
    rows = [tuple(map(big_int, line.split(","))) for line in lines[1:]]
    assert [m for m, _ in rows] == list(range(3700, -1, -2))
    assert rows[-1][1] == _kesten(30, 1850)[-1]
    mass = sum(c * fpmom.reduced_word_count(m, 30) for m, c in rows)
    assert mass == 60**3700


def test_int_values_past_the_digit_limit_below_the_gate(capsys, digit_limit):
    # a huge rank puts 4521-digit values below the decimal gate, so the int
    # path spells them and main's lift of the limit is what lets it
    rank = 2**1500
    assert fpmom.recurrence._exact_decimal(20, rank, fpmom.recurrence._SCALAR_GATE) is None
    out, big_int = _run_past_digit_limit(
        capsys, digit_limit, "scalar", "--rank", str(rank), "--max-order", "20", "--format", "csv"
    )
    values = [big_int(line.split(",")[1]) for line in out.splitlines()[1:]]
    assert values[1::2] == _kesten(rank, 10)[1:]
    assert values[-1] >= 10**digit_limit


def _first_order_above(gate, rank):
    # the gate reads n // 2, so it opens at an even order, below 2000 at
    # ranks 2 to 8
    gated = (n for n in range(2, 2000, 2) if fpmom.recurrence._exact_decimal(n, rank, gate))
    return next(gated)


@pytest.mark.parametrize("rank", [2, 3, 8])
def test_decimal_path_writes_the_int_engines_bytes_at_the_gate(capsys, monkeypatch, rank):
    above = _first_order_above(fpmom.recurrence._SCALAR_GATE, rank)
    for n in (above - 1, above):
        values = fpmom.series.scalar_series(rank, n)
        for fmt in fpmom.series.FORMATS:
            rows = enumerate(map(str, values), 1)
            want = "".join(fpmom.series.write_series(fmt, rank, "scalar", n, rows))
            code, out, _ = run(
                capsys, "scalar", "--rank", str(rank), "--max-order", str(n), "--format", fmt
            )
            assert (code, out) == (0, want), (n, fmt)
    above = _first_order_above(fpmom.recurrence._ROW_GATE, rank)
    for n in (above - 1, above):
        for fmt in ("csv", "json"):
            with monkeypatch.context() as m:  # no gate: the int row recurrence
                m.setattr(fpmom.series, "_exact_decimal", lambda *args: None)
                want = "".join(fpmom.series.xdecomp(rank, n, fmt))
            code, out, _ = run(
                capsys, "xdecomp", "--rank", str(rank), "--power", str(n), "--format", fmt
            )
            assert (code, out) == (0, want), (n, fmt)


def test_decimal_is_imported_above_the_gate_only():
    # a job below the gate must not pay for importing decimal
    scalar_top = _first_order_above(fpmom.recurrence._SCALAR_GATE, 8) - 1
    row_top = _first_order_above(fpmom.recurrence._ROW_GATE, 8) - 1
    below = [
        f"scalar --rank 8 --max-order {scalar_top} --format tex",
        "scalar --rank 2 --max-order 1300",
        f"xdecomp --rank 8 --power {row_top} --format json",
        "xdecomp --rank 3 --power 1100",
        "amalg --rank 3 --max-order 120 --format csv",
        "expand --rank 3 --power 4",
        "verify --rank 8 --max-order 900 --oracle tree",
        "verify --rank 3 --max-order 5 --oracle both",
    ]
    above = [f"xdecomp --rank 8 --power {row_top + 1}"]
    script = (
        "import io, sys\n"
        "from fpmom.cli import main\n"
        "sys.stdout = io.StringIO()\n"
        "seen = []\n"
        "for argv in sys.argv[1:]:\n"
        "    assert main(argv.split()) == 0, argv\n"
        "    seen.append('decimal' in sys.modules)\n"
        "print(seen, file=sys.__stdout__)\n"
    )
    _, env = _fpmom_argv_env()
    proc = subprocess.run(
        [sys.executable, "-c", script, *below, *above], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{[False] * len(below) + [True]}\n"


# sha256 of --output, recorded on the int engines, before runs above the
# decimal gate ran in decimal
LARGE_OUTPUT = {
    "scalar --rank 2 --max-order 16000":
        "7baef07a5726569db10b3dc2e63fcc89e6407951e8cfe2d97b8f636dd323c681",
    "xdecomp --rank 2 --power 20000 --format csv":
        "934de3913254b3d95f65ce335bdd2d455c456068da26716f9b18cf6ce28bdff6",
}


@pytest.mark.parametrize("command", sorted(LARGE_OUTPUT))
def test_large_runs_keep_their_bytes(tmp_path, command):
    target = tmp_path / "out"
    assert main([*command.split(), "--output", str(target)]) == 0
    digest = hashlib.sha256()
    with open(target, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    target.unlink()
    assert digest.hexdigest() == LARGE_OUTPUT[command]


def _fpmom_argv_env(*argv):
    """The argv and environment of ``python -m fpmom`` on the copy of fpmom
    these tests import."""
    src = str(Path(fpmom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return [sys.executable, "-m", "fpmom", *argv], env


def _fpmom_process(*argv, timeout=None):
    """Run ``python -m fpmom``, capturing its output."""
    command, env = _fpmom_argv_env(*argv)
    return subprocess.run(command, capture_output=True, text=True, env=env, timeout=timeout)


def test_module_entry_point():
    proc = _fpmom_process("scalar", "--rank", "2", "--max-order", "2")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["entries"][1]["value"] == "4"


def test_verify_ring_legs_respect_ring_max_order():
    proc = _fpmom_process(
        "verify", "--rank", "2", "--max-order", "20", "--ring-max-order", "4", timeout=60
    )
    assert proc.returncode == 0
    subjects = [json.loads(line)["subject"] for line in proc.stdout.strip().split("\n")]
    assert subjects == [
        "scalar moments (rank 2, orders 1..20)",
        "amalgamated moments (rank 2, subgroup <abAB>, orders 1..4)",
        "radiality of powers (rank 2, orders 1..4)",
    ]


def test_verify_rejects_empty_ring_leg(capsys):
    code, out, err = run(capsys, "verify", "--ring-max-order", "0")
    assert code == 2
    assert out == ""
    assert "--ring-max-order" in err


# sha256 of stdout, recorded on the implementation that rebuilt G^1..G^n for
# every order, before the single-chain engine replaced it.
GOLDEN_STDOUT = {
    "amalg --rank 2 --max-order 60 --format json":
        "5268f4733fb8a88ad0c912a7d91741b87d0796b2d4a26b68d8a8fb6a9050cf0f",
    "amalg --rank 2 --max-order 60 --format csv":
        "9fc3896ce8db44edd8136a2e452ad350dedca4c9f4baafc38ef1e741f1d89fcc",
    "amalg --rank 2 --max-order 60 --format tex":
        "9af3565a8b44eb19b43a2f55b24e998ea7aa3cffb8307281352fc860dce43657",
    "amalg --rank 5 --max-order 120 --format json":
        "1ec476d588a2cdf9121358b61657af5315f5ec61d751480df2975c914140fa15",
    "amalg --rank 5 --max-order 120 --format csv":
        "036d71d40454ef1eec95bbf3551fe1672460c576a528fe61a3ae384ae08534df",
    "amalg --rank 5 --max-order 120 --format tex":
        "2965bbde2fd1a10d0a2fc25801259dd4db82ba812ed50fed94128a4d5dad0e70",
    "scalar --rank 3 --max-order 300 --format json":
        "a829b6a9731a418287bac4adc82e17e07b601f855cca9a596da5d20e94aefb21",
    "xdecomp --rank 8 --power 500 --format csv":
        "270540a6c1d999418fa97da531fa6e6210d4442e6072006b6b1c8eac93c81851",
    "xdecomp --rank 8 --power 500 --format json":
        "5901b92d987b6877ec59f41407cd938124f3f8e231657de1b6ae4dc906369099",
    # recorded while each verify check still expanded G^1..G^n on its own
    "verify --rank 2 --max-order 8 --oracle both":
        "bb7e8e384087c5d0d4af8ada73510e36c75622a09b3c2115597e3307afeb3854",
    "verify --rank 2 --max-order 8 --oracle tree":
        "fe2bdf708c1d343d83c2d5baa8b717cd51aac05e7ac9b76b052d40574e555f31",
    "verify --rank 1 --max-order 10":
        "363afa9f2234252d00738a1335a7c0c2bf3eb50233fc968ebcdd9d8a7f00b5b6",
    # recorded before --oracle ring was removed; the default ring budget at
    # rank 3 (8) covers every order here, so this pins the rank-3 ring leg
    "verify --rank 3 --max-order 5":
        "fdd8d77efbc86c79836fe51864b131a0b4c2ccb18ca45e4ea9f5d63787f43b56",
    "verify --rank 2 --max-order 14 --ring-max-order 5":
        "816eef394fbb5bec33f4d58da4311914fa2d79493edb2410a4ad826378818859",
    # recorded while MomentSeries still stored (n, value) pairs, provenance and
    # tool version, and before the word hash changed; at rank 8 the default
    # ring budget (4) caps the ring leg below --max-order
    "expand --rank 2 --power 6":
        "ef9f492fc17f61bd35557da1bd444a2fb628bb538a0308a5a6c0871b762730c1",
    "expand --rank 3 --power 4":
        "083af85d386c1f26a5f6b10b4f0453e84fb78f51ebeb1c8678309f2d5e5d9f11",
    # recorded while expand still wrote json.dumps of to_json_dict; rank 5
    # spells generator 5 "g5" alone and "e" in longer words, rank 27 is indexed
    "expand --rank 5 --power 3":
        "669cb6ec3915db3f72f5f7bb542decab87fc613eb41912540fdf9597df2f0a60",
    "expand --rank 27 --power 2":
        "77e43d2586cf13abe125a0cba5f600ff7f7b27faae87ce34e5fa9a5731bc8704",
    "scalar --rank 2 --max-order 200 --format csv":
        "96878f3a8c54aeaf40cfb00d838dc007de62b18a1493d5ec7f2f128d980214a2",
    "scalar --rank 2 --max-order 200 --format tex":
        "ffb94caff3e50d6a32de764bf5658c35b39fc1ed685625bf5cf6c0691bf9b3b0",
    "verify --rank 8 --max-order 6":
        "b6b587eec2c65475df2eaa65fdefd8d46a308de9b04b55d291c51aab8cb96698",
    # recorded before the constant-only chain and walk table kept a horizon;
    # odd order, a truncated tree leg, truncation after the ring leg, and a
    # ring limit above half the order (the ring term sets the horizon)
    "scalar --rank 4 --max-order 301 --format csv":
        "8c913088dc093d4ecb619a1ee4ec5c1b95322186994edc74e3b47d95d49747ac",
    "verify --rank 8 --max-order 301 --oracle tree":
        "24a935dcd4f58ede388eb03d3d7bb8709f0eb36d49d2e9587dc90af9edd968e7",
    "verify --rank 2 --max-order 21 --ring-max-order 6":
        "9dd02c04c31c5b7235e9bd4ad84ffe5d564ae29c5fcad9c4d3407b99b5b5e334",
    "verify --rank 2 --max-order 13 --ring-max-order 8":
        "fe8ce2b273fbbba3451b9abdd827ece68d5644e3c39b3c79f52e050412d577b6",
    # recorded while to_json spelled every term on its own: the largest expand
    # sizes the benchmark runs (r3/p6, r8/p4, r2/p8), rank 1 (two bits a
    # letter) and rank 30 (indexed spelling)
    "expand --rank 3 --power 6":
        "113606bee9fa4808f28a745bcb7ed991b43b81cc71974529f0d0dc24fd898900",
    "expand --rank 8 --power 4":
        "91f94e7e05e08f61f4d2889289b94d45d171d52e6d36ef8088fe674dd81d1c6a",
    "expand --rank 2 --power 8":
        "2fd202872b9d96093567e5ef3765d0c439c9d7fc5497d386d1e4cc655983fc30",
    "expand --rank 1 --power 9":
        "e6401a7ac7abfd206587015834c73e4781ae5ef25d66dfae1e76465d9361b0a9",
    "expand --rank 30 --power 3":
        "613cdac5b40e3729667e58b34a3f0d816982a56f3d104220f3803acd25e772fd",
    # recorded while expand still spelled a RingElement's sorted keys: the
    # top class (length 10) has 4 * 3^8 = 26,244 prefixes, so its prefix
    # joins cross the 4,096-prefix chunk boundary six times
    "expand --rank 2 --power 10":
        "adfcdb7eb6ac18f8c24a1026b6921e5d7a8656fa0ac26e97206ef2356caae9b7",
    # recorded on the int engines, before runs above the decimal gate ran in
    # decimal; both runs are above it
    "scalar --rank 8 --max-order 1300 --format tex":
        "74df2138f318e3c705cd2553c7399f7e78d1b3d75cdcd272d13d15ebf36b0f93",
    "xdecomp --rank 4 --power 1300 --format csv":
        "db51006b78d441ad84f628c5263f43cb1bb0ab18e0400933844d7bc841f427b4",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_output(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[command]


# sha256 of stdout of the fault-injecting self test, which exits 1; recorded
# while the tree oracle was still the distance-table walk count
SELF_TEST_STDOUT = {
    "verify --self-test --max-order 8":
        "fad93c4435939e13b73c2a43d95ae36346b2a9caf67a7e38610bf409f2495665",
    "verify --self-test --rank 3 --max-order 7":
        "68872270d499265010019edc704f0f3f4918b6ad03ba79ccd8c546c9cf306a8f",
}


@pytest.mark.parametrize("command", sorted(SELF_TEST_STDOUT))
def test_self_test_golden_output(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 1
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == SELF_TEST_STDOUT[command]


# sha256 and length of stdout, recorded while every command built its whole
# text and wrote it in one piece
STREAMED_STDOUT = {
    "expand --rank 3 --power 6":
        ("113606bee9fa4808f28a745bcb7ed991b43b81cc71974529f0d0dc24fd898900", 585138),
    "amalg --rank 2 --max-order 200 --format tex":
        ("a02f1d531b1e1555b9c8ab84a542efbd91b4f448cdc8483aeeed385662b0c4a3", 272298),
    "scalar --rank 8 --max-order 1300":
        ("e7293303940d3c4a688c904b43de509611174dfb85af58f62f3db3ea75f035c3", 402354),
    "xdecomp --rank 7 --power 1223 --format json":
        ("2d030980cda49f01989eba3cc0612145e5cdd9a8cdf4fb938754deb89b897ce5", 382821),
}


class _RecordingStdout:
    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("command", sorted(STREAMED_STDOUT))
def test_output_is_written_in_bounded_chunks(monkeypatch, command):
    stdout = _RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(command.split()) == 0
    sizes = [len(text) for text in stdout.writes]
    assert len(sizes) > 1
    assert max(sizes) <= fpmom.words._CHUNK
    data = "".join(stdout.writes).encode("utf-8")
    assert (hashlib.sha256(data).hexdigest(), len(data)) == STREAMED_STDOUT[command]


@pytest.mark.parametrize(
    "command", ["expand --rank 2 --power 10", "amalg --rank 2 --max-order 600"]
)
def test_peak_memory_stays_below_half_the_output(tmp_path, command):
    # the text goes out as it is spelled, so a run never holds all of it
    target = tmp_path / "out"
    tracemalloc.start()
    try:
        assert main([*command.split(), "--output", str(target)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < target.stat().st_size / 2


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_output_file_matches_stdout(tmp_path, command):
    target = tmp_path / "out"
    assert main([*command.split(), "--output", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == GOLDEN_STDOUT[command]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize(
    "command", ["expand --rank 2 --power 6", "scalar --max-order 8", "verify --max-order 4"]
)
def test_output_to_a_full_device_is_a_usage_error(capsys, command):
    code, out, err = run(capsys, *command.split(), "--output", "/dev/full")
    assert code == 2
    assert out == ""
    assert err.endswith("error: cannot write /dev/full: No space left on device\n")


def _stdout_env(env, buffered):
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_closed_stdout_pipe_is_a_usage_error(buffered):
    # the reader stops after 100 bytes of a 585 KB output, more than a pipe holds
    command, env = _fpmom_argv_env("expand", "--rank", "3", "--power", "6")
    env = _stdout_env(env, buffered)
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 2
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    # one line, and nothing more when the interpreter flushes stdout at exit
    assert err == b"error: cannot write stdout: Broken pipe\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_stdout_to_a_full_device_is_a_usage_error(buffered):
    # buffered, the whole output still sits in stdout's buffer when main returns
    command, env = _fpmom_argv_env("scalar", "--max-order", "20")
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            command, stdout=full, stderr=subprocess.PIPE, text=True,
            env=_stdout_env(env, buffered), timeout=60,
        )
    assert proc.returncode == 2
    assert proc.stderr == "error: cannot write stdout: No space left on device\n"


class _FailingStdout(io.StringIO):
    """A stdout whose writes fail as a full device's do; fd None gives it
    no descriptor, as a StringIO has none."""

    def __init__(self, fd):
        super().__init__()
        self.fd = fd

    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def fileno(self):
        return super().fileno() if self.fd is None else self.fd


@pytest.mark.parametrize("fd", [None, 1], ids=["no-descriptor", "descriptor"])
def test_failed_stdout_write_leaves_an_in_process_caller_its_stdout(monkeypatch, fd):
    # the descriptor is pointed at os.devnull only when the interpreter exits
    registered = []
    monkeypatch.setattr(fpmom.cli.atexit, "register", lambda *a: registered.append(a))
    monkeypatch.setattr(sys, "stdout", _FailingStdout(fd))
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert main(["scalar", "--max-order", "20"]) == 2
    assert sys.stderr.getvalue() == "error: cannot write stdout: No space left on device\n"
    assert registered == ([] if fd is None else [(fpmom.cli._point_at_devnull, fd)])


def test_failed_write_mid_run_leaves_the_callers_decimal_context(monkeypatch):
    # a scalar above the decimal gate stops between two chunks; the exact
    # context was current only while the first one was made
    written = []

    class FailingSecondWrite(_FailingStdout):
        def write(self, text):
            if written:
                super().write(text)
            written.append(text)

    monkeypatch.setattr(sys, "stdout", FailingSecondWrite(None))
    monkeypatch.setattr(sys, "stderr", io.StringIO())
    assert fpmom.recurrence._exact_decimal(1100, 8, fpmom.recurrence._SCALAR_GATE)
    with decimal.localcontext() as caller:
        caller.prec = 7
        assert main(["scalar", "--rank", "8", "--max-order", "1100"]) == 2
        assert decimal.getcontext() is caller and caller.prec == 7
    assert len(written) == 1
    assert sys.stderr.getvalue() == "error: cannot write stdout: No space left on device\n"


# Exit code, stdout and stderr of runs that argparse answers, recorded while
# argparse parsed every argv; help wraps at the width COLUMNS sets.
ARGPARSE_ANSWERS = {
    "scalar --rank 0 --max-order 4": (
        2,
        "",
        "usage: fpmom scalar [-h] [--rank RANK] [--output OUTPUT] --max-order MAX_ORDER\n"
        "                    [--format {json,csv,tex}]\n"
        "fpmom scalar: error: argument --rank: must be >= 1, got 0\n",
    ),
    "scalar --rank x --max-order 2": (
        2,
        "",
        "usage: fpmom scalar [-h] [--rank RANK] [--output OUTPUT] --max-order MAX_ORDER\n"
        "                    [--format {json,csv,tex}]\n"
        "fpmom scalar: error: argument --rank: invalid int value: 'x'\n",
    ),
    "amalg --rank 1 --max-order 4": (
        2,
        "",
        "usage: fpmom amalg [-h] [--rank RANK] [--output OUTPUT] --max-order MAX_ORDER\n"
        "                   [--format {json,csv,tex}]\n"
        "fpmom amalg: error: argument --rank: must be >= 2, got 1\n",
    ),
    "nonsense": (
        2,
        "",
        "usage: fpmom [-h] {scalar,amalg,xdecomp,expand,verify} ...\n"
        "fpmom: error: argument command: invalid choice: 'nonsense' "
        "(choose from 'scalar', 'amalg', 'xdecomp', 'expand', 'verify')\n",
    ),
    "": (
        2,
        "",
        "usage: fpmom [-h] {scalar,amalg,xdecomp,expand,verify} ...\n"
        "fpmom: error: the following arguments are required: command\n",
    ),
    "verify --oracle tree --support-cap 5": (
        2,
        "",
        "error: --support-cap has no effect with --oracle tree\n",
    ),
    "amalg --help": (
        0,
        "usage: fpmom amalg [-h] [--rank RANK] [--output OUTPUT] --max-order MAX_ORDER\n"
        "                   [--format {json,csv,tex}]\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n"
        "  --rank RANK           number of generators (default 2)\n"
        "  --output OUTPUT       write data to this file instead of stdout\n"
        "  --max-order MAX_ORDER\n"
        "  --format {json,csv,tex}\n",
        "",
    ),
}


@pytest.mark.parametrize("command", list(ARGPARSE_ANSWERS))
def test_help_and_errors_keep_their_bytes(capsys, monkeypatch, command):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(capsys, *command.split()) == ARGPARSE_ANSWERS[command]


# one argv of each job shape the benchmark runs
BENCH_SHAPES = [
    "amalg --rank 3 --max-order 120 --format tex",
    "scalar --rank 5 --max-order 900 --format csv",
    "xdecomp --rank 2 --power 700 --format json",
    "verify --rank 8 --max-order 900 --oracle tree",
    "verify --rank 2 --max-order 7 --oracle both",
    "expand --rank 3 --power 5",
]


@pytest.mark.parametrize(
    "command", sorted(GOLDEN_STDOUT) + sorted(SELF_TEST_STDOUT) + BENCH_SHAPES
)
def test_real_traffic_skips_argparse(command):
    argv = command.split()
    args = _read_canonical(argv)
    assert args is not None
    assert vars(args) == vars(build_parser().parse_args(argv))


@pytest.mark.parametrize(
    "command",
    [
        "amalg --max-order 4 -h",
        "amalg --rank=3 --max-order 4",
        "amalg --max 4",
        "amalg --rank 3 --rank 3 --max-order 4",
        "amalg --rank x --max-order 4",
        "amalg --rank 1 --max-order 4",
        "amalg --format xml --max-order 4",
        "amalg --rank 3",
        "amalg --max-order",
        "expand --power -1",
        "amalg --max-order 4 --output -",
        "verify --self-test --self-test",
        "scalar --max-order 4 --support-cap 5",
        "amalg --max-order 4 extra",
        "nonsense --max-order 4",
        "",
    ],
)
def test_reader_leaves_other_shapes_to_argparse(command):
    assert _read_canonical(command.split()) is None


def _argv_mix(count, seed):
    """argv lists at and near the canonical shape: a command with some of
    its flags and fitting values, then up to two edits among --flag=value,
    an abbreviation, a repeat, a missing value, a negative number, a bad
    int or choice, help, another command's flag, junk and a dropped flag."""
    rng = random.Random(seed)
    all_flags = sorted({entry[0] for _, entries in _COMMANDS.values() for entry in entries})

    def fitting(kind):
        if kind is bool:
            return []
        return [rng.choice(kind) if isinstance(kind, tuple) else rng.choice(["1", "3", "12"])]

    edits = [
        lambda argv, flag, kind: argv + [f"{flag}={rng.choice(['3', 'x', 'json', ''])}"],
        lambda argv, flag, kind: argv + [flag[: rng.randrange(3, len(flag))], *fitting(kind)],
        lambda argv, flag, kind: argv + [flag, *fitting(kind)],  # a repeat, or a new flag
        lambda argv, flag, kind: argv + [flag],
        lambda argv, flag, kind: argv + [flag, rng.choice(["-1", "-3", "-x", "--"])],
        lambda argv, flag, kind: argv + [flag, rng.choice(["0", "x", "2.5", "", " 4", "ring"])],
        lambda argv, flag, kind: argv + [rng.choice(["-h", "--help"])],
        lambda argv, flag, kind: argv + [rng.choice(all_flags), rng.choice(["3", "json"])],
        lambda argv, flag, kind: argv + [rng.choice(["junk", "--", "scalar"])],
        lambda argv, flag, kind: [rng.choice(["nonsense", "-h", "--rank"])] + argv[1:],
        lambda argv, flag, kind: argv[:1] + argv[3:],  # drops the first flag
    ]
    for _ in range(count):
        command = rng.choice(list(_COMMANDS))
        flags = list(_COMMANDS[command][1])
        rng.shuffle(flags)
        argv = [command]
        for flag, kind, _, required, _ in flags:
            if required or rng.random() < 0.5:
                argv += [flag, *fitting(kind)]
        for _ in range(rng.choice([0, 0, 1, 2])):
            flag, kind = rng.choice(flags)[:2]
            argv = rng.choice(edits)(argv, flag, kind)
        yield argv


def test_reader_agrees_with_argparse():
    parser = build_parser()
    read = 0
    for argv in _argv_mix(1500, seed=20240517):
        args = _read_canonical(argv)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                expected = vars(parser.parse_args(argv))
            except SystemExit:
                expected = None
        if args is not None:
            read += 1
            assert vars(args) == expected, argv
    assert read > 300  # the mix exercises the reader, not only the fallback


@pytest.mark.parametrize(
    "argv",
    [["amalg", "--rank", "2", "--max-order", "4"], ["amalg", "--rank=2", "--max-order", "4"]],
    ids=["canonical", "argparse"],
)
def test_main_calls_the_rebound_command(capsys, monkeypatch, argv):
    # the bench tracer rebinds cmd_* on the module; main must call the rebound one
    seen = []
    monkeypatch.setattr(fpmom.cli, "cmd_amalg", lambda args: seen.append(args.max_order) or 7)
    assert main(argv) == 7
    assert seen == [4]
