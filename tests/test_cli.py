import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import fpmom
import fpmom.oracle
from fpmom.cli import main
from fpmom.ring import iter_powers


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


def test_expand_cap_via_flag(capsys):
    code, out, err = run(
        capsys, "expand", "--rank", "2", "--power", "6", "--support-cap", "50"
    )
    assert code == 3
    assert out == ""
    assert "cap" in err


def test_expand_cap_via_env(capsys, monkeypatch):
    monkeypatch.setenv("FPMOM_SUPPORT_CAP", "10")
    code, _, err = run(capsys, "expand", "--rank", "2", "--power", "5")
    assert code == 3
    assert "cap" in err


def test_flag_overrides_env(capsys, monkeypatch):
    monkeypatch.setenv("FPMOM_SUPPORT_CAP", "10")
    code, out, _ = run(
        capsys, "expand", "--rank", "2", "--power", "3", "--support-cap", "1000"
    )
    assert code == 0
    assert len(json.loads(out)["terms"]) == 40


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


def test_bad_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("FPMOM_SUPPORT_CAP", "lots")
    code, _, err = run(capsys, "expand", "--rank", "2", "--power", "2")
    assert code == 2
    assert "FPMOM_SUPPORT_CAP" in err


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

    def counting_iter_powers(*args, **kwargs):
        calls.append(args)
        return iter_powers(*args, **kwargs)

    monkeypatch.setattr(fpmom.oracle, "iter_powers", counting_iter_powers)
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
@pytest.mark.parametrize("where", ["missing/out.json", "."], ids=["missing-parent", "directory"])
def test_unwritable_output_is_a_usage_error(tmp_path, capsys, command, where):
    # a missing parent directory, or a path that is a directory
    target = tmp_path / where
    code, out, err = run(capsys, *command, "--output", str(target))
    assert code == 2
    assert out == ""
    assert f"error: cannot write {target}" in err


def test_byte_identical_reruns(capsys):
    first = run(capsys, "amalg", "--rank", "2", "--max-order", "8")
    second = run(capsys, "amalg", "--rank", "2", "--max-order", "8")
    assert first == second


def _fpmom_process(*argv, timeout=None):
    """Run ``python -m fpmom`` on the copy of fpmom these tests import."""
    src = str(Path(fpmom.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "fpmom", *argv],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


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


def test_verify_ring_only_names_ring_orders(capsys):
    code, out, _ = run(
        capsys, "verify", "--oracle", "ring", "--max-order", "20", "--ring-max-order", "3"
    )
    assert code == 0
    subjects = [json.loads(line)["subject"] for line in out.strip().split("\n")]
    assert [s.split("orders ")[1] for s in subjects] == ["1..3)"] * 3


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
    "verify --rank 3 --max-order 5 --oracle ring":
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
    "scalar --rank 2 --max-order 200 --format csv":
        "96878f3a8c54aeaf40cfb00d838dc007de62b18a1493d5ec7f2f128d980214a2",
    "scalar --rank 2 --max-order 200 --format tex":
        "ffb94caff3e50d6a32de764bf5658c35b39fc1ed685625bf5cf6c0691bf9b3b0",
    "verify --rank 8 --max-order 6":
        "b6b587eec2c65475df2eaa65fdefd8d46a308de9b04b55d291c51aab8cb96698",
}


@pytest.mark.parametrize("command", sorted(GOLDEN_STDOUT))
def test_golden_output(capsys, command):
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN_STDOUT[command]
