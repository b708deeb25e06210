"""Command-line interface: goldens, formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from mscache import CSV_HEADER, MetricsReport
from mscache.cli import main

TABLE_4_2 = """\
N=4 K=4 L=2 demand=(1,2,3,4) T=3/2
row 1 (owner user 1)
  t 1 dur 1/8 :: user 2 <- B1^1 | user 3 <- C1^1+C1^2 | user 1* <- B1^1+C1^1+C1^2
  t 2 dur 1/8 :: user 3 <- C1^2 | user 4 <- -D1^1 | user 1* <- C1^2-D1^1
  t 3 dur 1/8 :: user 2 <- B1^2 | user 4 <- D1^1+D1^2 | user 1* <- B1^2+D1^1+D1^2
row 2 (owner user 2)
  t 1 dur 1/8 :: user 1 <- A2^1 | user 3 <- C2^1+C2^2 | user 2* <- A2^1+C2^1+C2^2
  t 2 dur 1/8 :: user 3 <- C2^2 | user 4 <- -D2^1 | user 2* <- C2^2-D2^1
  t 3 dur 1/8 :: user 1 <- A2^2 | user 4 <- D2^1+D2^2 | user 2* <- A2^2+D2^1+D2^2
row 3 (owner user 3)
  t 1 dur 1/8 :: user 1 <- A3^1 | user 2 <- B3^1+B3^2 | user 3* <- A3^1+B3^1+B3^2
  t 2 dur 1/8 :: user 2 <- B3^2 | user 4 <- -D3^1 | user 3* <- B3^2-D3^1
  t 3 dur 1/8 :: user 1 <- A3^2 | user 4 <- D3^1+D3^2 | user 3* <- A3^2+D3^1+D3^2
row 4 (owner user 4)
  t 1 dur 1/8 :: user 1 <- A4^1 | user 2 <- B4^1+B4^2 | user 4* <- A4^1+B4^1+B4^2
  t 2 dur 1/8 :: user 2 <- B4^2 | user 3 <- -C4^1 | user 4* <- B4^2-C4^1
  t 3 dur 1/8 :: user 1 <- A4^2 | user 3 <- C4^1+C4^2 | user 4* <- A4^2+C4^1+C4^2
"""

SWEEP_4_5 = """\
K,N,L,M_num,M_den,achieved_num,achieved_den,converse_num,converse_den,uncoded_num,uncoded_den,decode_ok,seed
4,4,1,1,4,3,1,3,1,15,4,true,0
4,4,2,1,4,3,2,3,2,15,8,true,0
4,4,3,1,4,1,1,1,1,5,4,true,0
5,5,1,1,5,4,1,4,1,24,5,true,0
5,5,2,1,5,2,1,2,1,12,5,true,0
5,5,3,1,5,4,3,4,3,8,5,true,0
5,5,4,1,5,1,1,1,1,6,5,true,0
"""


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_table_golden(capsys):
    code, out, err = _run(capsys, ["table", "--N", "4", "--L", "2"])
    assert code == 0 and err == ""
    assert out == TABLE_4_2


def test_table_demand_flag(capsys):
    code, out, _ = _run(capsys, ["table", "--N", "4", "--L", "3", "--demand", "2,1,4,3"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "N=4 K=4 L=3 demand=(2,1,4,3) T=1"
    assert lines[2] == (
        "  t 1 dur 1/4 :: user 2 <- A1 | user 3 <- D1 | user 4 <- C1 "
        "| user 1* <- A1+D1+C1"
    )


def test_bounds_golden(capsys):
    code, out, _ = _run(capsys, ["bounds", "--N", "4", "--L", "2"])
    assert code == 0
    assert out == (
        "K=4 N=4 L=2 M=1/4\n"
        "converse_T = 3/2\n"
        "achieved_T = 3/2\n"
        "uncoded_T  = 15/8\n"
    )


def test_bounds_json(capsys):
    code, out, _ = _run(capsys, ["bounds", "--N", "4", "--L", "2", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "K": 4, "N": 4, "L": 2, "M": "1/4",
        "converse_T": "3/2", "achieved_T": "3/2", "uncoded_T": "15/8",
    }


def test_bounds_unsupported_regime(capsys):
    code, out, _ = _run(capsys, ["bounds", "--N", "6", "--L", "3"])
    assert code == 0
    assert "achieved_T = unsupported-regime" in out
    assert "converse_T = 5/3" in out and "uncoded_T  = 35/18" in out


def test_verify_table_golden(capsys):
    code, out, err = _run(capsys, ["verify", "--N", "4", "--L", "3", "--trials", "2"])
    assert code == 0 and err == ""
    assert out == (
        "trial  K  N  L  M     achieved  converse  uncoded  decode_ok  seed\n"
        "0      4  4  3  1/4   1         1         5/4      true       0\n"
        "1      4  4  3  1/4   1         1         5/4      true       1\n"
    )


def test_verify_csv_and_json(capsys):
    code, out, _ = _run(capsys, ["verify", "--N", "4", "--L", "2", "--trials", "1", "--format", "csv"])
    assert code == 0
    assert out.splitlines()[1] == "4,4,2,1,4,3,2,3,2,15,8,true,0"
    code, out, _ = _run(capsys, ["verify", "--N", "4", "--L", "2", "--trials", "2", "--format", "json"])
    assert code == 0
    rows = json.loads(out)
    assert [r["seed"] for r in rows] == [0, 1]
    assert all(r["decode_ok"] and r["achieved_T"] == "3/2" for r in rows)


def test_verify_complex_mode(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--N", "4", "--L", "2", "--trials", "2", "--mode", "complex", "--format", "csv"],
    )
    assert code == 0
    assert all(row.endswith("true," + row.split(",")[-1]) for row in out.splitlines()[1:])


def test_verify_seed_and_demand_flags(capsys):
    code, out, _ = _run(
        capsys,
        ["verify", "--N", "5", "--L", "4", "--trials", "1", "--seed", "42",
         "--demand", "3,1,5,2,4", "--format", "csv"],
    )
    assert code == 0
    assert out.splitlines()[1].endswith(",true,42")


def test_sweep_golden(capsys):
    code, out, err = _run(capsys, ["sweep", "--N", "4..5", "--trials", "1"])
    assert code == 0 and err == ""
    assert out == SWEEP_4_5


def test_sweep_marks_unsupported_rows(capsys):
    code, out, _ = _run(capsys, ["sweep", "--N", "6", "--trials", "1"])
    assert code == 0
    lines = out.splitlines()
    assert "6,6,3,1,6,,,5,3,35,18,unsupported-regime,0" in lines
    supported = [ln for ln in lines[1:] if ln.split(",")[-2] == "true"]
    assert len(supported) == 4  # L in {1, 2, 4, 5}


def test_sweep_empty_range_is_header_only(capsys):
    code, out, _ = _run(capsys, ["sweep", "--N", "5..4", "--trials", "1"])
    assert code == 0
    assert out.splitlines() == [
        "K,N,L,M_num,M_den,achieved_num,achieved_den,converse_num,"
        "converse_den,uncoded_num,uncoded_den,decode_ok,seed"
    ]


def test_sweep_out_file(tmp_path, capsys):
    dest = tmp_path / "rows.csv"
    code, out, _ = _run(capsys, ["sweep", "--N", "4..5", "--trials", "1", "--out", str(dest)])
    assert code == 0
    assert out == ""
    assert dest.read_text() == SWEEP_4_5


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    for argv in (
        ["verify", "--N", "4", "--trials", "1", "--out", str(tmp_path / "missing" / "x.csv")],
        ["table", "--N", "4", "--L", "2", "--out", str(tmp_path)],  # a directory
    ):
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: cannot write --out ") and err.count("\n") == 1, err


def test_sweep_refuses_k_and_l(capsys):
    for flags in (["--K", "2"], ["--L", "1"], ["--K", "2", "--L", "1"]):
        code, out, err = _run(capsys, ["sweep", "--N", "4", *flags])
        assert code == 2, flags
        assert out == ""
        assert err == "error: sweep runs K = N and every L from 1 to N-1; it takes no --K or --L\n"


def test_negative_seed_is_a_usage_error(capsys):
    # Named as given, not as the library's seed 2s + 1 that trial s draws.
    for argv in (["verify", "--N", "5", "--L", "2"], ["sweep", "--N", "4"]):
        code, out, err = _run(capsys, [*argv, "--seed", "-3"])
        assert code == 2, argv
        assert out == ""
        assert err == "error: seed -3 is not a non-negative integer\n"


def test_byte_identical_reruns(capsys):
    argv = ["sweep", "--N", "4..6", "--trials", "2"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second
    argv = ["verify", "--N", "5", "--L", "2", "--trials", "3", "--mode", "complex"]
    _, first, _ = _run(capsys, argv)
    _, second, _ = _run(capsys, argv)
    assert first == second


def test_rejects_too_many_antennas(capsys):
    code, out, err = _run(capsys, ["verify", "--N", "4", "--L", "4", "--trials", "1"])
    assert code == 2
    assert err == "error: L=4 exceeds the N-1=3 usable antennas\n"


def test_rejects_duplicate_demand(capsys):
    code, _, err = _run(capsys, ["verify", "--N", "4", "--L", "3", "--trials", "1",
                                 "--demand", "1,1,2,3"])
    assert code == 2
    assert err.startswith("error:")


def test_prime_env_override(monkeypatch, capsys):
    monkeypatch.setenv("MSCACHE_PRIME", "4")
    code, _, err = _run(capsys, ["verify", "--N", "2", "--L", "1", "--trials", "1"])
    assert code == 2 and "not prime" in err
    # an explicit flag beats the environment
    code, _, _ = _run(capsys, ["verify", "--N", "2", "--L", "1", "--trials", "1",
                               "--prime", "65537"])
    assert code == 0
    monkeypatch.setenv("MSCACHE_PRIME", "7")
    code, _, _ = _run(capsys, ["verify", "--N", "2", "--L", "1", "--trials", "1"])
    assert code == 0


def test_verify_reports_first_failed_invariant(monkeypatch, capsys):
    import mscache.cli as cli

    bad = MetricsReport(
        K=4, N=4, L=3, M=Fraction(1, 4),
        achieved_T=Fraction(1), converse_T=Fraction(1),
        uncoded_T=Fraction(5, 4), decode_ok=False, mode="gf", seed=0,
    )
    monkeypatch.setattr(cli, "_run_trial", lambda cfg, field, args, seed: bad)
    code, out, err = _run(capsys, ["verify", "--N", "4", "--L", "3", "--trials", "1"])
    assert code == 1
    assert err == "FAIL trial 0: decode failed\n"
    assert "false" in out  # the report row still prints


def test_sweep_runs_every_trial_and_keeps_the_schema(monkeypatch, capsys):
    import dataclasses

    import mscache.cli as cli

    calls = []
    real = cli._run_trial

    def spy(cfg, field, args, seed):
        calls.append((cfg.L, seed))
        rep = real(cfg, field, args, seed)
        # The middle trial of the L = 2 cell fails to decode.
        return dataclasses.replace(rep, decode_ok=False) if (cfg.L, seed) == (2, 8) else rep

    monkeypatch.setattr(cli, "_run_trial", spy)
    code, out, err = _run(capsys, ["sweep", "--N", "4", "--trials", "3", "--seed", "7"])
    assert calls == [(L, s) for L in (1, 2, 3) for s in (7, 8, 9)]
    assert code == 1 and err == "FAIL N=4 L=2 seed=8: decode failed\n"
    lines = out.splitlines()
    assert lines[0] == CSV_HEADER
    assert [ln.split(",") for ln in lines[1:]] == [
        ["4", "4", "1", "1", "4", "3", "1", "3", "1", "15", "4", "true", "7"],
        ["4", "4", "2", "1", "4", "3", "2", "3", "2", "15", "8", "false", "7"],
        ["4", "4", "3", "1", "4", "1", "1", "1", "1", "5", "4", "true", "7"],
    ]
    calls.clear()
    code, _, _ = _run(capsys, ["sweep", "--N", "4", "--seed", "7"])
    assert calls == [(1, 7), (2, 7), (3, 7)]  # one trial per cell by default


def test_console_entry_point():
    # The child imports this checkout's package, not an installed copy.
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "mscache.cli", "bounds", "--N", "5", "--L", "4"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "uncoded_T  = 6/5" in proc.stdout


def test_rejects_nonpositive_sizes_and_trials(capsys):
    for argv in (
        ["bounds", "--N", "4", "--L", "0"],
        ["bounds", "--N", "0"],
        ["bounds", "--N", "4", "--L", "-1"],
        ["bounds", "--N", "4", "--K", "5"],
        ["verify", "--trials", "0"],
        ["sweep", "--trials", "0"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, err


def test_bounds_unsupported_when_k_differs_from_n(capsys):
    code, out, _ = _run(capsys, ["bounds", "--N", "4", "--K", "2"])
    assert code == 0
    assert "achieved_T = unsupported-regime" in out
    assert "uncoded_T  = 5/8" in out


def test_verify_at_scale_in_both_regimes(capsys):
    # A full-antenna trial at N = 40 and a reduced one past the N <= 9
    # the other suites cover; correctness only, no timing.
    for argv in (
        ["verify", "--N", "40", "--trials", "1", "--format", "json"],
        ["verify", "--N", "21", "--L", "4", "--trials", "1", "--format", "json"],
    ):
        code, out, err = _run(capsys, argv)
        assert code == 0 and err == "", argv
        (row,) = json.loads(out)
        assert row["decode_ok"] is True
        assert row["achieved_T"] == row["converse_T"]
