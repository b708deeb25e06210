"""Smoke test of the benchmark itself at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

(4, 2) runs the reduced regime with one telescoping segment of size 3;
(4, 3) runs the full-antenna regime.
"""

import json
import types

import pytest

import run
import spans

TINY = {
    "tiny4_2": run.Workload("tiny4_2", 4, 2, 1, "gf"),
    "tiny4_3": run.Workload("tiny4_3", 4, 3, 1, "gf"),
}
COUNTS = ("delivery.blocks", "linalg.zf_calls", "channel.rank_calls", "linalg.zf_unique_ratio")

# Hand-derived per-trial counts. (4, 3): 4 blocks, one ZF solve per
# non-owner in both schedule and decode (4*3*2), each (user, group) beam
# built twice; 4 rank checks per draw. (4, 2): 4 rows of 3 transmissions
# serving 2 users each (12*2*2 solves) over the 6 pairs' 12 beams; 6
# rank checks per draw.
EXPECTED = {
    "tiny4_2": {"delivery.blocks": 12, "linalg.zf_calls": 48, "linalg.zf_unique_ratio": 0.25},
    "tiny4_3": {"delivery.blocks": 4, "linalg.zf_calls": 24, "linalg.zf_unique_ratio": 0.5},
}
SUBSETS = {"tiny4_2": 6, "tiny4_3": 4}


@pytest.fixture(scope="module")
def ms():
    return run.load_mscache()


@pytest.mark.parametrize("name", sorted(TINY))
def test_traced_counts_repeat_and_match_hand_counts(ms, name):
    wl = TINY[name]
    first, run1 = run.layers(ms, wl, seed=3, seconds=0.3)
    second, run2 = run.layers(ms, wl, seed=3, seconds=0.3)
    assert run1.failed == run2.failed == 0
    assert {k: first[k] for k in COUNTS} == {k: second[k] for k in COUNTS}
    for key, want in EXPECTED[name].items():
        assert first[key] == want, key
    assert first["channel.rank_calls"] == SUBSETS[name] * first["channel.draws"]
    assert first["channel.decode_err_max"] == 0
    targets = spans.module_targets(ms) + spans.field_targets(run1.field)
    assert not spans.is_traced(targets)


@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_printed_with_unit(ms, capsys, trace):
    units = run.declared_units(trace)
    measure = run.layers if trace else run.end_to_end
    metrics, r = measure(ms, TINY["tiny4_2"], 0, 0.3)
    run.emit(metrics, units, r)
    lines = capsys.readouterr().out.splitlines()
    for name, unit in units.items():
        assert any(ln.startswith(f"{name} = ") and ln.endswith(f" {unit}") for ln in lines), name
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert {n: m["unit"] for n, m in result["metrics"].items()} == units


def test_missing_name_is_skipped_and_wrappers_are_removed():
    mod = types.SimpleNamespace(rank=lambda a: 1)
    targets = [
        (mod, "rank", "channel.rank", None),
        (mod, "zero_forcing_vector", "delivery.zero_forcing_vector", spans.zf_key),
    ]
    tracer = spans.Tracer()
    with tracer.installed(targets):
        assert spans.is_traced(targets)
        tracer.span("outer", mod.rank, None)
    assert not spans.is_traced(targets)
    assert not hasattr(mod, "zero_forcing_vector")
    rows = tracer.by_trial()[None]
    assert sorted(r[0] for r in rows) == ["channel.rank", "outer"]
    by_name = {r[0]: r for r in rows}
    outer, inner = by_name["outer"], by_name["channel.rank"]
    assert outer[2] == pytest.approx(outer[1] - inner[1])
