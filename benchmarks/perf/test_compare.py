"""The noise-aware compare on hand-made result pairs."""

from __future__ import annotations

import json

import pytest
from compare import compare, main, quartiles, spread, verdict

REGISTRY = {
    "end_to_end": [
        {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
    "per_layer": [{"name": "nn.forward_s", "unit": "s", "better": "lower"}],
}


def result(**metrics):
    return {
        "workloads": {
            "w": {
                "metrics": {
                    name: {"unit": "s", "values": values}
                    for name, values in metrics.items()
                }
            }
        }
    }


def test_quartiles_follow_statistics_quantiles():
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(1.0)
    assert spread([7.0]) == 0.0


STEADY = [10.0, 10.1, 9.9, 10.05, 9.95]


@pytest.mark.parametrize(
    "old, new, better, expected",
    [
        (STEADY, [v * 1.02 for v in STEADY], "lower", "ok"),
        (STEADY, [v * 1.2 for v in STEADY], "lower", "worse"),
        (STEADY, [v * 0.8 for v in STEADY], "higher", "worse"),
        (STEADY, [v * 1.2 for v in STEADY], "higher", "ok"),
        # A wide spread on either side hides a change of the bound's size.
        (STEADY, [8.0, 12.0, 10.0, 14.0, 7.0], "lower", "unresolved"),
        ([8.0, 12.0, 10.0, 14.0, 7.0], STEADY, "lower", "unresolved"),
        # ... unless every new sample beats every old one.
        ([8.0, 12.0, 10.0, 14.0, 9.0], [5.0, 6.0, 4.0, 7.0, 5.5], "lower", "ok"),
    ],
)
def test_verdicts(old, new, better, expected):
    assert verdict(old, new, better, 0.1) == expected


def test_layer_metrics_have_no_verdict():
    assert verdict(STEADY, [v * 3 for v in STEADY], "lower", None) == "info"


def test_compare_pairs_metrics_present_on_both_sides():
    old = result(wall_s=STEADY, rate=STEADY, **{"nn.forward_s": [1.0]})
    new = result(wall_s=[v * 1.5 for v in STEADY], **{"nn.forward_s": [2.0]})
    new["workloads"]["other"] = {"metrics": {"wall_s": {"values": [1.0]}}}
    rows = {r.metric: r for r in compare(old, new, REGISTRY)}
    assert set(rows) == {"wall_s", "nn.forward_s"}
    assert rows["wall_s"].verdict == "worse"
    assert rows["wall_s"].change == pytest.approx(0.5)
    assert rows["wall_s"].old == pytest.approx((9.925, 10.0, 10.075, 5))
    assert rows["nn.forward_s"].verdict == "info"


def test_main_exit_status_flags_regressions(tmp_path, capsys):
    old, same, slow = (tmp_path / f"{n}.json" for n in ("old", "same", "slow"))
    old.write_text(json.dumps(result(wall_s=STEADY)))
    same.write_text(json.dumps(result(wall_s=STEADY)))
    slow.write_text(json.dumps(result(wall_s=[v * 2 for v in STEADY])))
    assert main(old, same, REGISTRY) == 0
    assert main(old, slow, REGISTRY) == 1
    assert "worse" in capsys.readouterr().out
