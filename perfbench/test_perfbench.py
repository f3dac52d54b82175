"""Tests of the benchmark itself, on the quick "smoke" workload.

    python3 -m pytest perfbench -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import spans  # noqa: E402


def _run_smoke(seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "smoke", "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_is_emitted(trace, section):
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    result = _run_smoke(5, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: v["unit"] for name, v in result["metrics"].items()} == want


def test_traced_counts_repeat_across_seeds():
    counts = []
    for seed in (5, 6):
        metrics = _run_smoke(seed, 1)["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["catalog.calls"] == 1
    assert counts[0]["catalog.elements"] == counts[0]["permcore.close_group_elements"] == 120
    assert counts[0]["permcore.ids_of_calls"] > 0


def test_altered_golden_raises_error_rate():
    golden = json.loads(run.GOLDEN.read_text())
    golden["verify lemma3"]["stdout"] = golden["verify lemma3"]["stdout"].replace(
        '"pass"', '"fail"')
    golden["mcs --group name:sym5"]["exit"] = 1
    result, details = run.measure("smoke", 5, 0, False, golden)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] == 2
    assert details["failed_commands"] == ["mcs --group name:sym5", "verify lemma3"]


def _span(name, start, end, parent, count=0, label=None, rss=(0, 0)):
    layer = name.split(".")[0]
    return [name, layer, start, end, parent, 0, count, label, rss[0], rss[1]]


def test_self_time_on_synthetic_nested_spans():
    synthetic = [
        _span("cli.main", 0.0, 10.0, -1),                                        # 0
        _span("autgrp.automorphism_group", 1.0, 7.0, 0, 1440, "sym6", (100, 612)),
        _span("permcore.close_group", 2.0, 4.0, 1, 720, rss=(100, 356)),          # 2
        _span("permcore.FiniteGroup.ids_of", 2.5, 3.0, 2, 50),
        _span("permcore.FiniteGroup.cayley", 5.0, 6.0, 1, rss=(356, 612)),        # 4
        _span("permcore.close_group", 8.0, 9.0, 0, 6),
        _span("catalog.resolve", 10.0, 14.0, -1, 20160),                          # 6
        _span("catalog.extended_aut_psl34", 11.0, 13.0, 6, 241920),
        _span("permcore.close_group", 11.5, 12.5, 7, 241920),                     # 8
    ]
    self_s = spans.self_times(synthetic)
    assert self_s["cli"] == pytest.approx(10 - 6 - 1)
    assert self_s["autgrp"] == pytest.approx(6 - 2 - 1)
    assert self_s["permcore"] == pytest.approx(2 + 1 + 1 + 1)
    assert self_s["catalog"] == pytest.approx(4 - 1)
    assert sum(self_s.values()) == pytest.approx(10 + 4)

    m = {name: value for name, (value, unit) in spans.derive_metrics(synthetic).items()}
    assert m["cli.self_s"] == pytest.approx(4 - 1)
    assert m["autgrp.self_s"] == pytest.approx(3)
    assert m["permcore.self_s"] == pytest.approx(5)
    assert m["permcore.close_group_s"] == pytest.approx(2 + 1 + 1)
    assert m["permcore.close_group_elements"] == 720 + 6 + 241920
    assert m["permcore.ids_of_s"] == pytest.approx(0.5)
    assert (m["permcore.ids_of_calls"], m["permcore.ids_of_rows"]) == (1, 50)
    assert m["permcore.rss_growth_mb"] == pytest.approx(512 / 1024)
    assert m["autgrp.search_s"] == m["autgrp.search_s.sym6"] == pytest.approx(6)
    assert m["autgrp.search_s.alt6"] == 0
    assert m["autgrp.search_rss_growth_mb"] == pytest.approx(512 / 1024)
    assert m["autgrp.aut_order_sum"] == 1440
    # the nested catalog call is inside the outer one: counted once
    assert (m["catalog.build_s"], m["catalog.calls"], m["catalog.elements"]) == (4, 1, 20160)


def _command(wall, speed):
    return {"wall_s": wall, "cpu_s": wall, "probe": {"speed": speed}}


def test_scaled_pass_time_takes_per_command_medians():
    passes = [
        {"commands": [_command(2.0, 1.0), _command(1.0, 1.0)]},
        {"commands": [_command(3.0, 0.5), _command(4.0, 0.5)]},   # a slow spell
        {"commands": [_command(2.2, 1.0), _command(0.9, 1.0)]},
    ]
    # command 0: median of 2.0, 1.5, 2.2; command 1: median of 1.0, 2.0, 0.9
    assert run.scaled_pass_time(passes, "wall_s") == pytest.approx(2.0 + 1.0)
    # of two passes the lower one: 1.5 and 1.0
    assert run.scaled_pass_time(passes[:2], "wall_s") == pytest.approx(1.5 + 1.0)
    assert run.scaled_pass_time(passes[:1], "cpu_s") == pytest.approx(3.0)
