"""Self-checks of the benchmark harness.

Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py -q

The reference test runs each workload for one iteration against a
copy of ``references.json`` whose digests for that workload are wrong,
so an output check that passes vacuously would fail here.
"""

import json
import os
import subprocess
import sys

import pytest

import run
import tracer
import workloads as wl


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_wrong_reference_makes_fail_frac_positive(workload, tmp_path):
    with open(os.path.join(run.HERE, "references.json"), encoding="utf-8") as handle:
        refs = json.load(handle)
    outputs = refs[workload]["outputs"]
    for key in outputs:
        outputs[key] = "0" * 16
    wrong = tmp_path / "references.json"
    wrong.write_text(json.dumps(refs), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", "--references", str(wrong)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 1
    assert result["correct"] is False
    assert result["attempted"] >= 1
    assert result["failed"] == result["attempted"]


def test_self_time_subtracts_children_only():
    names = ["outer", tracer.EXP_APPLY, tracer.APPLY]
    spans = [
        [0, 0, 100, -1],
        [1, 10, 60, 0],
        [2, 20, 30, 1, 6, 3],
        [2, 40, 45, 1, 4, 1],
        [2, 70, 80, 0, 10, 0],
    ]
    rows = tracer.with_self_time(names, spans)
    assert [r[3] for r in rows] == [40, 35, 10, 5, 10]
    assert sum(r[3] for r in rows) == 100  # self times partition the root
    metrics = tracer.layer_metrics(rows)
    assert metrics["operators.apply.calls"] == 3
    assert metrics["operators.apply.pairs"] == 20
    assert metrics["operators.apply.yield"] == 4 / 20
    assert metrics["fourier.exp_apply.series_len"] == 2


def test_tail_latency_keeps_ten_samples_beyond():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100.0)
    assert run.tail_latency(list(range(20))) == (19, 100.0)  # never below the median
    samples = list(range(1, 41))
    value, pct = run.tail_latency(samples)
    assert sum(1 for s in samples if s > value) == 10
    assert pct == 75.0
