"""Self-test of the benchmark at toy size.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Named by the benchmark's definition; the last two are printed beside the
# BENCHMARK.json metrics because they can be 0.
PRINTED_E2E = ("setup_s", "throughput_per_s", "latency_p50_ms", "latency_tail_ms", "peak_rss_mb", "fallback_frac", "failed_frac")


def bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    units = {}
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and not isinstance(got["value"], bool)
        units[m["name"]] = m["unit"]
    if not trace:
        units.update(fallback_frac="ratio", failed_frac="ratio")
        assert set(PRINTED_E2E) <= set(units)
    printed = {line.split()[0]: line.split() for line in lines[:-1] if not line.startswith("[")}
    for name, unit in units.items():
        assert printed[name][2] == unit, printed.get(name)

    checks = next(line for line in lines if line.startswith("[bench] checks"))
    assert checks.startswith("[bench] checks passed:")
    counts = dict(tok.split("=") for tok in checks.split(":", 1)[1].split())
    assert sum(int(v) for v in counts.values()) > 0
    if workload == "gof-null-default":
        assert int(counts["stein_vs_quadrature"]) > 0
    if workload == "study-small-n":
        assert counts["csv_workers_1_vs_2"] == "1"
    assert any(line.startswith("[bench] result_digest=") for line in lines)

    if trace:
        values = {k: v["value"] for k, v in result["metrics"].items()}
        assert (values["simulation.pools_created"] > 0) == (workload == "study-small-n")
        assert (values["stein_statistic.calls"] > 0) == (workload != "gof-boundary-edf")


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    import measure
    import workloads

    return measure, workloads


def test_tail_percentile_keeps_ten_samples_beyond(bench_modules):
    measure, _ = bench_modules
    values = [float(v) for v in range(88)]
    tail, pct, n = measure.tail_percentile(values)
    assert (pct, n) == (88, 88)
    assert sum(v > tail for v in values) == 10
    assert measure.tail_percentile([3.0, 1.0, 2.0]) == (3.0, 100, 3)


def test_a_missing_layer_name_is_reported_absent(bench_modules, monkeypatch):
    measure, workloads = bench_modules
    from gomptest import bootstrap, estimation

    # An EDF-only workload never looks the stein entry point up, so it can
    # run as it would at a commit where that name no longer exists.
    monkeypatch.delattr(bootstrap, "_t_closed_form_rows")
    run = measure.Run(workloads.get("gof-boundary-edf", smoke=True), seed=5)
    run.records.append(run.op(0)[0])
    layers, absent = measure.traced_run(run, 1, 0.2, 2, None)
    assert absent == ["gomptest.bootstrap._t_closed_form_rows"]
    assert layers["stein_statistic.ms"] is None
    assert layers["bootstrap.self_ms"] is None
    assert layers["estimation.fit_ms"] > 0
    assert not hasattr(bootstrap, "_t_closed_form_rows")
    assert bootstrap.fit_batch is estimation.fit_batch
