"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest bench -q
"""

import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

run.prepare()
import workloads  # noqa: E402
from nopolock import cli  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())
TINY = replace(workloads.DEFAULT_SIZES, below_t_max=0.06, below_burn_in=0.03,
               phases_t_max=0.06, phases_burn_in=0.03, sweep_step=0.03,
               setup_repeats=1, probe_t_max=0.02)


def one_sample(workload: str, seed: int, sizes=workloads.DEFAULT_SIZES):
    """(outputs, failed checks) of a single sample."""
    spec = workloads.build(workload, seed, sizes)
    with tempfile.TemporaryDirectory() as tmp:
        sample = run.run_sample(cli.main, spec.invocations, Path(tmp))
    assert sample.error is None and sample.exit_codes == [0] * len(spec.invocations)
    return sample.outputs, spec.check(sample.outputs)


def test_catalogue_matches_benchmark_json():
    for key, catalogue in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        listed = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK[key]]
        assert listed == list(catalogue)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_emits_every_metric(workload, trace):
    outcome = run.run(workload, seed=1, seconds=0.0, trace=trace, sizes=TINY)
    result = json.loads(json.dumps(outcome.result))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    catalogue = run.PER_LAYER if trace else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {name: unit for name, unit, _ in catalogue}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_analytic_checks_pass_at_tiny_size():
    outputs, failed = one_sample("analytic-sweep", 0, TINY)
    assert failed == []
    assert len(workloads.read_csv(outputs["variance_1.csv"])[2]) == 100


def test_wrong_reference_fails_and_counts():
    good = run.run("mc-below", seed=0, seconds=0.0, trace=False)
    assert good.result["correct"] and good.result["failed"] == 0
    bad = run.run("mc-below", seed=0, seconds=0.0, trace=False,
                  refs={"n1": 10 * workloads.build("mc-below", 0).refs["n1"]})
    assert not bad.result["correct"]
    assert bad.result["failed"] == bad.result["attempted"] >= 1
    assert any(line.startswith("failed_fraction    1") for line in bad.lines)
    assert any(line.startswith("check failed: n1") for line in bad.lines)


def test_wrong_row_count_fails():
    spec = workloads.build("analytic-sweep", 0, TINY)
    outputs, _ = one_sample("analytic-sweep", 0, TINY)
    spec.refs["rows"]["variance_2.csv"] += 1
    assert spec.check(outputs) == ["variance_2.csv: 100 rows, expected 101"]


@pytest.mark.parametrize("workload", ["mc-below", "mc-phases"])
def test_seed_changes_realization_not_verdict(workload):
    out_a, failed_a = one_sample(workload, 0)
    out_b, failed_b = one_sample(workload, 1)
    assert failed_a == [] and failed_b == []
    assert out_a["mc.csv"] != out_b["mc.csv"]


def test_continuity_check_catches_a_jump():
    x = [0.994, 0.997, 1.0, 1.003]
    assert workloads._continuity(x, [0.5040, 0.5032, 0.5025, 0.55]) is None
    assert workloads._continuity(x, [0.5040, 0.5032, 0.5100, 0.55]) is not None
