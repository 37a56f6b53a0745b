"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest perfbench -q

They run each workload at its "tiny" scale, so the whole file takes
seconds; the repository's tier-1 suite does not collect them.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
import pace
import run
import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
COUNT_SUFFIXES = (".calls", "attempts", "cells", "_bits_max")


def tiny(workload, trace, out_dir, seed=1):
    return run.run(workload, seed, 0.05, trace, scale="tiny", out_dir=out_dir)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == tracing.per_layer_metrics()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_exactly_the_named_metrics(workload, trace, tmp_path):
    result, _ = tiny(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    json.dumps(result)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def patch_imports(monkeypatch, patch):
    """Make every program import apply `patch` to the fresh modules."""
    original = run.import_program

    def import_program():
        qp = original()
        patch(qp)
        return qp

    monkeypatch.setattr(run, "import_program", import_program)


def off_by_one_gcd(qp):
    real = qp.congruence.focal_points_on_line

    def wrong(c, line):
        report = real(c, line)
        report.gcd_degree += 1
        return report

    qp.congruence.focal_points_on_line = wrong


def wrong_line(qp):
    real = qp.congruence.line_through_point

    def wrong(c, point):
        line = real(c, point)
        return qp.congruence.ProjLine(line.p0, [x + 1 for x in line.p1])

    qp.congruence.line_through_point = wrong


def lost_survivor(qp):
    real = qp.cli.scan_exclusion
    qp.cli.scan_exclusion = lambda *args: real(*args)[:-1]


@pytest.mark.parametrize(
    "workload, patch",
    [("focal-slice", off_by_one_gcd), ("line-probe", wrong_line), ("invariant-scan", lost_survivor)],
)
def test_corrupted_output_raises_failed_ratio(workload, patch, tmp_path, monkeypatch):
    patch_imports(monkeypatch, patch)
    result, details = tiny(workload, 0, tmp_path)
    assert result["correct"] is False
    assert result["failed"] > 0
    assert details["failed_ratio"] == result["failed"] / result["attempted"]


def test_end_to_end_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self, qp):
        raise AssertionError("a wrapper was installed in an untraced run")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    seen = []
    patch_imports(monkeypatch, seen.append)
    result, _ = tiny("line-probe", 0, tmp_path)
    assert result["correct"]
    for qp in seen:
        for name in tracing.MODULES:
            module = getattr(qp, name)
            assert not any(hasattr(v, "__perfbench_original__") for v in vars(module).values())


def test_install_wraps_every_binding_and_uninstall_restores():
    qp = run.import_program()
    before = {(m, k): v for m in tracing.MODULES for k, v in vars(getattr(qp, m)).items()}
    tracer = tracing.Tracer()
    tracer.install(qp)
    try:
        wrapped = qp.exact.rank_and_kernel
        assert wrapped.__perfbench_original__ is before[("exact", "rank_and_kernel")]
        assert qp.congruence.rank_and_kernel is wrapped
        assert qp.catalog.quadruple_points is qp.formulas.quadruple_points
        assert hasattr(qp.cli.scan_exclusion, "__perfbench_original__")
        assert hasattr(qp.congruence.line_through_point_linear, "__perfbench_original__")
        with pytest.raises(RuntimeError):
            tracer.install(qp)
    finally:
        tracer.uninstall()
    after = {(m, k): v for m in tracing.MODULES for k, v in vars(getattr(qp, m)).items()}
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_subtracts_child_spans():
    tracer = tracing.Tracer()
    names = tracer.names
    # span 0 [0, 10] with children 1 [1, 4] and 2 [5, 6]; span 1 has child 3 [2, 3]
    for nid, start, end, parent in ((0, 0, 10, -1), (1, 1, 4, 0), (1, 5, 6, 0), (2, 2, 3, 1)):
        tracer.name_id.append(nid)
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(0)
    calls, self_s = tracer.self_times()
    assert calls[:3] == [1, 2, 1]
    assert self_s[:3] == [6.0, 3.0, 1.0]
    assert names[0] == tracing.SPANNED[0]


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_counts_repeat_and_self_times_account_for_wall(workload, tmp_path):
    first, details = tiny(workload, 1, tmp_path / "a", seed=3)
    second, _ = tiny(workload, 1, tmp_path / "b", seed=3)
    a = {k: v["value"] for k, v in first["metrics"].items()}
    b = {k: v["value"] for k, v in second["metrics"].items()}
    counts = [k for k in a if k.endswith(COUNT_SUFFIXES)]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert sum(a[k] for k in counts if k.endswith(".calls")) > 0
    self_total = sum(v for k, v in a.items() if k.endswith(".self_s"))
    assert self_total + a["trace.bench_overhead_s"] == pytest.approx(a["trace.wall_s"])
    assert a["trace.bench_overhead_s"] >= 0
    dump = Path(details["trace_dump"]).read_text(encoding="utf-8").splitlines()
    assert dump[0] == "span\tname\tstart\tend\tparent\top"
    assert len(dump) == details["spans"] + 1


def test_trace_counters_measure_construction_and_scans(tmp_path):
    probe, _ = tiny("line-probe", 1, tmp_path)
    m = {k: v["value"] for k, v in probe["metrics"].items()}
    constructions = m["congruence.random_linear_congruence.calls"] + m[
        "congruence.random_determinantal_congruence.calls"
    ]
    assert m["congruence.construct.attempts"] >= constructions > 0
    assert m["congruence.construct.accept_ratio"] == constructions / m["congruence.construct.attempts"]
    assert m["exact.rank_and_kernel.kernel_bits_max"] > 0
    scan, _ = tiny("invariant-scan", 1, tmp_path)
    m = {k: v["value"] for k, v in scan["metrics"].items()}
    assert m["catalog.scan_exclusion.cells"] > 0
    assert m["catalog.scan_exclusion.formula_calls_per_cell"] > 1


def test_integer_formulas_match_the_program():
    qp = run.import_program()
    f = qp.formulas
    for d in range(1, 16):
        for p in (0, 3, 8, 11):
            for chi_s in (-4, 0, 5):
                t = f.ThreefoldInvariants(d, p, chi_s, 2)
                assert Fraction(oracle.q24(d, p, chi_s, 2), 24) == f.quadruple_points(t)
                assert Fraction(oracle.residual24(d, p, chi_s), 24) == f.foursecant_constraint_residual(d, p, chi_s)
                assert Fraction(oracle.a1_8(d, p, chi_s), 8) == f.foursecant_scroll_degree(d, p, chi_s)
                assert oracle.k_cubed(d, p, chi_s, 2) == f.k_cubed(t)
                assert oracle.h_k_squared(d, p, 2) == f.h_k_squared(t)
                s = f.SurfaceInvariants(d, p, chi_s, 3)
                assert Fraction(oracle.triple6(d, p, chi_s, 3), 6) == f.apparent_triple_points(s)
            assert Fraction(oracle.a2_12(d, p), 12) == f.curve_foursecants(d, p)


def test_oracle_kernel_with_a_pivot_in_the_last_column():
    assert oracle.kernel([[1, 2, 0], [0, 0, 1]]) == [[-2, 1, 0]]
    assert oracle.rank([[1, 2, 0], [2, 4, 0]]) == 1


def test_oracle_scan_reproduces_the_frozen_lists():
    for d, pi_max, chi_max, frozen in workloads.FROZEN_SCANS:
        assert tuple(oracle.scan(d, pi_max, chi_max)) == frozen


def test_pacer_scales_by_the_median_of_the_nearest_probes():
    pacer = pace.Pacer()
    # probes at t = 0, 1, ..., 19 taking 1 ms, except 2 ms from t = 10 on
    pacer.at = [float(t) for t in range(20)]
    pacer.took = [0.001 if t < 10 else 0.002 for t in range(20)]
    assert pacer.reference_s(2.4, 2.6) == 0.001
    assert pacer.reference_s(17.0, 17.5) == 0.002
    # a long operation takes the probes inside it and the nearest around it
    assert pacer.reference_s(5.5, 14.5) == 0.002
    assert pacer.paced(3.0, 3.5) == pytest.approx(0.5 * pace.NOMINAL_S / 0.001)
    assert pacer.paced(16.0, 16.5) == pytest.approx(0.25 * pace.NOMINAL_S / 0.001)
    with pytest.raises(ValueError):
        pace.Pacer().reference_s(0.0, 1.0)


def test_pacer_probes_once_per_interval_between_operations():
    pacer = pace.Pacer(pace.mixed)
    pacer.tick()
    pacer.tick()
    assert len(pacer.took) == 1
    pacer.last = time.perf_counter() - 3 * pace.PROBE_INTERVAL_S
    pacer.tick()
    assert len(pacer.took) == 2
    pacer.burst()
    assert len(pacer.took) == 2 + pace.BURST
    assert pacer.at == sorted(pacer.at)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(range(100)) == (89, 90.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line-probe", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
