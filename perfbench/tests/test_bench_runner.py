"""Corrupted answers count as failed operations; seeds fix the inputs; the
tracer records spans and restores what it wrapped."""

import json
import os
import subprocess
import sys

import numpy as np

import cohomkit.cli as cli
import cohomkit.cohomology as cohomology
import cohomkit.groups as groups
import run
import tracing
import workloads
from cohomkit.cochains import Cochain

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def small_factors(labels):
    return {"queries": [(label, groups.from_label(label), 3)
                        for label in labels]}


def run_ops(round_fn, inputs, ops):
    logged = []
    workload = workloads.Workload("test", None, round_fn, ops, 1.0)
    latencies, failed = run.run_round(workload, inputs, logged.append)
    return latencies, failed, logged


def test_correct_factors_pass():
    _, failed, _ = run_ops(workloads.factors_round,
                           small_factors(["dihedral:4", "cyclic:8"]), 2)
    assert failed == 0


def test_a_wrong_factor_list_is_a_failed_operation(monkeypatch):
    real = cohomology.compute_cohomology

    def wrong(group, degree):
        h = real(group, degree)
        if group.name == "dihedral:4":
            return cohomology.CohomologyGroup(group, degree, [2, 4])
        return h

    monkeypatch.setattr(cohomology, "compute_cohomology", wrong)
    _, failed, logged = run_ops(workloads.factors_round,
                                small_factors(["dihedral:4", "cyclic:8"]), 2)
    assert failed == 1
    assert any("closed form" in line for line in logged)


def test_a_raising_operation_fails_and_unreached_ops_count(monkeypatch):
    def boom(group, degree):
        raise RuntimeError("boom")

    monkeypatch.setattr(cohomology, "compute_cohomology", boom)
    _, failed, _ = run_ops(workloads.factors_round,
                           small_factors(["cyclic:8"]), 3)
    assert failed == 3    # one raised, two never reached


def first_defect(inputs):
    rounds = workloads.defects_round(inputs)
    yield next(rounds)


def test_a_defect_with_one_entry_changed_is_a_failed_operation(
        tmp_path, monkeypatch):
    inputs = workloads.defects_setup(3, str(tmp_path))
    _, failed, _ = run_ops(first_defect, inputs, 1)
    assert failed == 0

    real = cli.write_cochain

    def corrupt(path, f):
        key = sorted(f.entries)[0]
        entries = dict(f.entries)
        entries[key] = entries[key] + entries[key]
        real(path, Cochain(f.group, f.degree, f.kind, entries))

    monkeypatch.setattr(cli, "write_cochain", corrupt)
    _, failed, logged = run_ops(first_defect, inputs, 1)
    assert failed == 1
    assert any("reference descent" in line for line in logged)


def test_a_wrong_defect_class_is_a_failed_operation(tmp_path, monkeypatch):
    inputs = workloads.defects_setup(3, str(tmp_path))
    monkeypatch.setattr(cli, "_coords_text", lambda coords: "0,0")
    _, failed, logged = run_ops(first_defect, inputs, 1)
    assert failed == 1
    assert any("is zero" in line for line in logged)


def test_realized_associator_checks_reject_a_changed_entry():
    base = groups.from_label(workloads.KLEIN)
    skeleton = workloads.lifting.realize(base, (1, 0))
    workloads._check_realized(base, (1, 0), skeleton)
    key = sorted(skeleton.associator.entries)[0]
    entries = dict(skeleton.associator.entries)
    entries[key] = entries[key] + entries[key]
    broken = workloads.lifting.QuasiMonoidalSkeleton(
        skeleton.cover, base, skeleton.grading,
        Cochain(skeleton.cover, 3, "qz", entries))
    try:
        workloads._check_realized(base, (1, 0), broken)
    except workloads.Reject:
        return
    raise AssertionError("a changed associator entry was accepted")


def test_setup_depends_on_the_seed_alone(tmp_path):
    a = workloads.factors_setup(5, str(tmp_path))["queries"]
    b = workloads.factors_setup(5, str(tmp_path))["queries"]
    c = workloads.factors_setup(6, str(tmp_path))["queries"]
    assert [(l, g.table, d) for l, g, d in a] == [(l, g.table, d) for l, g, d in b]
    assert [(l, g.table, d) for l, g, d in a] != [(l, g.table, d) for l, g, d in c]
    x = workloads.lift_setup(5, str(tmp_path))
    y = workloads.lift_setup(5, str(tmp_path))
    assert x["batch_seed"] == y["batch_seed"]
    assert x["classes"] == y["classes"]
    assert all(p[0].entries == q[0].entries and p[1] == q[1]
               for p, q in zip(x["second_tests"], y["second_tests"]))


def test_tracer_records_spans_and_uninstalls():
    original = cohomology.compute_cohomology
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        cohomology.clear_caches()
        cohomology.compute_cohomology(groups.from_label("dihedral:4"), 3)
    finally:
        uninstall()
    assert cohomology.compute_cohomology is original
    metrics = tracing.layer_metrics(tracer)
    assert metrics["cohomology.rows"] == 7 ** 4
    assert metrics["sweep.sweeps"] >= 1
    assert metrics["sweep.run_s"] > 0
    names = {s.name for s in tracer.spans}
    assert {"cohomology.compute_cohomology", "sweep.run", "linalg.run"} <= names
    sweep = next(s for s in tracer.spans if s.name == "sweep.run")
    assert tracer.spans[sweep.parent].name == "cohomology.compute_cohomology"
    self_times = tracer.self_times()
    assert 0 < self_times["sweep.run"] <= sweep.end - sweep.start


def test_command_line_echoes_the_seed_and_prints_the_result_last():
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload", "defects",
         "--seed", "7", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert "seed 7" in lines[-2]
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert (result["attempted"], result["failed"]) == (13, 0)
    assert set(result["metrics"]) == {"setup_s", "run_s", "op_p50_s",
                                      "peak_rss_mb"}
