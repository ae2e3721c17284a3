"""The output checks must accept promptkit's real outputs and reject
planted wrong answers; the tracer must wrap names that exist and take
wrapped children out of self time.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import copy
import json
import time
from itertools import combinations

import numpy as np
import pytest

import checks
import fixtures
import trace_layers
import workloads

workloads.import_promptkit()


@pytest.fixture(scope="module")
def verify_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("verify")
    fixtures.write_verify_fixture(root, seed=5, images=12)
    workload = workloads.VerifyDense(root, seed=5)
    return workload, workload.op(1)


def test_verify_checker_accepts_real_output(verify_run):
    workload, output = verify_run
    assert workload.check(output) == []
    assert 0.0 < checks.gate_pass_ratio(output[1]) <= 1.0


def _rewrite(path, edit):
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def test_verify_checker_rejects_dropped_instance(verify_run, tmp_path):
    workload, (out_dir, report) = verify_run
    planted = tmp_path / "out"
    planted.mkdir()
    for p in out_dir.glob("*.json"):
        (planted / p.name).write_text(p.read_text())
    victim = next(p for p in sorted(planted.glob("*.json"))
                  if json.loads(p.read_text())["instances"])
    _rewrite(victim, lambda doc: doc["instances"].pop(0))
    problems = workload.check((planted, report))
    assert any("should have been retained" in p for p in problems)
    assert any("report retained" in p for p in problems)


def test_verify_checker_rejects_wrong_similarity_and_alias(verify_run, tmp_path):
    workload, (out_dir, report) = verify_run
    planted = tmp_path / "out"
    planted.mkdir()
    for p in out_dir.glob("*.json"):
        (planted / p.name).write_text(p.read_text())

    def edit(doc):
        inst = doc["instances"][0]
        inst["similarity"] = inst["similarity"] - 1e-6
        inst["alias_tag"] = inst["tag"]

    victim = next(p for p in sorted(planted.glob("*.json"))
                  if json.loads(p.read_text())["instances"])
    _rewrite(victim, edit)
    problems = workload.check((planted, report))
    assert any("similarity" in p for p in problems)
    assert any("alias_tag" in p for p in problems)


@pytest.fixture(scope="module")
def train_run(tmp_path_factory):
    workload = workloads.TrainStep(tmp_path_factory.mktemp("train"), seed=2)
    return workload, workload.op(1)


def test_train_checker_accepts_real_output(train_run):
    workload, output = train_run
    assert workload.check(output) == []


def test_train_checker_rejects_swapped_match(train_run):
    workload, output = train_run
    planted = dict(output)
    (i0, j0), (i1, j1) = output["matches"][:2]
    planted["matches"] = [(i0, j1), (i1, j0)] + output["matches"][2:]
    assert any("matching cost" in p for p in workload.check(planted))


def test_train_checker_rejects_wrong_terms(train_run):
    workload, output = train_run
    bd = output["breakdown"]
    planted = dict(output, breakdown=type(bd)(bd.cls, bd.bbox, bd.mask, bd.align,
                                              bd.order + 1e-6, bd.total))
    problems = workload.check(planted)
    assert any(p.startswith("order term") for p in problems)
    assert any(p.startswith("total") for p in problems)
    planted = dict(output, counts={**output["counts"], "visual": 7})
    assert any("token counts" in p for p in workload.check(planted))


@pytest.fixture(scope="module")
def tau_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("tau")
    fixtures.write_tau_fixture(root, seed=3)
    workload = workloads.TauTies(root, seed=3)
    return workload, workload.op(1)


def test_tau_checker_accepts_real_output(tau_run):
    workload, output = tau_run
    assert workload.check(output) == []


@pytest.mark.parametrize("key", ["concordant", "discordant"])
def test_tau_checker_rejects_count_off_by_one(tau_run, key):
    workload, output = tau_run
    planted = copy.deepcopy(output)
    planted[key] += 1
    assert any(p.startswith(key) for p in workload.check(planted))


def test_tau_derivation_matches_pair_enumeration(tmp_path):
    rng = np.random.default_rng(0)
    x = np.round(rng.standard_normal(60), 1)
    y = np.round(0.5 * x + rng.standard_normal(60), 1)
    (tmp_path / "a").write_text("\n".join(map(str, x)))
    (tmp_path / "b").write_text("\n".join(map(str, y)))
    signs = [np.sign(x[i] - x[j]) * np.sign(y[i] - y[j]) for i, j in combinations(range(60), 2)]
    expected = checks.expected_tau(tmp_path / "a", tmp_path / "b")
    assert expected["concordant"] == sum(s > 0 for s in signs)
    assert expected["discordant"] == sum(s < 0 for s in signs)


def test_gradcheck_checker(tmp_path):
    workload = workloads.GradcheckSuite(tmp_path, seed=4)
    output = workload.op(1)
    assert workload.check(output) == []
    failed = copy.deepcopy(output)
    failed[2].update(passed=False, max_rel_err=2e-4)
    assert any("max_rel_err" in p for p in workload.check(failed))
    resized = copy.deepcopy(output)
    resized[1]["n_params"] += 16
    assert any("n_params" in p for p in workload.check(resized))


def test_every_traced_place_exists():
    for table in (trace_layers.SPANS, trace_layers.COUNTERS):
        for places in table.values():
            for place in places:
                owner, attr = trace_layers._resolve(place)
                assert callable(getattr(owner, attr, None)), place


def test_tracer_self_time_excludes_wrapped_children():
    tracer = trace_layers.Tracer()
    inner = tracer._span("inner", lambda: time.sleep(0.05))
    outer = tracer._span("outer", lambda: (time.sleep(0.01), inner()))
    outer()
    assert dict(tracer.calls) == {"outer": 1, "inner": 1}
    assert tracer.self_s["inner"] >= 0.05
    assert 0.01 <= tracer.self_s["outer"] < 0.04
