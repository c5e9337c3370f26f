"""Self-tests of the benchmark's correctness checks: each one can fail.

    python3 -m pytest perfbench -q

Every test takes a real report (or suite result) from the program, perturbs
it the way a fault would, and asserts that the check meant to catch that
fault reports it.  The unperturbed output must pass.
"""

from __future__ import annotations

import copy
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workload  # noqa: E402
from mboxsim import cli, runtime, verify  # noqa: E402
from mboxsim.geometry import Completion, CompletionStrategy  # noqa: E402
from mboxsim.quantum import EntanglementParam  # noqa: E402

GAMMA = math.pi / 8
ROUNDS = 4096
SETTINGS = (
    ((0.36, 0.48, 0.8), (0.0, 0.6, -0.8)),
    ((0.0, -0.6, 0.8), (0.48, 0.36, 0.8)),
)


def _report(protocol: str, completion: str = "ortho-sign"):
    config = runtime.ExperimentConfig(
        protocol=protocol, gamma=GAMMA, rounds=ROUNDS, seed=7,
        completion=completion, settings=SETTINGS,
    )
    payload = verify.report_to_json_dict(runtime.run_experiment(config))
    spec = {"protocol": protocol, "gamma": GAMMA, "completion": completion,
            "rounds": ROUNDS, "settings": SETTINGS}
    return payload, spec


def _check(payload, spec) -> checks.Verdict:
    strategy = CompletionStrategy(Completion(spec["completion"]))
    return checks.check_report(payload, spec, verify.exact_mu_average,
                               EntanglementParam(spec["gamma"]), strategy)


def _band() -> float:
    return checks.z_band(1000)


def _set_counts(rec: dict, counts: list) -> None:
    rec["counts"] = counts
    rec["empirical"] = [c / sum(counts) for c in counts]


@pytest.fixture(scope="module")
def p1():
    return _report("p1")


@pytest.fixture(scope="module")
def tb():
    return _report("tb", "normalize")


@pytest.mark.parametrize("protocol", ["p1", "p2", "tb"])
def test_unperturbed_reports_pass(protocol):
    v = _check(*_report(protocol))
    assert v.passed(_band()), (v.problems, v.max_z)
    assert len(v.zs) > 0


def test_born_joint_on_known_cases():
    z = (0.0, 0.0, 1.0)
    c, s = math.cos(GAMMA), math.sin(GAMMA)
    assert np.allclose(checks.born_joint(GAMMA, z, z), [c * c, 0, 0, s * s], atol=1e-15)
    x = (1.0, 0.0, 0.0)
    # <XX> = sin 2g, marginals 0.
    joint = checks.born_joint(GAMMA, x, x)
    assert np.isclose(joint[0] - joint[1] - joint[2] + joint[3], math.sin(2 * GAMMA))


def test_z_band_grows_with_check_count():
    assert checks.z_band(1) >= checks.GATE_SIGMA
    assert checks.z_band(10_000) > checks.z_band(100) > checks.GATE_SIGMA


def test_counts_not_summing_fail(p1):
    payload, spec = copy.deepcopy(p1)
    payload["records"][0]["counts"][0] -= 1
    assert any("do not sum" in p for p in _check(payload, spec).problems)


def test_empirical_not_summing_to_one_fails(p1):
    payload, spec = copy.deepcopy(p1)
    payload["records"][1]["empirical"][2] += 1e-6
    assert any("empirical sums" in p for p in _check(payload, spec).problems)


def test_p1_target_off_born_rule_fails(p1):
    payload, spec = copy.deepcopy(p1)
    target = payload["records"][0]["target"]
    target[0] += 1e-9
    target[3] -= 1e-9
    assert any("Born rule" in p for p in _check(payload, spec).problems)


def test_tb_target_with_wrong_correlation_fails(tb):
    payload, spec = copy.deepcopy(tb)
    target = payload["records"][0]["target"]
    target[0] += 1e-6
    target[1] -= 1e-6
    assert any("tb target" in p for p in _check(payload, spec).problems)


def test_p2_target_not_a_distribution_fails():
    payload, spec = _report("p2")
    payload["records"][0]["target"][1] = -0.01
    assert any("p2 target" in p for p in _check(payload, spec).problems)


def test_shifted_post_flip_marginal_fails(p1):
    payload, spec = copy.deepcopy(p1)
    rec = payload["records"][0]
    pp, pm, mp, mm = rec["counts"]
    shift = 300  # (-,-) to (+,-) moves the mean of alpha by 600 / 4096, about 11 sigma
    _set_counts(rec, [pp, pm + shift, mp, mm - shift])
    v = _check(payload, spec)
    assert not v.problems
    assert not v.passed(_band())
    assert max(v.zs, key=lambda t: t[1])[0].endswith("post-flip mean alpha")


def test_nonzero_pre_flip_mean_fails(p1):
    payload, spec = copy.deepcopy(p1)
    payload["records"][1]["pre_flip"]["beta0_mean"] = 0.2
    v = _check(payload, spec)
    assert not v.passed(_band())
    assert max(v.zs, key=lambda t: t[1])[0].endswith("pre-flip mean beta0")


def test_branch_correlation_off_oracle_fails(p1):
    payload, spec = copy.deepcopy(p1)
    payload["records"][0]["branches"][0]["corr_mean"] += 0.3
    v = _check(payload, spec)
    assert not v.passed(_band())
    assert "branch" in max(v.zs, key=lambda t: t[1])[0]


def test_branch_pairing_breaking_box_contract_fails(p1):
    payload, spec = copy.deepcopy(p1)
    for br in payload["records"][0]["branches"]:
        br["q"] = -br["q"]
    assert any("box contract" in p for p in _check(payload, spec).problems)


def test_kernel_law_violation_fails(tb):
    payload, spec = copy.deepcopy(tb)
    rec = payload["records"][0]
    pp, pm, mp, mm = rec["counts"]
    shift = 200  # moves the sampled correlation by 800 / 4096
    _set_counts(rec, [pp - shift, pm + shift, mp + shift, mm - shift])
    v = _check(payload, spec)
    assert not v.passed(_band())
    assert max(v.zs, key=lambda t: t[1])[0].endswith("kernel correlation")


def test_schema_violation_fails(p1):
    payload, _ = copy.deepcopy(p1)
    validator = workload.jsonschema.validators.validator_for(cli.report_schema())(cli.report_schema())
    v, _ = checks.check_schema(json.dumps(payload), validator)
    assert not v.problems
    del payload["summary"]
    v, _ = checks.check_schema(json.dumps(payload), validator)
    assert any("schema" in p for p in v.problems)
    v, _ = checks.check_schema("{not json", validator)
    assert v.problems


def test_csv_row_count_fails():
    text = "ax,ay,az,bx,by,bz,n\n" + "1,2,3,4,5,6,7\n" * 3
    assert not checks.check_csv(text, 3).problems
    assert checks.check_csv(text, 4).problems


def test_failed_suite_check_fails():
    ok = verify.CheckResult("x", True, "")
    bad = verify.CheckResult("y", False, "")
    assert not checks.check_suite_results([ok]).problems
    assert checks.check_suite_results([ok, bad]).problems


def test_moments_off_target_fail():
    est = verify.EstimateWithError(mean=0.05, stderr=0.005, n=40_000)
    assert checks.check_moments({"alpha0": est}, {"alpha0": 0.05}, "p1").problems == []
    assert checks.check_moments({"alpha0": est}, {"alpha0": 0.0}, "p1").problems


def test_worker_count_mismatch_fails(tmp_path):
    long = workload.Long(seed=1, outdir=tmp_path)
    config = runtime.ExperimentConfig(protocol="p1", gamma=GAMMA, rounds=1000, seed=3,
                                      settings=SETTINGS[:1], workers=2)
    v = checks.Verdict()
    long.kept = (config, b"not the report", v)
    long.finish()
    assert any("workers" in p for p in v.problems)


def test_residual_report_changing_between_calls_fails(tmp_path):
    wl = workload.Verify(seed=1, outdir=tmp_path)
    a, b = wl.moment_setting
    c = wl.param.cos2g
    est = verify.EstimateWithError
    moments = [
        {"alpha0": est(0.0, 0.01, 10_000), "beta0": est(0.0, 0.01, 10_000),
         "alpha": est(c * a[2], 0.01, 10_000), "beta": est(c * b[2], 0.01, 10_000)},
        {"alpha0": est(0.0, 0.01, 10_000), "beta0": est(0.0, 0.01, 10_000)},
    ]
    residual = verify.claim_residual_report(n_settings=2, seed=5)
    assert not wl._check(([], residual, moments), 5).problems
    changed = copy.deepcopy(residual)
    changed["strategies"]["normalize"][repr(GAMMA)]["p1"]["max_residual"] += 1e-12
    assert any("differs" in p for p in wl._check(([], changed, moments), 5).problems)


class _Raising:
    """A workload whose every operation raises, and one that always passes."""

    def __init__(self, seed, outdir):
        pass

    def cycle(self, k):
        def boom():
            raise ValueError("|c0| > 1")
        return [workload.Op(run=boom, check=lambda out: checks.Verdict(), rounds=1),
                workload.Op(run=lambda: None, check=lambda out: checks.Verdict(), rounds=1)]

    def finish(self):
        pass


def test_raising_operation_fails_and_makes_run_incorrect(tmp_path, monkeypatch):
    monkeypatch.setitem(workload.WORKLOADS, "raising", _Raising)
    monkeypatch.setattr(workload, "fresh_start_s", lambda name, seed: 0.5)
    summary = workload.run("raising", seed=1, seconds=0.0, trace=False, outdir=tmp_path)
    assert summary["attempted"] >= workload.MIN_OPS
    assert summary["failed"] == summary["attempted"] // 2
    assert summary["correct"] is False
    assert any("ValueError" in p for p in summary["problems"])
    assert summary["setup_s"] == 0.5
    assert len(summary["setup_starts_s"]) == workload.SETUP_STARTS


def test_tally_counts_raised_and_failed_checks():
    ok, bad = checks.Verdict(), checks.Verdict(problems=["counts"])
    assert workload.tally([(False, ok), (False, ok)]) == (0, True, [])
    failed, correct, _ = workload.tally([(False, ok), (True, checks.Verdict(problems=["raised"]))])
    assert (failed, correct) == (1, False)
    failed, correct, _ = workload.tally([(False, ok), (False, bad)])
    assert (failed, correct) == (1, False)


def test_tracer_spans_nest_and_uninstall_restores():
    import mboxsim
    from tracing import Tracer, layer_metrics

    originals = (runtime.round_uniform_block, verify.exact_mu_average, cli.jsonschema)
    tracer = Tracer()
    tracer.install(mboxsim)
    tracer.active = True
    with tracer.span("op"):
        runtime.run_experiment(runtime.ExperimentConfig(
            protocol="p1", gamma=GAMMA, rounds=3000, seed=3, settings=SETTINGS, workers=2))
    tracer.uninstall()
    assert (runtime.round_uniform_block, verify.exact_mu_average, cli.jsonschema) == originals
    draws = [s for s in tracer.spans if s.name == "runtime.draw"]
    assert len(draws) == 2
    assert all(s.parent.name == "runtime.run_experiment" for s in draws)
    metrics = layer_metrics(tracer.spans, 1)
    assert metrics["runtime.chunk_calls"]["value"] == 2
    assert metrics["runtime.uniform_bytes_per_round"]["value"] == 192
    assert 0 < metrics["runtime.worker_util"]["value"] <= 1
    assert metrics["verify.oracle_us_per_call"]["value"] == 0
    assert metrics["runtime.unexited_threads_per_op"]["value"] == 0


def test_self_time_subtracts_the_union_of_children():
    from tracing import Span, layer_totals

    parent = Span("outer", 0, None, 1)
    parent.end = 100
    kids = []
    for start, end, thread in ((10, 40, 1), (30, 60, 2), (90, 120, 2)):
        kid = Span("inner", start, parent, thread)
        kid.end = end
        kids.append(kid)
    layers = layer_totals([parent, *kids])
    # children cover [10, 60) and [90, 100) of the parent: 60 ns
    assert layers["outer"].total_ns == 100
    assert layers["outer"].self_ns == 40
    assert layers["inner"].calls == 3
