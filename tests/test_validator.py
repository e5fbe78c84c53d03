import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hvsinglet.geometry import RandomStream, dot, sample_uniform_sphere, unit
from hvsinglet.models import (
    HiddenVariableModel,
    LambdaBatch,
    OUTCOMES,
    LambdaSpace,
    builtin_model,
    build_recipe_model,
    family1_model,
    qm_table,
    _tables_from_kernel,
    _scalar_two_point_space,
    _scalar_uniform_space,
)
from hvsinglet.validator import (
    CheckStatus,
    ConstraintReport,
    CONSTRAINT_ORDER,
    SuiteResult,
    ValidatorConfig,
    Witness,
    check_coincident_zero,
    check_endpoint_g_bound,
    check_expansion,
    check_exponent_bound,
    check_marginal_triviality,
    check_qm_reproduction,
    check_table_scan,
    check_zero_average,
    decompose_delta,
    estimate_exponents,
    overall_exit_code,
    run_full_suite,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])

FAST = ValidatorConfig(
    n_settings=20, n_lambda=200, marginal_settings=20, marginal_lambda=50,
    mc_samples=100_000, mc_settings=3, qm_settings=5, coincident_axes=10,
    endpoint_pairs=3, expansion_axes=2, exponent_lambda=200)


def stream(i=0):
    return RandomStream(1234).split(i)


# ---------------------------------------------------------------------------
# Decomposition


def test_decompose_delta_oracle():
    # frozen example: a perpendicular pair and a hand-built table
    table = np.array([[0.30, 0.20], [0.25, 0.25]])
    d = decompose_delta(table, Z, X)
    assert d.alice == pytest.approx(0.0, abs=1e-15)
    assert d.bob == pytest.approx(0.1, abs=1e-15)
    assert d.corr == pytest.approx(0.1, abs=1e-15)
    assert d.offset == pytest.approx(0.0, abs=1e-15)
    assert_allclose(d.reconstruct(0.0), table, atol=1e-15)


def test_decompose_delta_rejects_unnormalized():
    with pytest.raises(ValueError, match="not normalized"):
        decompose_delta(np.full((2, 2), 0.3), Z, X)
    with pytest.raises(ValueError, match="2x2"):
        decompose_delta(np.ones((2, 3)) / 6.0, Z, X)


def test_decompose_canonical_model_gives_pure_corr():
    m = family1_model(0.4)
    b = unit([0.3, 0.7, 0.648])
    nodes, _ = m.lambda_space.quadrature
    t, _ = m.tables_masked(nodes, Z, b)
    for i in range(len(nodes)):
        d = decompose_delta(t[i], Z, b)
        assert abs(d.alice) < 1e-14 and abs(d.bob) < 1e-14
        assert d.corr == pytest.approx(float(m.c_values(nodes, Z, b)[i]), abs=1e-14)


@given(st.floats(-0.5, 0.5), st.floats(-1.0, 1.0))
@settings(max_examples=50)
def test_decompose_roundtrip_property(c, x):
    table = _tables_from_kernel(np.array([x - c]))[0]
    d = decompose_delta(table, Z, unit([np.sqrt(max(0.0, 1 - x * x)), 0.0, x]))
    assert_allclose(d.reconstruct(dotval := float(np.clip(x, -1, 1))), table, atol=1e-12)
    assert abs(d.corr - c) < 1e-12


# ---------------------------------------------------------------------------
# Individual checks on admissible models


def test_table_scan_family1_passes():
    norm, pos, half = check_table_scan(builtin_model("family1"), 20, 200, stream(1))
    assert norm.status is CheckStatus.PASS
    assert pos.status is CheckStatus.PASS
    assert half.status is CheckStatus.PASS
    assert pos.extremal_value >= -1e-12
    assert half.extremal_value <= 0.5 + 1e-12
    assert norm.samples_used == 20 * 200


def test_table_scan_catches_wrongtrial():
    norm, pos, half = check_table_scan(builtin_model("wrongtrial"), 20, 200, stream(2))
    assert pos.status is CheckStatus.FAIL
    assert half.status is CheckStatus.FAIL
    assert norm.status is CheckStatus.PASS
    w = pos.witness
    assert w.value < -1e-12
    assert w.sigma in (1, -1) and w.tau in (1, -1)
    # the witness table really does have that entry
    m = builtin_model("wrongtrial")
    t, _ = m.tables_masked(w.lam.batch(), w.a, w.b)
    i, j = (1, -1).index(w.sigma), (1, -1).index(w.tau)
    assert t[0, i, j] == pytest.approx(w.value, rel=1e-12)


def test_marginal_triviality_canonical_exact():
    rep = check_marginal_triviality(builtin_model("family2"), 20, 50, stream(3))
    assert rep.status is CheckStatus.PASS
    assert rep.extremal_value <= 1e-15


def test_marginal_triviality_detects_bias():
    # direct rule whose Alice marginal leans on lambda's sign
    base = _scalar_two_point_space(1.0)

    def rule(batch, a, b):
        d = 0.05 * batch.scalars[:, 0]
        t = np.tile(qm_table(a, b), (len(batch), 1, 1))
        t[:, 0, 0] += d
        t[:, 1, 0] -= d
        return t, np.ones(len(batch), dtype=bool)

    m = HiddenVariableModel("biased", base, table_rule=rule, spec={"family": "biased"})
    rep = check_marginal_triviality(m, 10, 50, stream(4))
    assert rep.status is CheckStatus.FAIL
    assert rep.extremal_value == pytest.approx(0.05, abs=1e-12)


def test_zero_average_quadrature_modes():
    rep = check_zero_average(builtin_model("family1"), 20, stream(5))
    assert rep.status is CheckStatus.PASS
    assert rep.details["mode"] == "quadrature"
    assert rep.extremal_value <= 1e-14


def test_zero_average_detects_asymmetric_measure():
    m = family1_model(0.4, weights=(0.75, 0.25))
    rep = check_zero_average(m, 20, stream(6))
    assert rep.status is CheckStatus.FAIL
    # E[C] = (1 - x^2) * gamma * (w+ - w-) = (1 - x^2) * 0.2
    assert rep.extremal_value > 0.05
    assert rep.witness.a is not None and rep.witness.b is not None


def test_zero_average_mc_paths():
    m = builtin_model("cerf")
    rep = check_zero_average(m, 2, stream(7), mc_samples=200_000)
    assert rep.status is CheckStatus.PASS
    assert rep.details["mode"] == "mc"
    assert rep.details["max_z"] <= 5.0
    # starved of samples the verdict degrades to inconclusive, not fail
    rep = check_zero_average(m, 2, stream(8), mc_samples=2000)
    assert rep.status is CheckStatus.INCONCLUSIVE


def test_mc_budget_off_block_multiple_is_spent_exactly():
    m = builtin_model("cerf")
    budget = 65536 + 4465
    rep = check_zero_average(m, 3, stream(27), mc_samples=budget)
    assert rep.samples_used == 3 * budget
    rep = check_qm_reproduction(m, 2, stream(28), mc_samples=budget)
    assert rep.samples_used == 2 * budget


def test_mc_kernel_path_matches_table_path():
    # the same rule given as tables: same draws, so the same statistics
    cerf = builtin_model("cerf")
    tables = HiddenVariableModel("cerf-tables", cerf.lambda_space,
                                 table_rule=lambda batch, a, b: cerf.tables_masked(batch, a, b))
    by_k = check_qm_reproduction(cerf, 3, stream(29), mc_samples=100_000)
    by_table = check_qm_reproduction(tables, 3, stream(29), mc_samples=100_000)
    assert by_k.samples_used == by_table.samples_used == 300_000
    assert by_k.status is by_table.status is CheckStatus.PASS
    for key in ("max_stderr", "max_z"):
        assert by_k.details[key] == pytest.approx(by_table.details[key], rel=1e-9)
    assert by_k.extremal_value == pytest.approx(by_table.extremal_value, rel=1e-9)


def _constant_kernel_model(kernel):
    """A kernel model whose k ignores lambda, so every draw at a pair is equal."""
    def rule(batch, a, b):
        return np.full(len(batch), kernel(a, b)), np.ones(len(batch), dtype=bool)

    return HiddenVariableModel("constant-k", builtin_model("cerf").lambda_space,
                               kernel_rule=rule)


def test_zero_spread_is_not_evidence():
    # k = a.b, the singlet itself: stderr 0 and deviation 0 give z = 0
    m = _constant_kernel_model(dot)
    for rep in (check_zero_average(m, 3, stream(37), mc_samples=1000),
                check_qm_reproduction(m, 3, stream(40), mc_samples=1000)):
        assert rep.status is CheckStatus.PASS, rep.constraint_id
        assert rep.details["max_z"] == 0.0 and rep.details["max_stderr"] == 0.0
    # k = 1: C = a.b - 1 on every draw; no spread cannot tell a failure from noise
    m = _constant_kernel_model(lambda a, b: 1.0)
    for rep in (check_zero_average(m, 3, stream(38), mc_samples=1000),
                check_qm_reproduction(m, 3, stream(39), mc_samples=1000)):
        assert rep.status is CheckStatus.INCONCLUSIVE, rep.constraint_id
        assert rep.details["max_stderr"] == 0.0 and rep.details["max_z"] == -np.inf


def test_mc_inconclusive_reports_samples_needed():
    # stderr ~ 1/sqrt(n): n * (max_stderr / 1e-2)^2 samples per pair would resolve it
    m = builtin_model("cerf")
    for check in (check_zero_average, check_qm_reproduction):
        rep = check(m, 2, stream(41), mc_samples=400)
        assert rep.status is CheckStatus.INCONCLUSIVE and rep.details["max_stderr"] > 1e-2
        assert rep.details["samples_needed"] == math.ceil(
            400 * (rep.details["max_stderr"] / 1e-2) ** 2)
        assert check(m, 2, stream(41), mc_samples=400).details == rep.details
    assert "samples_needed" not in check_zero_average(m, 2, stream(7),
                                                      mc_samples=200_000).details
    # inconclusive from zero spread alone: no sample count would help
    rep = check_zero_average(_constant_kernel_model(lambda a, b: 1.0), 3, stream(38),
                             mc_samples=1000)
    assert rep.status is CheckStatus.INCONCLUSIVE and "samples_needed" not in rep.details


def test_table_checks_map_witnesses_back_to_valid_rows():
    # rules undefined for lambda < -0.3: every witness must replay to its value
    space = _scalar_uniform_space(1.0, 16)

    def table_rule(batch, a, b):
        lam = batch.scalars[:, 0]
        t = np.tile(qm_table(a, b), (len(batch), 1, 1))
        t[:, 0, 0] += 0.3 * lam
        t[:, 0, 1] -= 0.2 * lam
        return t, lam > -0.3

    def kernel_rule(batch, a, b):
        lam = batch.scalars[:, 0]
        return dot(a, b) - 0.1 * lam * (1.0 + lam), lam > -0.3

    tables = HiddenVariableModel("masked-tables", space, table_rule=table_rule)
    norm, pos, half = check_table_scan(tables, 10, 64, stream(42))
    marginal = check_marginal_triviality(tables, 10, 64, stream(43))
    replay = {}
    for rep in (norm, pos, half, marginal):
        w = rep.witness
        assert w.lam.scalars[0] > -0.3, rep.constraint_id
        replay[rep.constraint_id] = tables.tables(w.lam, w.a, w.b), w
    t, w = replay["normalization"]
    assert abs(t.sum() - 1.0) == norm.extremal_value
    for rep in (pos, half):
        t, w = replay[rep.constraint_id]
        assert t[OUTCOMES.index(w.sigma), OUTCOMES.index(w.tau)] == rep.extremal_value
    t, w = replay["marginal-triviality"]
    side = (t.sum(axis=1)[OUTCOMES.index(w.sigma)] if w.sigma is not None
            else t.sum(axis=0)[OUTCOMES.index(w.tau)])
    assert abs(side - 0.5) == marginal.extremal_value
    kernel = HiddenVariableModel("masked-kernel", space, kernel_rule=kernel_rule)
    rep = check_coincident_zero(kernel, 5, 0, stream(44))
    assert rep.status is CheckStatus.FAIL and rep.witness.lam.scalars[0] > -0.3
    c, _ = kernel.implied_c(rep.witness.lam, rep.witness.a, rep.witness.b)
    assert abs(float(c[0])) == rep.extremal_value


def test_mc_checks_without_samples_are_inconclusive():
    m = builtin_model("cerf")
    for budget in (0, 1):
        for rep in (check_zero_average(m, 2, stream(30), mc_samples=budget),
                    check_qm_reproduction(m, 2, stream(31), mc_samples=budget)):
            assert rep.status is CheckStatus.INCONCLUSIVE, (rep.constraint_id, budget)
            assert rep.samples_used == 2 * budget
            assert rep.extremal_value is None and rep.witness is None


def test_scan_checks_without_rows_are_inconclusive():
    m = builtin_model("family1")
    for rep in check_table_scan(m, 5, 0, stream(32)):
        assert rep.status is CheckStatus.INCONCLUSIVE
        assert rep.samples_used == 0 and rep.extremal_value is None
    assert check_marginal_triviality(m, 5, 0, stream(33)).status is CheckStatus.INCONCLUSIVE
    assert check_coincident_zero(builtin_model("cerf"), 5, 0, stream(34)).status \
        is CheckStatus.INCONCLUSIVE
    assert check_zero_average(m, 0, stream(35)).status is CheckStatus.INCONCLUSIVE
    assert check_qm_reproduction(m, 0, stream(36)).status is CheckStatus.INCONCLUSIVE
    # a canonical model without quadrature samples its endpoint rows
    sampled = HiddenVariableModel("family1-mc", LambdaSpace(
        m.lambda_space.shape, m.lambda_space.sampler), c_function=m.c_function)
    res = run_full_suite(sampled, ValidatorConfig(**{**FAST.__dict__, "n_lambda": 0,
                                                     "exponent_lambda": 0}), seed=1)
    for cid in ("normalization", "coincident-zero", "endpoint-g-bound", "expansion"):
        assert res.report(cid).status is CheckStatus.INCONCLUSIVE, cid
    assert res.exit_code == 2


def test_report_json_has_no_non_finite_numbers():
    rep = ConstraintReport("zero-average", CheckStatus.FAIL, float("-inf"), 1e-2, 2,
                           Witness(float("inf")), details={"max_z": np.inf, "dev": [np.nan]})
    text = SuiteResult({"family": "x"}, 0, [rep]).to_json()

    def reject(name):
        raise ValueError(name)

    row = json.loads(text, parse_constant=reject)["checks"][0]
    assert row["extremal_value"] is None and row["witness"]["value"] is None
    assert row["details"] == {"max_z": None, "dev": [None]}


def test_coincident_zero_passes_all_families():
    for name in ("family1", "family2", "wrongtrial", "cerf"):
        kw = {"n_lambda": 500} if name == "cerf" else {"n_lambda": 100}
        rep = check_coincident_zero(builtin_model(name), 10, kw["n_lambda"], stream(9))
        assert rep.status is CheckStatus.PASS, name
        assert rep.extremal_value <= 1e-10


def test_coincident_zero_detects_offset():
    base = _scalar_two_point_space(0.4)

    def rule(batch, a, b):
        # constant correlation kernel: no endpoint zero at all
        return _tables_from_kernel(np.full(len(batch), float(np.dot(a, b)) * 0.9)), \
               np.ones(len(batch), dtype=bool)

    m = HiddenVariableModel("offset", base, table_rule=rule, spec={"family": "offset"})
    rep = check_coincident_zero(m, 5, 50, stream(10))
    assert rep.status is CheckStatus.FAIL
    assert rep.extremal_value == pytest.approx(0.1, abs=1e-9)


# ---------------------------------------------------------------------------
# Endpoint structure


def test_estimate_exponents_family1():
    est = estimate_exponents(builtin_model("family1"), stream(11))
    assert est.s_plus == pytest.approx(1.0, abs=0.02)
    assert est.s_minus == pytest.approx(1.0, abs=0.02)
    assert max(est.residual_plus, est.residual_minus) < 0.01


def test_estimate_exponents_wrongtrial_half():
    est = estimate_exponents(builtin_model("wrongtrial"), stream(12))
    assert est.s_plus == pytest.approx(0.5, abs=0.02)
    assert est.s_minus == pytest.approx(0.5, abs=0.02)


def test_estimate_exponents_recipe_s2():
    m = build_recipe_model("square", 2.0)
    est = estimate_exponents(m, stream(13))
    assert est.s_plus == pytest.approx(2.0, abs=0.05)
    assert est.s_minus == pytest.approx(2.0, abs=0.05)


def test_exponent_bound_verdicts():
    assert check_exponent_bound(builtin_model("family1"), stream(14)).status is CheckStatus.PASS
    rep = check_exponent_bound(builtin_model("wrongtrial"), stream(15))
    assert rep.status is CheckStatus.FAIL
    assert rep.extremal_value == pytest.approx(0.5, abs=0.02)
    assert check_exponent_bound(builtin_model("cerf"), stream(16)).status is CheckStatus.NOT_APPLICABLE


def test_endpoint_g_bound_family_values():
    # family1: G = g, sup |G| = gamma = 0.4 against bound 1/2
    rep = check_endpoint_g_bound(builtin_model("family1"), stream(17), n_pairs=3, n_lambda=100)
    assert rep.status is CheckStatus.PASS
    assert rep.extremal_value == pytest.approx(0.4, abs=1e-6)
    # family2 saturates the bound from below
    rep = check_endpoint_g_bound(builtin_model("family2"), stream(18), n_pairs=3, n_lambda=100)
    assert rep.status is CheckStatus.PASS
    assert rep.extremal_value <= 0.5 + 1e-9
    assert rep.details["min_nonzero_fraction"] >= 0.01


def test_endpoint_g_bound_flags_violation():
    # gamma = 0.5 two-point measure under an extra 1.2 inflation breaks the bound
    base = family1_model(0.5)
    inflated = HiddenVariableModel(
        "inflated", base.lambda_space,
        c_function=type(base.c_function)(
            lambda lam, a, b: 1.2 * base.c_function(lam, a, b), 1.0, 1.0),
        spec={"family": "inflated"})
    rep = check_endpoint_g_bound(inflated, stream(19), n_pairs=3, n_lambda=100)
    assert rep.status is CheckStatus.FAIL
    assert rep.extremal_value == pytest.approx(0.6, abs=1e-6)


def test_endpoint_g_bound_not_applicable_when_s_far_from_one():
    m = build_recipe_model("square", 2.0)
    rep = check_endpoint_g_bound(m, stream(20), n_pairs=2, n_lambda=100)
    assert rep.status is CheckStatus.NOT_APPLICABLE
    assert "neither opposite exponent" in rep.details["reason"]


def test_expansion_family1_tracks_epsilon():
    rep = check_expansion(builtin_model("family1"), stream(21), n_axes=2, n_lambda=64)
    assert rep.status is CheckStatus.PASS
    # measured deviation is linear in eps: ratio rel/eps stays O(1), here 2
    assert rep.extremal_value == pytest.approx(2.0, rel=0.2)
    per_eps = rep.details["max_rel_dev_per_eps"]
    assert per_eps["0.001"] == pytest.approx(0.1 * per_eps["0.01"], rel=0.15)


def test_expansion_fails_on_wrongtrial():
    rep = check_expansion(builtin_model("wrongtrial"), stream(22), n_axes=2, n_lambda=64)
    assert rep.status is CheckStatus.FAIL


def test_expansion_not_applicable_without_exponents():
    rep = check_expansion(builtin_model("cerf"), stream(23))
    assert rep.status is CheckStatus.NOT_APPLICABLE


def test_qm_reproduction_quadrature_and_mc():
    rep = check_qm_reproduction(builtin_model("family2"), 5, stream(24))
    assert rep.status is CheckStatus.PASS
    assert rep.extremal_value <= 1e-10
    rep = check_qm_reproduction(builtin_model("cerf"), 3, stream(25), mc_samples=200_000)
    assert rep.status is CheckStatus.PASS
    assert rep.details["mode"] == "mc"


def test_qm_reproduction_detects_wrong_statistics():
    m = family1_model(0.4, weights=(0.75, 0.25))
    rep = check_qm_reproduction(m, 5, stream(26))
    assert rep.status is CheckStatus.FAIL


# ---------------------------------------------------------------------------
# Suite plumbing


def test_overall_exit_code_precedence():
    mk = lambda s: ConstraintReport("x", s, None, 0.0, 0)
    assert overall_exit_code([mk(CheckStatus.PASS), mk(CheckStatus.NOT_APPLICABLE)]) == 0
    assert overall_exit_code([mk(CheckStatus.PASS), mk(CheckStatus.INCONCLUSIVE)]) == 2
    assert overall_exit_code([mk(CheckStatus.INCONCLUSIVE), mk(CheckStatus.FAIL)]) == 1


def test_run_full_suite_family1_report_shape():
    res = run_full_suite(builtin_model("family1"), FAST, seed=7)
    assert res.exit_code == 0
    assert [r.constraint_id for r in res.reports] == list(CONSTRAINT_ORDER)
    d = res.to_dict()
    assert d["overall"] == "pass" and d["exit_code"] == 0
    assert d["model"]["family"] == "family1"
    for row in d["checks"]:
        assert set(row) == {"constraint-id", "status", "extremal_value", "witness",
                            "tolerance", "samples_used", "details"}
    # serialized form is valid JSON and deterministic
    assert json.loads(res.to_json()) == json.loads(res.to_json())


def test_run_full_suite_wrongtrial_fails_expected_subset():
    res = run_full_suite(builtin_model("wrongtrial"), FAST, seed=7)
    assert res.exit_code == 1
    failed = {r.constraint_id for r in res.reports if r.status is CheckStatus.FAIL}
    assert failed == {"positivity", "entry-half-bound", "exponent-bound", "expansion"}
    assert res.report("coincident-zero").status is CheckStatus.PASS
    assert res.report("zero-average").status is CheckStatus.PASS


def test_run_full_suite_deterministic_and_thread_invariant():
    m = builtin_model("family1")
    r1 = run_full_suite(m, FAST, seed=3).to_json()
    r2 = run_full_suite(m, FAST, seed=3).to_json()
    r3 = run_full_suite(m, ValidatorConfig(**{**FAST.__dict__, "threads": 4}), seed=3).to_json()
    assert r1 == r2 == r3
    assert run_full_suite(m, FAST, seed=4).to_json() != r1


def test_run_full_suite_cerf_small_budget_inconclusive():
    cfg = ValidatorConfig(**{**FAST.__dict__, "mc_samples": 2000, "qm_settings": 2,
                             "mc_settings": 2})
    res = run_full_suite(builtin_model("cerf"), cfg, seed=1)
    assert res.exit_code == 2
    assert res.report("zero-average").status is CheckStatus.INCONCLUSIVE
