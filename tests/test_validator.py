import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from hvsinglet import geometry, validator
from hvsinglet.geometry import (RandomStream, as_generator, dot, sample_uniform_sphere, unit,
                                with_dot)
from hvsinglet.models import (
    _SIGMA_TAU,
    _UNDEFINED_TOL,
    CFunction,
    HiddenVariableModel,
    MeasureZeroError,
    LambdaBatch,
    OUTCOMES,
    LambdaSpace,
    builtin_model,
    build_recipe_model,
    family1_model,
    qm_table,
    setting_dot,
    _tables_from_kernel,
    _quad_means,
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
    _entry_sums,
    _random_pair,
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
from hvsinglet.simulator import ExperimentConfig, estimate_correlation

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


def test_mc_budget_off_small_block_multiple_is_spent_exactly():
    m = builtin_model("cerf")
    budget = 3 * 16384 + 4465
    rep = check_zero_average(m, 3, stream(42), mc_samples=budget)
    assert rep.samples_used == 3 * budget
    rep = check_qm_reproduction(m, 2, stream(43), mc_samples=budget)
    assert rep.samples_used == 2 * budget


def test_mc_blocks_are_keyed_by_check_stream_and_block_index():
    # the pairs come from source.generator(), then block i of lambda from source.split(i)
    m = builtin_model("cerf")
    src = stream(45)
    rep = check_zero_average(m, 1, src, mc_samples=2 * 16384 + 4465)
    a, b = _random_pair(src.generator(), endpoint=False)
    total = total_sq = 0.0
    n = 0
    for i, size in enumerate((16384, 16384, 4465)):
        c, ok = m.implied_c(m.lambda_space.sample(src.split(i).generator(), size), a, b)
        assert ok.all()
        total += c.sum()
        total_sq += (c * c).sum()
        n += size
    mean = total / n
    stderr = float(np.sqrt(max(0.0, (total_sq - n * mean * mean) / (n - 1)) / n))
    assert rep.samples_used == n
    assert np.array_equal(rep.witness.a, a) and np.array_equal(rep.witness.b, b)
    assert rep.witness.value == abs(mean)
    assert rep.details["max_stderr"] == stderr


@pytest.mark.parametrize("check", [check_zero_average, check_qm_reproduction])
def test_mc_path_needs_a_random_stream(check):
    with pytest.raises(TypeError, match="RandomStream"):
        check(builtin_model("cerf"), 2, stream(46).generator(), mc_samples=100)
    # the quadrature path takes a generator as well, with the stream's draws
    m = builtin_model("family1")
    by_gen = check(m, 3, stream(46).generator())
    assert by_gen.to_dict() == check(m, 3, stream(46)).to_dict()


def _half_defined(with_quadrature):
    """k = a.b where lambda > 0 on uniform scalars, undefined elsewhere: half the measure."""
    space = _scalar_uniform_space(1.0, 16)

    def rule(batch, a, b):
        lam = batch.scalars[:, 0]
        return np.full(len(lam), setting_dot(a, b)), lam > 0.0

    if not with_quadrature:
        space = LambdaSpace(space.shape, space.sampler)
    return HiddenVariableModel("half-defined", space, kernel_rule=rule)


def test_a_rule_undefined_on_half_its_measure_never_passes():
    # the kept rows reproduce the singlet exactly, so only the undefined share
    # tells this rule from an admissible one
    quad = _half_defined(with_quadrature=True)
    assert check_qm_reproduction(quad, 5, stream(47)).status is CheckStatus.FAIL
    rep = check_zero_average(quad, 5, stream(47))
    assert rep.status is CheckStatus.INCONCLUSIVE and rep.extremal_value == 0.0
    assert rep.details["undefined_mass"] == 0.5
    m = _half_defined(with_quadrature=False)
    budget = 16384 + 4465
    for check, n_settings in ((check_zero_average, 3), (check_qm_reproduction, 2)):
        rep = check(m, n_settings, stream(48), mc_samples=budget)
        assert rep.status is CheckStatus.INCONCLUSIVE, rep.constraint_id
        assert rep.details["max_z"] == 0.0  # the kept rows alone would pass
        undefined = rep.details["undefined_rows"]
        assert abs(undefined / (n_settings * budget) - 0.5) < 0.01
        assert rep.samples_used + undefined == n_settings * budget
        assert check(m, n_settings, stream(48), mc_samples=budget).to_dict() == rep.to_dict()


def _nowhere_model(calls, with_quadrature=False):
    """A rule undefined on every row; ``calls`` records the sampler's row counts."""
    space = _scalar_uniform_space(1.0, 16)

    def sampler(gen, n):
        calls.append(n)
        return space.sampler(gen, n)

    def rule(batch, a, b):
        return np.zeros(len(batch)), np.zeros(len(batch), dtype=bool)

    quadrature = space.quadrature if with_quadrature else None
    return HiddenVariableModel("nowhere", LambdaSpace(space.shape, sampler, quadrature),
                               kernel_rule=rule)


def test_a_rule_undefined_everywhere_is_never_a_pass():
    # each block draws its rows once, whatever the pairs can use
    calls = []
    m = _nowhere_model(calls)
    for check in (check_zero_average, check_qm_reproduction):
        calls.clear()
        rep = check(m, 2, stream(49), mc_samples=3 * 16384)
        assert rep.status is CheckStatus.INCONCLUSIVE, rep.constraint_id
        assert rep.samples_used == 0 and rep.witness is None
        assert rep.details["undefined_rows"] == 2 * 3 * 16384
        assert calls == [16384] * 3
    quad = _nowhere_model(calls, with_quadrature=True)
    assert check_zero_average(quad, 2, stream(49)).status is CheckStatus.INCONCLUSIVE
    assert check_qm_reproduction(quad, 2, stream(49)).status is CheckStatus.FAIL
    for threads in (1, 2):
        with pytest.raises(MeasureZeroError, match="undefined on 196608 of 196608 draws"):
            estimate_correlation(m, Z, X, ExperimentConfig(shots=3 * 65536, seed=1,
                                                           threads=threads))
    with pytest.raises(MeasureZeroError, match="undefined on 1000 of 1000 draws"):
        estimate_correlation(m, Z, X, ExperimentConfig(shots=1000, mode="analytic", seed=1))


def _holed_model(holes):
    """k = a.b on uniform scalars with no quadrature, undefined at lambda = 2,
    which the first sampler call writes into its first ``holes`` rows."""
    space = _scalar_uniform_space(1.0, 16)
    calls = []

    def sampler(gen, n):
        batch = space.sampler(gen, n)
        if not calls:
            batch.scalars[:holes, 0] = 2.0
        calls.append(n)
        return batch

    def rule(batch, a, b):
        lam = batch.scalars[:, 0]
        return np.full(len(lam), setting_dot(a, b)), lam != 2.0

    return HiddenVariableModel("holed", LambdaSpace(space.shape, sampler), kernel_rule=rule)


@pytest.mark.parametrize("holes", [1, 2])
def test_a_hole_below_the_undefined_bound_is_dropped_and_counted(holes):
    # 2^20 draws: one undefined row is a share of 9.5e-7, below the bound of
    # 1e-6; two are 1.9e-6, above it
    n = 1 << 20
    assert (holes / n > _UNDEFINED_TOL) == (holes == 2)
    for check in (check_zero_average, check_qm_reproduction):
        rep = check(_holed_model(holes), 1, stream(59), mc_samples=n)
        assert rep.samples_used == n - holes and rep.details["undefined_rows"] == holes
        assert rep.status is (CheckStatus.PASS if holes == 1 else CheckStatus.INCONCLUSIVE)
    cfg = ExperimentConfig(shots=n, seed=2)
    if holes == 1:
        assert estimate_correlation(_holed_model(holes), Z, X, cfg).n_shots == n - 1
    else:
        with pytest.raises(MeasureZeroError, match="undefined on 2 of 1048576 draws"):
            estimate_correlation(_holed_model(holes), Z, X, cfg)


@pytest.mark.parametrize("check, n_settings", [(check_qm_reproduction, 20),
                                               (check_zero_average, 10)])
def test_mc_check_memory_peak_is_bounded(check, n_settings):
    # the validate defaults' pair counts at the benchmark's budget: one
    # lambda block and its kernel temporaries must stay under 3 MB. A first
    # call imports modules lazily (about 0.7 MB), so warm up outside the trace.
    m = builtin_model("cerf")
    check(m, 1, stream(44), mc_samples=100)
    tracemalloc.start()
    try:
        rep = check(m, n_settings, stream(44), mc_samples=250_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.samples_used == n_settings * 250_000
    assert peak <= 3_000_000, peak


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


def test_entry_sums_are_the_table_reduction():
    gen = RandomStream(52).generator()
    for _ in range(50):
        t = gen.uniform(-1.0, 1.0, (500, 2, 2)) * 10.0 ** gen.uniform(-20.0, 1.0, (500, 2, 2))
        t[::7, 0, 1] = -0.0
        t[::11, 1, 1] = 0.0
        assert _entry_sums(t.reshape(-1, 4)).tobytes() == t.sum(axis=(1, 2)).tobytes()


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


def test_expansion_evaluates_c_once_per_pair():
    base = builtin_model("family1")
    calls = []

    def fn(batch, a, b):
        calls.append(1)
        return base.c_function(batch, a, b)

    c = base.c_function
    counted = HiddenVariableModel("counted", base.lambda_space,
                                  c_function=CFunction(fn, c.s_plus, c.s_minus))
    rep = check_expansion(counted, stream(21), n_axes=2, n_lambda=64)
    assert len(calls) == 3 * 2 * 2  # eps x axes x endpoint sign
    assert rep.to_dict() == check_expansion(base, stream(21), n_axes=2, n_lambda=64).to_dict()


def _quadrature_model(name):
    recipes = {"square": ("square", 2.0), "cross_uab": ("cross_uab", 1.0)}
    return build_recipe_model(*recipes[name]) if name in recipes else builtin_model(name)


@pytest.mark.parametrize("name", ["family1", "family2", "wrongtrial", "square", "cross_uab"])
def test_shipped_quadratures_have_unit_mass_at_every_pair(name):
    # W == 1 exactly, so the undefined-mass bound cannot trip on rounding
    m = _quadrature_model(name)
    gen = stream(60).generator()
    pairs = [_random_pair(gen, endpoint=False) for _ in range(20)]
    for evaluate in (m.implied_c, m.kernel_masked):
        assert [weight for weight, _ in _quad_means(m, evaluate, pairs)] == [1.0] * 20
    for check in (check_zero_average, check_qm_reproduction):
        assert "undefined_mass" not in check(m, 20, stream(60)).details


@pytest.mark.parametrize("check, args", [(check_qm_reproduction, (20,)), (check_expansion, ())])
def test_quadrature_check_memory_peak_on_cross_uab(check, args):
    # 32768 nodes: C's evaluation and its temporaries, no (n, 2, 2) tables, and
    # the expansion's arithmetic in two buffers. Warm up outside the trace.
    m = _quadrature_model("cross_uab")
    check(m, *args, stream(53))
    tracemalloc.start()
    try:
        rep = check(m, *args, stream(53))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.status is CheckStatus.PASS
    assert peak <= 1_300_000, peak


@pytest.mark.parametrize("name", ["family1", "family2", "wrongtrial", "square", "cross_uab"])
def test_quadrature_means_keep_the_old_sums(name):
    # the quadrature sum against the sums it replaced: zero-average's
    # abs(sum(w * C)) and analytic simulate's sum(w * correlator)
    m = _quadrature_model(name)
    nodes, w = m.lambda_space.quadrature
    gen = stream(54).generator()
    pairs = [_random_pair(gen, endpoint=False) for _ in range(6)]
    old_zero = []
    for (a, b), (weight, mean) in zip(pairs, _quad_means(m, m.implied_c, pairs)):
        c, ok = m.implied_c(nodes, a, b)
        old_zero.append(abs(float((w[ok] * c[ok]).sum())))
        assert (weight, abs(float(mean))) == (np.sum(w), old_zero[-1])
    rep = check_zero_average(m, len(pairs), stream(54))
    worst = int(np.argmax(old_zero))
    assert rep.extremal_value == old_zero[worst]
    assert np.array_equal(rep.witness.a, pairs[worst][0])
    for a, b in pairs[:3]:
        corr, ok = m.correlations_masked(nodes, a, b)
        est = estimate_correlation(m, a, b, ExperimentConfig(mode="analytic", seed=3))
        assert (est.e_est, est.stderr, est.n_shots) == (float(np.sum(w[ok] * corr[ok])), 0.0,
                                                        len(nodes))


@pytest.mark.parametrize("name", ["family1", "family2", "wrongtrial", "square", "cross_uab"])
def test_qm_k_sum_table_matches_the_table_einsum(name):
    # qm-reproduction's mean table (W - sigma*tau*kbar)/4 against the sum of
    # w * tables it replaced. Both round the same sum: the k sum stays within
    # 1e-15 of the correctly rounded one (math.fsum), and within 1e-15 of the
    # einsum beyond the einsum's own rounding (6.9e-15 on cross_uab's nodes).
    m = _quadrature_model(name)
    nodes, w = m.lambda_space.quadrature
    gen = stream(55).generator()
    pairs = [_random_pair(gen, endpoint=False) for _ in range(20)]
    devs = []
    for (a, b), (weight, kbar) in zip(pairs, _quad_means(m, m.kernel_masked, pairs)):
        tables, ok = m.tables_masked(nodes, a, b)
        assert ok.all()
        by_k = (weight - _SIGMA_TAU * kbar) / 4.0
        exact = np.array([[math.fsum(w * tables[:, i, j]) for j in (0, 1)] for i in (0, 1)])
        by_tables = np.einsum("n,nij->ij", w, tables)
        assert np.abs(by_k - exact).max() <= 1e-15
        assert np.abs(by_k - by_tables).max() <= np.abs(by_tables - exact).max() + 1e-15
        devs.append(np.abs(by_k - qm_table(a, b)).max())
    assert check_qm_reproduction(m, len(pairs), stream(55)).extremal_value == max(devs)


def test_qm_reproduction_counts_an_undefined_quadrature_node_as_p_zero():
    # k = 2 a.b where lambda > 0, half the weight, and undefined elsewhere:
    # kbar = a.b is the singlet's, but the tables' mass is 1/2, so every entry
    # of sum w P misses the singlet's by 1/8
    space = _scalar_uniform_space(1.0, 16)

    def kernel_rule(batch, a, b):
        lam = batch.scalars[:, 0]
        return np.full(len(lam), 2.0 * dot(a, b)), lam > 0.0

    m = HiddenVariableModel("half-defined", space, kernel_rule=kernel_rule)
    rep = check_qm_reproduction(m, 5, stream(58))
    assert rep.status is CheckStatus.FAIL
    assert abs(rep.extremal_value - 0.125) <= 1e-15


def _expansion_reference(model, source, eps_list, n_axes):
    """check_expansion's per-pair rule as the whole-array expressions it replaced.

    Returns (the worst ratio and its row and pair, max rel per eps).
    """
    gen = as_generator(source)
    sp, sm = model.declared_exponents
    worst, per_eps = (-np.inf, None), {}
    for eps in eps_list:
        max_rel = 0.0
        for _ in range(n_axes):
            a, tangent = sample_uniform_sphere(gen), sample_uniform_sphere(gen)
            nodes, _ = model.lambda_space.nodes(gen, 2000)
            for sign in (+1.0, -1.0):
                b = with_dot(a, tangent, sign * (1.0 - eps))
                c = model.c_values(nodes, a, b)
                k = setting_dot(a, b) - c
                x = dot(a, b)
                g = c / ((1.0 + x) ** sp * (1.0 - x) ** sm)
                if sign > 0:
                    exact = (1.0 - k) / 4.0
                    formula = (eps / 4.0) * (1.0 + 2.0**sp * eps ** (sm - 1.0) * g)
                else:
                    exact = (1.0 + k) / 4.0
                    formula = (eps / 4.0) * (1.0 - 2.0**sm * eps ** (sp - 1.0) * g)
                rel = np.abs(formula - exact) / np.maximum(exact, eps / 40.0)
                j = int(rel.argmax())
                if rel[j] / eps > worst[0]:
                    worst = (float(rel[j]) / eps, float(rel[j]), a, b)
                max_rel = max(max_rel, float(rel[j]))
        per_eps[f"{eps:g}"] = max_rel
    return worst, per_eps


@pytest.mark.parametrize("name", ["family1", "family2", "square", "cross_uab"])
def test_expansion_in_place_keeps_the_expression_bits(name):
    m = _quadrature_model(name)
    rep = check_expansion(m, stream(56))
    (ratio, rel, a, b), per_eps = _expansion_reference(m, stream(56), (1e-2, 1e-3, 1e-4), 4)
    assert rep.extremal_value == ratio and rep.witness.value == rel
    assert np.array_equal(rep.witness.a, a) and np.array_equal(rep.witness.b, b)
    assert rep.details["max_rel_dev_per_eps"] == per_eps


def test_expansion_never_writes_into_a_view_of_the_nodes():
    # C returned as a view of the quadrature's scalars must stay untouched
    space = _scalar_uniform_space(0.5, 16)
    nodes, _ = space.quadrature
    before = nodes.scalars.copy()
    m = HiddenVariableModel("view-c", space,
                            c_function=CFunction(lambda batch, a, b: batch.scalars[:, 0], 1.0, 1.0))
    check_expansion(m, stream(57), n_axes=1)
    assert np.array_equal(nodes.scalars, before)


def test_qm_reproduction_quadrature_and_mc():
    rep = check_qm_reproduction(builtin_model("family2"), 5, stream(24))
    assert rep.status is CheckStatus.PASS
    assert rep.extremal_value <= 1e-10
    rep = check_qm_reproduction(builtin_model("cerf"), 3, stream(25), mc_samples=200_000)
    assert rep.status is CheckStatus.PASS
    assert rep.details["mode"] == "mc"


def test_quadrature_sums_over_partial_masks_use_each_pairs_valid_nodes():
    # a rule undefined on a different set of quadrature nodes at each pair, and
    # on none at some: every pair's zero-average and qm-reproduction values
    # are the sums over that pair's valid nodes, whatever the pairs before it
    space = _scalar_uniform_space(1.0, 16)
    nodes, w = space.quadrature

    def kernel_rule(batch, a, b):
        lam = batch.scalars[:, 0]
        x = dot(a, b)
        return x - 0.1 * lam * (1.0 + lam) * (1.0 - x * x), lam > a[2] - 0.5

    m = HiddenVariableModel("holey-quadrature", space, kernel_rule=kernel_rule)
    gen = stream(50).generator()
    pairs, zero, qm, partial = [], [], [], []
    for _ in range(12):
        a, b = _random_pair(gen, endpoint=False)
        c, ok = m.implied_c(nodes, a, b)
        zero.append(abs(float(np.sum(w[ok] * c[ok]))))
        t, ok = m.tables_masked(nodes, a, b)
        qm.append(float(np.abs(np.einsum("n,nij->ij", w[ok], t[ok]) - qm_table(a, b)).max()))
        pairs.append((a, b))
        partial.append(not ok.all())
    assert any(partial) and not all(partial)
    for n in range(1, len(pairs) + 1):
        for check, values in ((check_zero_average, zero), (check_qm_reproduction, qm)):
            rep = check(m, n, stream(50))
            worst = int(np.argmax(values[:n]))
            # qm-reproduction sums k, not tables: the same sum, rounded otherwise
            assert abs(rep.extremal_value - values[worst]) <= (
                0.0 if check is check_zero_average else 1e-15), (check.__name__, n)
            assert np.array_equal(rep.witness.a, pairs[worst][0])
            assert np.array_equal(rep.witness.b, pairs[worst][1])


def test_random_pair_draws_as_the_array_rule():
    # single points from one-row blocks and gen.uniform targets: the old draws
    new, old = stream(51).generator(), stream(51).generator()
    for i in range(2000):
        endpoint = i % 2 == 1
        a, t = sample_uniform_sphere(old, 1)[0], sample_uniform_sphere(old, 1)[0]
        if endpoint:
            u = old.uniform(-8.0, -2.0)
            x = (1.0 - 10.0**u) * (1.0 if old.random() < 0.5 else -1.0)
        else:
            x = old.uniform(-1.0, 1.0)
        got = _random_pair(new, endpoint)
        assert got[0].tobytes() == a.tobytes(), i
        assert got[1].tobytes() == with_dot(a, t, x).tobytes(), i
    assert new.random() == old.random()


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


SMALL_MC = ValidatorConfig(**{**FAST.__dict__, "mc_samples": 2000, "qm_settings": 2,
                               "mc_settings": 2})

_COUNT_FIELDS = ("n_settings", "n_lambda", "marginal_settings", "marginal_lambda", "mc_samples",
                 "mc_settings", "qm_settings", "coincident_axes", "endpoint_pairs",
                 "expansion_axes", "exponent_lambda")


@pytest.mark.parametrize("field, value, message", [
    *[(f, -1, f"{f} must be >= 0, got -1") for f in _COUNT_FIELDS],
    ("n_lambda", -5, "n_lambda must be >= 0, got -5"),
    ("exponent_points", 1, "exponent_points must be >= 2, got 1"),
    ("mc_samples", 17179852801, "mc_samples must be <= 17179852800"),
    ("mc_samples", 2**40, "mc_samples must be <= 17179852800"),
    ("threads", 0, "threads must be >= 1, got 0"),
    ("threads", -3, "threads must be >= 1, got -3"),
])
def test_validator_config_rejects_out_of_range_counts(field, value, message):
    # numpy's "negative dimensions" on family1, a silent serial run at threads 0,
    # or a million blocks before the stream split fails: each is caught here
    with pytest.raises(ValueError, match=message):
        ValidatorConfig(**{field: value})


@pytest.mark.parametrize("field, value", [
    ("n_lambda", 0), ("mc_samples", 0), ("mc_samples", 17179852800), ("exponent_points", 2),
    ("threads", 2000),
])
def test_validator_config_accepts_counts_at_their_bounds(field, value):
    assert getattr(ValidatorConfig(**{field: value}), field) == value


def test_run_full_suite_pool_is_bounded_by_cpus(forks, no_child_left):
    m = builtin_model("cerf")
    two_blocks = ValidatorConfig(**{**SMALL_MC.__dict__, "mc_samples": 2 * 16384})
    many = run_full_suite(m, ValidatorConfig(**{**two_blocks.__dict__, "threads": 2000}), seed=3)
    assert many.to_json() == run_full_suite(m, two_blocks, seed=3).to_json()
    # six checks and two MC jobs of two blocks, four usable CPUs: three forked
    # workers and the caller
    assert len(forks) == 3
    assert no_child_left()


@pytest.mark.parametrize("name", ["family1", "family2", "wrongtrial", "square", "cross_uab"])
def test_run_full_suite_with_quadrature_starts_no_pool(forks, name):
    m = _quadrature_model(name)
    serial = run_full_suite(m, FAST, seed=3).to_json()
    for threads in (2, 2000):
        cfg = ValidatorConfig(**{**FAST.__dict__, "threads": threads})
        assert run_full_suite(m, cfg, seed=3).to_json() == serial
    assert forks == []


def test_run_full_suite_without_quadrature_pools_its_mc_pass(forks, no_child_left):
    cfg = ValidatorConfig(**{**SMALL_MC.__dict__, "threads": 2})
    run_full_suite(builtin_model("cerf"), cfg, seed=1)
    assert len(forks) == 1  # one forked worker and the caller
    assert no_child_left()


def test_run_full_suite_cerf_small_budget_inconclusive():
    res = run_full_suite(builtin_model("cerf"), SMALL_MC, seed=1)
    assert res.exit_code == 2
    assert res.report("zero-average").status is CheckStatus.INCONCLUSIVE


def test_run_full_suite_makes_one_mc_pass(monkeypatch):
    blocks, passes = [], []
    mc_blocks, map_ordered = validator._mc_blocks, validator._map_ordered

    def recording_blocks(model, jobs, n):
        blocks.append(([(stream, len(pairs), evaluate) for stream, pairs, evaluate in jobs], n))
        return mc_blocks(model, jobs, n)

    def recording_pass(fn, args, threads):
        passes.append((len(args), threads))
        return map_ordered(fn, args, threads)

    monkeypatch.setattr(validator, "_mc_blocks", recording_blocks)
    monkeypatch.setattr(validator, "_map_ordered", recording_pass)
    m = builtin_model("cerf")
    cfg = ValidatorConfig(**{**SMALL_MC.__dict__, "threads": 2})
    res = run_full_suite(m, cfg, seed=1)
    root = RandomStream(1).split(3)
    # qm-reproduction's job first, then zero-average's, in one pass on the
    # suite's workers with the six per-lambda checks
    assert blocks == [([(root.split(9), cfg.qm_settings, m.kernel_masked),
                        (root.split(4), cfg.mc_settings, m.implied_c)], cfg.mc_samples)]
    n_blocks = -(-cfg.mc_samples // 16384)
    assert passes == [(6 + 2 * n_blocks, 2)]
    assert res.to_json() == run_full_suite(m, SMALL_MC, seed=1).to_json()


def _undefined_at_model(a0):
    """Kernel k = a.b on uniform scalars with no quadrature, undefined everywhere when a = a0."""
    space = _scalar_uniform_space(1.0, 16)

    def rule(batch, a, b):
        n = len(batch)
        return np.full(n, setting_dot(a, b)), np.full(n, not np.array_equal(a, a0))

    return HiddenVariableModel("undefined-at-a0", LambdaSpace(space.shape, space.sampler),
                               kernel_rule=rule)


@pytest.mark.parametrize("stalled, other", [("qm-reproduction", "zero-average"),
                                            ("zero-average", "qm-reproduction")])
def test_a_stalled_mc_check_leaves_the_other_as_it_runs_alone(monkeypatch, stalled, other):
    monkeypatch.setattr(geometry, "_usable_cpus", lambda: 2)
    root = RandomStream(5).split(3)
    cfg = ValidatorConfig(**{**SMALL_MC.__dict__, "mc_samples": 2 * 16384})
    streams = {"qm-reproduction": root.split(9), "zero-average": root.split(4)}
    # the first axis of the stalled check's pairs, undefined on every row
    # there: no other check draws it
    a0, _ = _random_pair(streams[stalled].generator(), endpoint=False)
    m = _undefined_at_model(a0)
    want = {
        "qm-reproduction": check_qm_reproduction(m, cfg.qm_settings, streams["qm-reproduction"],
                                                 mc_samples=cfg.mc_samples),
        "zero-average": check_zero_average(m, cfg.mc_settings, streams["zero-average"],
                                           mc_samples=cfg.mc_samples),
    }
    assert want[stalled].status is CheckStatus.INCONCLUSIVE
    assert want[stalled].details["undefined_rows"] == cfg.mc_samples
    assert want[other].status is CheckStatus.PASS
    for threads in (1, 2):
        res = run_full_suite(m, ValidatorConfig(**{**cfg.__dict__, "threads": threads}), seed=5)
        for cid in (stalled, other):
            got = json.dumps(res.report(cid).to_dict(), sort_keys=True, allow_nan=False)
            assert got == json.dumps(want[cid].to_dict(), sort_keys=True, allow_nan=False), cid
