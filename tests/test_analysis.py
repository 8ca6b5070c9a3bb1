import math

import numpy as np
import pytest

from silkin import (
    CoefficientFamily,
    DegenerateDenominator,
    InitialData,
    IntegrationError,
    IntegratorConfig,
    ModelParams,
    NoBracket,
    NoConvergence,
    OutOfRange,
    State,
    TruncatedSystem,
    TruncationRungError,
    convergence_study,
    differential_form_check,
    find_equilibrium,
    integrate,
    invariance_check,
    realize_coefficients,
    semigroup_residual,
    uniqueness_probe,
    weighted_norm,
)

from conftest import constant_rates, decaying_state, power_law_system, rates_from_arrays
from oracles import chain_equilibrium, rhs_norm


def _families(k_amp=1.0, gamma=1.0, p_amp=1.0, q_amp=0.0, q_exp=0.0):
    return (
        CoefficientFamily.power_law(k_amp, gamma),
        CoefficientFamily.constant(p_amp),
        CoefficientFamily.power_law(q_amp, q_exp),
    )


def test_convergence_truncation_invariant_dynamics():
    # supported on i <= 2 with no ingestion: every rung solves the same ODE
    families = (
        CoefficientFamily.constant(0.0),
        CoefficientFamily.constant(0.8),
        CoefficientFamily.constant(0.3),
    )
    report = convergence_study(
        ModelParams(r=0.2, alpha=0.1),
        families,
        InitialData(x0=1.0, M=(1.0, 0.5, 0.25)),
        (4, 8, 16),
        2.0,
        IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14),
    )
    assert np.all(report.gaps < 1e-10)


def test_convergence_gaps_decrease():
    # point mass at cohort 0: the mass reaching cohort j within T=1 falls like
    # x^j / j!, so each rung of a dense low ladder cuts resolvable mass
    report = convergence_study(
        ModelParams(r=0.0, alpha=0.0),
        _families(k_amp=1.0, gamma=0.0, p_amp=1.0),
        InitialData(x0=1.0, M=(1.0,)),
        (4, 6, 8, 10),
        1.0,
        IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15),
    )
    assert report.decreasing
    assert np.all(report.x_gaps <= report.gaps)


def test_convergence_unreachable_tail_is_noise():
    # transport cannot reach the top cohorts within the window
    report = convergence_study(
        ModelParams(r=0.1, alpha=0.1),
        _families(k_amp=1.0, gamma=0.0, p_amp=0.5),
        InitialData(x0=0.5, b=1.0, rho=0.2),
        (16, 24, 32),
        0.5,
        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13),
    )
    assert report.gaps[-1] < 1e-9


def test_convergence_validates_ladder():
    with pytest.raises(ValueError):
        convergence_study(
            ModelParams(0.0, 0.0), _families(), InitialData(x0=0.0, M=(1.0,)), (8, 8), 1.0
        )


def test_convergence_tags_failing_rung():
    # coarse tolerances undershoot the cone on this run; a tight floor aborts
    # the first rung and the error identifies it
    families = (
        CoefficientFamily.power_law(1.0, 1.0),
        CoefficientFamily.constant(0.7),
        CoefficientFamily.power_law(0.5, 1.0),
    )
    cfg = IntegratorConfig(rel_tol=1e-2, abs_tol=1e-4, negativity_floor=-1e-5)
    with pytest.raises(TruncationRungError) as err:
        convergence_study(
            ModelParams(0.0, 0.0), families, InitialData(x0=2.0, b=1.0, rho=0.7), (32, 48), 8.0, cfg
        )
    assert err.value.n == 32


def test_uniqueness_zero_dynamics():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(5))
    y0 = decaying_state(5)
    gap = uniqueness_probe(sys_, y0, 2.0, IntegratorConfig(), IntegratorConfig(method="bdf"))
    assert gap == 0.0


def test_uniqueness_decoupled():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(5, p=0.7, q=0.3))
    gap = uniqueness_probe(
        sys_,
        decaying_state(5),
        2.0,
        IntegratorConfig(),
        IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_step=0.1),
    )
    assert gap < 1e-8


def test_uniqueness_coupled():
    sys_ = power_law_system(32, gamma=1.0)
    cfg_a = IntegratorConfig(rel_tol=1e-9, abs_tol=1e-12)
    cfg_b = IntegratorConfig(rel_tol=1e-10, abs_tol=1e-13, max_step=0.2)
    s0 = decaying_state(32, rho=0.5)
    gap = uniqueness_probe(sys_, s0, 3.0, cfg_a, cfg_b)
    budget = cfg_a.rel_tol + cfg_b.rel_tol
    scale = weighted_norm(s0.x, s0.M) + 0.7 * 3.0
    assert gap < 10.0 * budget * scale


def test_semigroup_degenerate_legs_exact():
    sys_ = power_law_system(10, gamma=0.5)
    y0 = decaying_state(10)
    assert semigroup_residual(sys_, y0, 0.0, 3.0) == 0.0
    assert semigroup_residual(sys_, y0, 3.0, 0.0) == 0.0
    assert semigroup_residual(sys_, y0, 0.0, 0.0) == 0.0


def test_semigroup_legs_that_round_to_zero_length_are_skipped():
    sys_ = power_law_system(6, gamma=0.5)
    y0 = decaying_state(6)
    assert semigroup_residual(sys_, y0, 1e-17, 0.5) == 0.0  # 0.5 + 1e-17 == 0.5
    late = State(t=1.0, x=y0.x, M=y0.M)
    assert semigroup_residual(sys_, late, 0.5, 1e-17) == 0.0  # 1.0 + 1e-17 == 1.0
    assert semigroup_residual(sys_, late, 1e-17, 1e-17) == 0.0


def test_semigroup_decay_restart():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(4, p=1.0))
    y0 = State(t=0.0, x=0.0, M=[1.0, 0.0, 0.0, 0.0, 0.0])
    res = semigroup_residual(sys_, y0, 0.5, 0.5, IntegratorConfig(rel_tol=1e-11, abs_tol=1e-14))
    assert res < 1e-9


def test_semigroup_rejects_negative_times():
    sys_ = power_law_system(6, gamma=0.0)
    with pytest.raises(ValueError):
        semigroup_residual(sys_, decaying_state(6), -1.0, 1.0)


def test_invariance_zero_state():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(4, k=1.0, p=0.5))
    traj = integrate(sys_, State(t=0.0, x=0.0, M=np.zeros(5)), 1.0)
    report = invariance_check(traj, 0.5)
    assert report.ok
    assert report.max_norm == 0.0


def test_invariance_gamma_zero_matches_norm_bound():
    sys_ = power_law_system(16, gamma=0.0)
    y0 = decaying_state(16)
    traj = integrate(sys_, y0, 3.0)
    report = invariance_check(traj, 0.0)
    assert report.ok
    # the gamma=0 envelope dominates the linear-growth norm budget it implies
    supply = sys_.params.r + sys_.params.alpha
    assert report.max_norm <= weighted_norm(y0.x, y0.M) + supply * 3.0 + 1e-6


def test_invariance_power_law_half():
    sys_ = power_law_system(64, gamma=0.5)
    traj = integrate(sys_, decaying_state(64, rho=0.6), 3.0)
    report = invariance_check(traj, 0.5)
    assert report.ok
    assert report.margin > 0.0


def test_equilibrium_analytic_chain():
    n = 64
    rates = constant_rates(n, k=1.0, p=1.0, q=0.0)
    sys_ = TruncatedSystem(ModelParams(r=1.0, alpha=1.0), rates)
    result = find_equilibrium(sys_, tol=1e-13)
    tail = 2.0 ** -(n + 1)
    assert abs(result.x_star - 1.0) < 1e-8 + tail
    expected = 2.0 ** -(np.arange(n + 1) + 1.0)
    assert np.max(np.abs(result.M_star - expected)) <= 1e-8 + tail
    # the oracle chain at the found root agrees with the solver's cohorts
    oracle = chain_equilibrium(n, result.x_star)
    np.testing.assert_allclose(result.M_star, oracle, rtol=1e-12)
    assert result.residual < 1e-13
    assert result.tail_mass < 1e-18


@pytest.mark.parametrize(
    "k,p,tail_mass",
    [
        (CoefficientFamily.constant(1.0), CoefficientFamily.constant(1.0), 0.0039846345629914294),
        (CoefficientFamily.table([1.0] * 8 + [0.0]), CoefficientFamily.constant(1.0), 0.0),
        (CoefficientFamily.table([1.0] * 8 + [1e20]), CoefficientFamily.table([1.0] * 8 + [1e-10]), math.inf),
    ],
    ids=["geometric", "no-ingestion-past-n", "ratio-rounds-to-one"],
)
def test_equilibrium_tail_mass(k, p, tail_mass):
    # the cut-off tail M_n r / (1 - r), r = k_n x / (k_n x + p_n + q_n): geometric, empty, or unbounded
    rates = realize_coefficients(k, p, CoefficientFamily.constant(0.0), 8)
    result = find_equilibrium(TruncatedSystem(ModelParams(r=1.0, alpha=1.0), rates))
    assert result.tail_mass == tail_mass


def test_equilibrium_zero_supply():
    sys_ = TruncatedSystem(ModelParams(r=0.0, alpha=0.0), constant_rates(8, k=1.0, p=0.5, q=0.5))
    result = find_equilibrium(sys_)
    assert result.x_star == 0.0
    assert np.array_equal(result.M_star, np.zeros(9))
    assert result.residual == 0.0


def test_equilibrium_no_bracket_without_macrophage_supply():
    # r = 0 and alpha > 0: free quartz only grows, so the doubling search stops before x overflows
    sys_ = TruncatedSystem(ModelParams(r=0.0, alpha=1.0), constant_rates(8, k=1.0, p=1.0))
    with pytest.raises(NoBracket, match="stayed positive"):
        find_equilibrium(sys_)


def test_equilibrium_residual_contract(rng):
    sys_ = power_law_system(32, gamma=0.5, r=0.8, alpha=0.6, q_amp=0.2, q_exp=0.5)
    result = find_equilibrium(sys_, tol=1e-12)
    assert result.residual <= 1e-12
    assert rhs_norm(sys_, result.x_star, result.M_star) <= 1e-12


# Two seeded draws on which a stop test on a private copy of dx/dt passed while the
# field's max-abs value stayed above tol (2.73e-12 and 1.14e-12).
SYSTEM_A = dict(
    n=32, gamma=0.13061735709416966, r=303.55755334918825, alpha=611.3947958507456,
    k_amp=1.4947213869479823, p_amp=1.9828272674597607, q_amp=0.483262605976266, q_exp=1.1576635301662654,
)
SYSTEM_B = dict(
    n=64, gamma=0.13634144711257246, r=99.59389142323518, alpha=857.7129321681635,
    k_amp=1.4558638227228988, p_amp=0.054570605212121454, q_amp=0.0068312627121665005, q_exp=0.6277647154934536,
)


@pytest.mark.parametrize("params", [SYSTEM_A, SYSTEM_B], ids=["A", "B"])
def test_equilibrium_residual_is_the_stop_test(params):
    sys_ = power_law_system(**params)
    result = find_equilibrium(sys_, tol=1e-12)
    assert result.residual <= 1e-12
    assert rhs_norm(sys_, result.x_star, result.M_star) == result.residual


def test_equilibrium_is_fixed_point_of_flow():
    sys_ = power_law_system(24, gamma=0.5, r=1.0, alpha=0.5, q_amp=0.3, q_exp=1.0)
    result = find_equilibrium(sys_, tol=1e-10)
    y_star = State(t=0.0, x=result.x_star, M=result.M_star)
    moved = integrate(sys_, y_star, 1.0, IntegratorConfig(rel_tol=1e-12, abs_tol=1e-15)).final_state
    assert weighted_norm(moved.x - y_star.x, moved.M - y_star.M, 1.0) < 10.0 * 1e-10 * 10.0


def test_equilibrium_no_bracket_when_quartz_cannot_leave():
    # p = 0 means no quartz ever exits; with alpha > 0 there is no steady state
    sys_ = TruncatedSystem(ModelParams(r=1.0, alpha=1.0), constant_rates(8, k=1.0, p=0.0, q=1.0))
    with pytest.raises(NoBracket):
        find_equilibrium(sys_)


def test_equilibrium_no_bracket_without_ingestion():
    sys_ = TruncatedSystem(ModelParams(r=1.0, alpha=1.0), constant_rates(8, k=0.0, p=1.0, q=0.0))
    with pytest.raises(NoBracket):
        find_equilibrium(sys_)


def test_equilibrium_degenerate_denominator():
    sys_ = TruncatedSystem(ModelParams(r=1.0, alpha=0.5), constant_rates(8, k=1.0, p=0.0, q=0.0))
    with pytest.raises(DegenerateDenominator):
        find_equilibrium(sys_)  # at x = 0 every denominator k_i x + p_i + q_i vanishes


def test_equilibrium_no_convergence_is_a_named_integration_error():
    # |phi| bottoms out near 2e-16 here, so a zero tolerance cannot be met
    sys_ = TruncatedSystem(ModelParams(r=1.0, alpha=1.0), constant_rates(64, k=1.0, p=1.0, q=0.3))
    with pytest.raises(NoConvergence, match="best residual") as info:
        find_equilibrium(sys_, tol=0.0)
    assert isinstance(info.value, IntegrationError)


def test_equilibrium_explicit_bracket():
    sys_ = TruncatedSystem(
        ModelParams(r=1.0, alpha=1.0), constant_rates(32, k=1.0, p=1.0, q=0.0)
    )
    result = find_equilibrium(sys_, x_bracket=(0.5, 4.0), tol=1e-12)
    assert result.x_star == pytest.approx(1.0, abs=1e-8)
    with pytest.raises(NoBracket):
        find_equilibrium(sys_, x_bracket=(2.0, 4.0))
    with pytest.raises(ValueError):
        find_equilibrium(sys_, x_bracket=(-1.0, 2.0))


def test_equilibrium_bracket_selects_one_of_two_roots():
    # steady states are not unique: the search from x = 0 finds the lower root, and only an
    # explicit bracket reaches the upper one, which is why equilibrium.x_bracket stays settable
    n = 8
    p = np.full(n + 1, 0.01)
    p[1], p[n] = 5.0, 1e-4
    q = np.full(n + 1, 0.01)
    q[n] = 0.1
    sys_ = TruncatedSystem(ModelParams(r=1.0, alpha=0.3), rates_from_arrays(n, np.ones(n + 1), p, q))
    lower = find_equilibrium(sys_)
    upper = find_equilibrium(sys_, x_bracket=(1.0, 100.0))
    assert lower.x_star == pytest.approx(0.0085914, rel=1e-5)
    assert upper.x_star == pytest.approx(12.8626, rel=1e-5)
    assert lower.residual <= 1e-12 and upper.residual <= 1e-12


def test_differential_form_constant_solution():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(4))
    traj = integrate(sys_, decaying_state(4), 1.0)
    assert differential_form_check(traj, np.linspace(0.2, 0.8, 5)) == 0.0


def test_differential_form_decay_oracle():
    sys_ = TruncatedSystem(ModelParams(0.0, 0.0), constant_rates(4, p=0.6, q=0.4))
    traj = integrate(sys_, State(t=0.0, x=0.0, M=[1.0, 0, 0, 0, 0]), 1.0)
    assert differential_form_check(traj, [0.5]) < 1e-6


def test_differential_form_grid_stays_inside_the_run():
    traj = integrate(power_law_system(8, gamma=1.0), decaying_state(8), 2.0)
    assert differential_form_check(traj, [traj.t_start, 1.0, traj.t_end]) < 1e-6
    for outside in (math.nextafter(traj.t_start, -1.0), math.nextafter(traj.t_end, 3.0)):
        with pytest.raises(OutOfRange):
            differential_form_check(traj, [1.0, outside])
