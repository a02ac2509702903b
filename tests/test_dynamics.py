import importlib.util
import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import cellstage
from cellstage import _backend, _rng, dynamics, frames, linalg2
from cellstage.dynamics import (
    MAX_STEPS,
    MassParams,
    StageState,
    Trajectory,
    Wrench,
    ZERO_WRENCH,
    analytic_constant_input_acceleration,
    analytic_constant_input_solution,
    analytic_homogeneous_acceleration,
    analytic_homogeneous_solution,
    constant_input_columns,
    dynamics_residual,
    homogeneous_columns,
    homogeneous_residual_maxnorm,
    image_dynamics_residual,
    inertia_matrix,
    mass_matrix,
    posit_table_matrix,
    posit_table_matrix_fin,
    simulate,
)
from cellstage.errors import DomainError, SingularError
from cellstage.frames import Calibration, transformation_matrix
from cellstage.linalg2 import IDENTITY, Mat2, Vec2, determinant, inverse2, mat_vec_mul
from cellstage._rng import SplitMix64

mpmath.mp.dps = 50

CANONICAL_MASSES = MassParams(0.5, 0.3, 0.2)  # x-effective 1.0, y-effective 0.5
REST = StageState(0.0, 0.0, 0.0, 0.0, 0.0)


def reference_rk4_constant_input(m_eff, c, x0, v0, t_end, dt):
    """Independent oracle: numpy RK4 on the single-axis first-order system."""

    def f(state):
        return np.array([state[1], (c - state[1]) / m_eff])

    state = np.array([x0, v0], dtype=float)
    steps = round(t_end / dt)
    for _ in range(steps):
        k1 = f(state)
        k2 = f(state + 0.5 * dt * k1)
        k3 = f(state + 0.5 * dt * k2)
        k4 = f(state + dt * k3)
        state = state + (dt / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return state


class TestMassParams:
    def test_effective_masses(self):
        assert CANONICAL_MASSES.x_effective == 1.0
        assert CANONICAL_MASSES.y_effective == 0.5

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, 1e-13])
    def test_rejects_bad_masses(self, bad):
        with pytest.raises(DomainError):
            MassParams(bad, 1.0, 1.0)
        with pytest.raises(DomainError):
            MassParams(1.0, bad, 1.0)
        with pytest.raises(DomainError):
            MassParams(1.0, 1.0, bad)


class TestMassMatrix:
    def test_unit_masses(self):
        assert mass_matrix(MassParams(1.0, 1.0, 1.0)) == Mat2(3.0, 0.0, 0.0, 2.0)

    def test_fractional_masses(self):
        assert mass_matrix(CANONICAL_MASSES) == Mat2(1.0, 0.0, 0.0, 0.5)

    def test_structure(self):
        rng = SplitMix64(5)
        for _ in range(100):
            m = mass_matrix(
                MassParams(
                    rng.log_uniform(1e-3, 10.0),
                    rng.log_uniform(1e-3, 10.0),
                    rng.log_uniform(1e-3, 10.0),
                )
            )
            assert m.a11 > 0.0 and m.a22 > 0.0
            assert m.a12 == 0.0 and m.a21 == 0.0


class TestPositTableMatrix:
    def test_is_identity(self):
        assert posit_table_matrix() == IDENTITY

    def test_leaves_vectors_unchanged(self):
        v = Vec2(3.5, -2.25)
        assert mat_vec_mul(posit_table_matrix(), v) == v

    def test_determinant(self):
        assert determinant(posit_table_matrix()) == 1.0


class TestDynamicsResidual:
    def test_rest_state(self):
        r = dynamics_residual(CANONICAL_MASSES, Vec2(0, 0), Vec2(0, 0), ZERO_WRENCH)
        assert r == Vec2(0.0, 0.0)

    def test_decaying_x_velocity(self):
        # x'' = -x'/(mx+my+mp) with effective mass 1.0: accel -1 balances vel 1.
        r = dynamics_residual(CANONICAL_MASSES, Vec2(-1, 0), Vec2(1, 0), ZERO_WRENCH)
        assert r == Vec2(0.0, 0.0)

    def test_steady_state_under_torque(self):
        w = Wrench(taux=2.0)
        r = dynamics_residual(MassParams(1, 1, 1), Vec2(0, 0), Vec2(2, 0), w)
        assert r == Vec2(0.0, 0.0)

    def test_affine_in_wrench(self):
        rng = SplitMix64(17)
        for _ in range(50):
            accel = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            vel = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            w = Wrench(*(rng.uniform(-10, 10) for _ in range(4)))
            base = dynamics_residual(CANONICAL_MASSES, accel, vel, ZERO_WRENCH)
            shifted = dynamics_residual(CANONICAL_MASSES, accel, vel, w)
            dev = (shifted - (base - w.net_input())).inf_norm()
            assert dev <= 1e-12 * max(1.0, base.inf_norm(), w.inf_norm())

    def test_linear_in_accel_and_vel_jointly(self):
        rng = SplitMix64(18)
        for _ in range(50):
            a1 = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            a2 = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            v1 = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            v2 = Vec2(rng.uniform(-10, 10), rng.uniform(-10, 10))
            combined = dynamics_residual(CANONICAL_MASSES, a1 + a2, v1 + v2, ZERO_WRENCH)
            split = dynamics_residual(
                CANONICAL_MASSES, a1, v1, ZERO_WRENCH
            ) + dynamics_residual(CANONICAL_MASSES, a2, v2, ZERO_WRENCH)
            scale = max(1.0, combined.inf_norm(), split.inf_norm())
            assert (combined - split).inf_norm() <= 1e-12 * scale


class TestAnalyticHomogeneousSolution:
    def test_initial_conditions(self):
        init = StageState(0.0, 1.5, -2.0, 3.0, -4.0)
        got = analytic_homogeneous_solution(CANONICAL_MASSES, init, 0.0)
        assert got == init

    def test_unit_mass_against_high_precision(self):
        init = StageState(0.0, 0.0, 0.0, 1.0, 0.0)
        got = analytic_homogeneous_solution(CANONICAL_MASSES, init, 1.0)
        want = float(1 - mpmath.exp(-1))
        assert abs(got.x - want) <= 1e-15
        assert got.x == pytest.approx(0.6321206, abs=1e-7)
        assert abs(got.xdot - float(mpmath.exp(-1))) <= 1e-15

    def test_long_time_asymptote(self):
        init = StageState(0.0, 2.0, -1.0, 3.0, 4.0)
        mx = CANONICAL_MASSES.x_effective
        got = analytic_homogeneous_solution(CANONICAL_MASSES, init, 50.0 * mx)
        assert abs(got.x - (init.x + init.xdot * mx)) <= 1e-12

    def test_rejects_bad_times(self):
        init = StageState(0.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            analytic_homogeneous_solution(CANONICAL_MASSES, init, -0.5)
        shifted = StageState(1.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            analytic_homogeneous_solution(CANONICAL_MASSES, shifted, 2.0)

    def test_velocity_is_position_derivative(self):
        init = StageState(0.0, 1.0, -2.0, 5.0, -3.0)
        h = 1e-6
        for t in (0.5, 1.0, 4.0):
            got = analytic_homogeneous_solution(CANONICAL_MASSES, init, t)
            fd = (
                analytic_homogeneous_solution(CANONICAL_MASSES, init, t + h).x
                - analytic_homogeneous_solution(CANONICAL_MASSES, init, t - h).x
            ) / (2 * h)
            assert got.xdot == pytest.approx(fd, abs=1e-8)

    def test_residual_vanishes_on_grid(self):
        rng = SplitMix64(99)
        for _ in range(20):
            m = MassParams(*(rng.log_uniform(1e-3, 10.0) for _ in range(3)))
            init = StageState(
                0.0,
                rng.uniform(-100, 100),
                rng.uniform(-100, 100),
                rng.uniform(-100, 100),
                rng.uniform(-100, 100),
            )
            for i in range(51):
                t = 10.0 * i / 50
                state = analytic_homogeneous_solution(m, init, t)
                accel = analytic_homogeneous_acceleration(m, init, t)
                residual = dynamics_residual(
                    m, accel, Vec2(state.xdot, state.ydot), ZERO_WRENCH
                )
                assert residual.inf_norm() <= 1e-9


def random_closed_form_case(rng):
    m = MassParams(*(rng.log_uniform(1e-3, 10.0) for _ in range(3)))
    init = StageState(0.0, *(rng.uniform(-100, 100) for _ in range(4)))
    w = Wrench(*(rng.uniform(-10, 10) for _ in range(4)))
    times = [0.0] + [rng.uniform(0.0, 10.0) for _ in range(20)]
    return m, init, w, times


class TestClosedFormColumns:
    def test_homogeneous_matches_scalar_expressions_bitwise(self):
        rng = SplitMix64(2024)
        for _ in range(50):
            m, init, _, times = random_closed_form_case(rng)
            columns = homogeneous_columns(m, init, times)
            mx, my = m.x_effective, m.y_effective
            want = [[] for _ in range(6)]
            for t in times:
                ex = math.exp(-t / mx)
                ey = math.exp(-t / my)
                want[0].append(init.x + init.xdot * mx * (1.0 - ex))
                want[1].append(init.y + init.ydot * my * (1.0 - ey))
                want[2].append(init.xdot * ex)
                want[3].append(init.ydot * ey)
                want[4].append(-(init.xdot / mx) * math.exp(-t / mx))
                want[5].append(-(init.ydot / my) * math.exp(-t / my))
            assert list(map(list, columns)) == want

    def test_constant_input_matches_scalar_expressions_bitwise(self):
        rng = SplitMix64(2025)
        for _ in range(50):
            m, init, w, times = random_closed_form_case(rng)
            columns = constant_input_columns(m, init, w, times)
            mx, my = m.x_effective, m.y_effective
            cx = w.taux - w.fexd
            cy = w.tauy - w.feyd
            gx = cx - init.xdot
            gy = cy - init.ydot
            want = [[] for _ in range(4)]
            for t in times:
                ex = math.exp(-t / mx)
                ey = math.exp(-t / my)
                want[0].append(init.x + (cx * t + mx * gx * (ex - 1.0)))
                want[1].append(init.y + (cy * t + my * gy * (ey - 1.0)))
                want[2].append(cx - gx * ex)
                want[3].append(cy - gy * ey)
            assert list(map(list, columns)) == want

    def test_scalar_wrappers_are_one_row_columns(self):
        rng = SplitMix64(2026)
        m, init, w, times = random_closed_form_case(rng)
        homog = homogeneous_columns(m, init, times)
        const = constant_input_columns(m, init, w, times)
        for i, t in enumerate(times):
            state = analytic_homogeneous_solution(m, init, t)
            assert (state.x, state.y, state.xdot, state.ydot) == tuple(
                column[i] for column in homog[:4]
            )
            accel = analytic_homogeneous_acceleration(m, init, t)
            assert (accel.e1, accel.e2) == (homog[4][i], homog[5][i])
            state = analytic_constant_input_solution(m, init, w, t)
            assert (state.x, state.y, state.xdot, state.ydot) == tuple(
                column[i] for column in const
            )

    @pytest.mark.parametrize(
        "core", [homogeneous_columns, constant_input_columns], ids=["homog", "const"]
    )
    @pytest.mark.parametrize(
        "bad, message",
        [(-0.5, r"t must be >= 0, got -0\.5"), (math.nan, r"t must be finite, got nan")],
    )
    def test_rejects_bad_time_anywhere_in_column(self, core, bad, message):
        init = StageState(0.0, 0.0, 0.0, 1.0, 1.0)
        args = (ZERO_WRENCH,) if core is constant_input_columns else ()
        with pytest.raises(DomainError, match=message):
            core(CANONICAL_MASSES, init, *args, [0.0, 1.0, bad, 2.0])

    @pytest.mark.parametrize(
        "core", [homogeneous_columns, constant_input_columns], ids=["homog", "const"]
    )
    def test_rejects_initial_state_off_zero(self, core):
        shifted = StageState(1.0, 0.0, 0.0, 1.0, 1.0)
        args = (ZERO_WRENCH,) if core is constant_input_columns else ()
        with pytest.raises(DomainError, match=r"initial state must be at t=0"):
            core(CANONICAL_MASSES, shifted, *args, [2.0])

    def test_overflowing_horizon_raises_domain_error(self):
        # c*t overflows to inf at t = 1e308 with c = 10.
        init = StageState(0.0, 0.0, 0.0, 0.0, 0.0)
        w = Wrench(taux=10.0)
        with pytest.raises(DomainError, match=r"x must be finite, got inf"):
            constant_input_columns(CANONICAL_MASSES, init, w, [0.0, 1e308])
        with pytest.raises(DomainError, match=r"x must be finite, got inf"):
            analytic_constant_input_solution(CANONICAL_MASSES, init, w, 1e308)

    def test_acceleration_ignores_the_positions_it_does_not_return(self):
        # vel0 * M = 1e310 makes x inf, but the acceleration is about -1e290.
        m = MassParams(1e10, 1.0, 1.0)
        init = StageState(0.0, 0.0, 0.0, 1e300, 0.0)
        mx_eff, my_eff = m.x_effective, m.y_effective
        want_x = -(1e300 / mx_eff) * math.exp(-1.0 / mx_eff)
        accel = analytic_homogeneous_acceleration(m, init, 1.0)
        assert (accel.e1, accel.e2) == (want_x, -0.0)
        w = Wrench(tauy=-3.0)
        want_y = -(3.0 / my_eff) * math.exp(-1.0 / my_eff)
        accel = analytic_constant_input_acceleration(m, init, w, 1.0)
        assert (accel.e1, accel.e2) == (want_x, want_y)

    def test_overflowing_acceleration_raises_domain_error(self):
        # vel0 / M overflows to inf on 1e-12 kg masses.
        m = MassParams(1e-12, 1e-12, 1e-12)
        init = StageState(0.0, 0.0, 0.0, 1e300, 0.0)
        with pytest.raises(DomainError, match=r"^xddot must be finite, got -inf$"):
            analytic_homogeneous_acceleration(m, init, 0.0)
        with pytest.raises(DomainError, match=r"^xddot must be finite, got -inf$"):
            analytic_constant_input_acceleration(m, init, ZERO_WRENCH, 0.0)

    def test_empty_column_gives_empty_columns(self):
        init = StageState(0.0, 0.0, 0.0, 1.0, 1.0)
        assert homogeneous_columns(CANONICAL_MASSES, init, []) == ([],) * 6
        assert constant_input_columns(CANONICAL_MASSES, init, ZERO_WRENCH, []) == (
            [],
        ) * 4


class TestHomogeneousResidualSweep:
    def test_matches_scalar_route_exactly(self):
        m = MassParams(0.7, 0.4, 0.25)
        init = StageState(0.0, 3.0, -2.0, 7.0, -11.0)
        points = 101
        swept = homogeneous_residual_maxnorm(m, init, 10.0, points)
        worst = 0.0
        for i in range(points):
            t = 10.0 * i / (points - 1)
            state = analytic_homogeneous_solution(m, init, t)
            accel = analytic_homogeneous_acceleration(m, init, t)
            residual = dynamics_residual(
                m, accel, Vec2(state.xdot, state.ydot), ZERO_WRENCH
            )
            worst = max(worst, residual.inf_norm())
        assert swept == worst

    def test_single_point_evaluates_only_t0(self):
        # Effective masses 1.0 and 0.5: with unit velocities the residual
        # cancels exactly at t = 0, and t1 never enters a 1-point grid.
        m = MassParams(0.5, 0.25, 0.25)
        init = StageState(0.0, 0.0, 0.0, 1.0, 1.0)
        assert homogeneous_residual_maxnorm(m, init, 10.0, 1) == 0.0

    def test_rejects_bad_grid(self):
        init = StageState(0.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError):
            homogeneous_residual_maxnorm(CANONICAL_MASSES, init, 10.0, 0)
        with pytest.raises(DomainError):
            homogeneous_residual_maxnorm(CANONICAL_MASSES, init, -1.0, 10)


class TestAnalyticConstantInputSolution:
    def test_zero_wrench_reduces_bitwise(self):
        rng = SplitMix64(31)
        for _ in range(200):
            m = MassParams(*(rng.log_uniform(1e-3, 10.0) for _ in range(3)))
            init = StageState(0.0, *(rng.uniform(-100, 100) for _ in range(4)))
            t = rng.uniform(0.0, 10.0)
            a = analytic_homogeneous_solution(m, init, t)
            b = analytic_constant_input_solution(m, init, ZERO_WRENCH, t)
            assert a == b

    def test_unit_input_against_high_precision(self):
        # x-effective mass 1, x0 = xd0 = 0, c = 1: x(t) = t - 1 + exp(-t).
        init = StageState(0.0, 0.0, 0.0, 0.0, 0.0)
        w = Wrench(taux=1.0)
        got = analytic_constant_input_solution(CANONICAL_MASSES, init, w, 1.0)
        want = float(mpmath.mpf(1) - 1 + mpmath.exp(-1))
        assert abs(got.x - want) <= 1e-15
        assert got.x == pytest.approx(0.3678794, abs=1e-7)

    def test_against_independent_rk4_oracle(self):
        m_eff = CANONICAL_MASSES.x_effective
        init = StageState(0.0, 0.25, 0.0, -1.5, 0.0)
        w = Wrench(taux=2.0, fexd=0.5)
        got = analytic_constant_input_solution(CANONICAL_MASSES, init, w, 1.0)
        oracle = reference_rk4_constant_input(
            m_eff, w.taux - w.fexd, init.x, init.xdot, 1.0, 2e-5
        )
        assert got.x == pytest.approx(oracle[0], abs=1e-10)
        assert got.xdot == pytest.approx(oracle[1], abs=1e-10)

    def test_velocity_approaches_constant_input(self):
        init = StageState(0.0, 0.0, 0.0, 5.0, -5.0)
        w = Wrench(taux=2.0, tauy=-1.0, fexd=0.5, feyd=0.5)
        got = analytic_constant_input_solution(CANONICAL_MASSES, init, w, 200.0)
        assert got.xdot == pytest.approx(w.taux - w.fexd, abs=1e-12)
        assert got.ydot == pytest.approx(w.tauy - w.feyd, abs=1e-12)

    def test_solves_the_ode(self):
        rng = SplitMix64(47)
        for _ in range(100):
            m = MassParams(*(rng.log_uniform(1e-3, 10.0) for _ in range(3)))
            init = StageState(0.0, *(rng.uniform(-100, 100) for _ in range(4)))
            w = Wrench(*(rng.uniform(-10, 10) for _ in range(4)))
            t = rng.uniform(0.0, 10.0)
            state = analytic_constant_input_solution(m, init, w, t)
            accel = analytic_constant_input_acceleration(m, init, w, t)
            residual = dynamics_residual(
                m, accel, Vec2(state.xdot, state.ydot), w
            )
            assert residual.inf_norm() <= 1e-9 * (1.0 + w.inf_norm())


class TestSimulate:
    def test_equilibrium_stays_put(self):
        init = StageState(0.0, 2.0, -3.0, 0.0, 0.0)
        traj = simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 0.01, 1.0)
        assert len(traj) == 101
        for state in traj:
            assert (state.x, state.y) == (2.0, -3.0)
            assert (state.xdot, state.ydot) == (0.0, 0.0)

    def test_matches_homogeneous_closed_form(self):
        init = StageState(0.0, 0.0, 0.0, 1.0, 0.0)
        traj = simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 1e-3, 10.0)
        worst = max(
            abs(s.x - analytic_homogeneous_solution(CANONICAL_MASSES, init, s.t).x)
            for s in traj
        )
        assert worst <= 1e-6

    def test_matches_constant_input_closed_form(self):
        init = StageState(0.0, 1.0, -1.0, 0.5, 2.0)
        w = Wrench(taux=1.5, tauy=-0.5, fexd=0.25, feyd=0.75)
        traj = simulate(CANONICAL_MASSES, init, w, 1e-3, 5.0)
        worst = 0.0
        for s in traj:
            exact = analytic_constant_input_solution(CANONICAL_MASSES, init, w, s.t)
            worst = max(
                worst,
                abs(s.x - exact.x),
                abs(s.y - exact.y),
                abs(s.xdot - exact.xdot),
                abs(s.ydot - exact.ydot),
            )
        assert worst <= 1e-6

    def test_fourth_order_convergence(self):
        # Small masses make the truncation error sit far above round-off,
        # so the halving ratio is measurable.
        m = MassParams(0.02, 0.02, 0.01)
        init = StageState(0.0, 0.1, -0.2, 1.0, -1.0)
        errors = {}
        for dt in (4e-3, 2e-3, 1e-3):
            traj = simulate(m, init, ZERO_WRENCH, dt, 2.0)
            errors[dt] = max(
                max(
                    abs(s.x - e.x), abs(s.y - e.y),
                    abs(s.xdot - e.xdot), abs(s.ydot - e.ydot),
                )
                for s in traj
                for e in [analytic_homogeneous_solution(m, init, s.t)]
            )
        assert errors[4e-3] / errors[2e-3] >= 8.0
        assert errors[2e-3] / errors[1e-3] >= 8.0

    def test_trajectory_shape_and_times(self):
        init = StageState(0.0, 0.0, 0.0, 1.0, 1.0)
        traj = simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 0.25, 1.6)
        assert len(traj) == math.floor(1.6 / 0.25) + 1
        assert traj[0] == init
        assert traj.final.t <= 1.6 < traj.final.t + 0.25
        for i, state in enumerate(traj):
            assert state.t == pytest.approx(0.25 * i, abs=1e-12)

    def test_nonzero_start_time(self):
        init = StageState(2.0, 0.5, 0.5, 0.0, 0.0)
        traj = simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 0.5, 3.2)
        assert traj[0].t == 2.0
        assert len(traj) == 3

    def test_zero_steps_returns_initial_sample(self):
        init = StageState(1.5, 1.0, 2.0, 3.0, 4.0)
        traj = simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 0.1, init.t)
        assert len(traj) == 1
        assert traj[0] == init

    def test_rejects_bad_step_and_horizon(self):
        init = StageState(0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(DomainError):
            simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 0.0, 1.0)
        with pytest.raises(DomainError):
            simulate(CANONICAL_MASSES, init, ZERO_WRENCH, -0.1, 1.0)
        with pytest.raises(DomainError):
            simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 0.1, -1.0)
        with pytest.raises(DomainError):
            simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 1e-9, 2.0 * MAX_STEPS * 1e-9)

    def test_overflow_guard(self):
        init = StageState(0.0, 0.0, 0.0, 0.0, 0.0)
        with pytest.raises(OverflowError):
            simulate(CANONICAL_MASSES, init, Wrench(taux=1e99), 1.0, 100.0)

    def test_nan_state_trips_the_overflow_guard(self):
        # One 1e199 s step on 1e-12 kg masses turns x and xdot into NaN
        # without either passing 1e100 first.
        m = MassParams(1e-12, 1e-12, 1e-12)
        init = StageState(0.0, 0.0, 0.0, 1.0, 0.0)
        with pytest.raises(
            OverflowError, match=r"^state left \[-1e\+100, 1e\+100\] at step 1$"
        ):
            simulate(m, init, ZERO_WRENCH, 1e199, 1e200)

    @pytest.mark.parametrize(
        "m, init, w, dt, t_end, step",
        [
            # Alone, x leaves at step 105 under 1.06e99 and y at step 105
            # under 1e99 (y_effective 0.5); x alone under 1e99 at step 110.
            (CANONICAL_MASSES, REST, Wrench(taux=1.06e99, tauy=5e98), 0.1, 13.0, 105),
            (CANONICAL_MASSES, REST, Wrench(taux=1e99, tauy=1e99), 0.1, 13.0, 105),
            (CANONICAL_MASSES, REST, Wrench(taux=1.06e99, tauy=-1e99), 0.1, 13.0, 105),
            # The other-axis twin of test_nan_state_trips_the_overflow_guard.
            (MassParams(1e-12, 1e-12, 1e-12), StageState(0.0, 0.0, 0.0, 0.0, 1.0),
             ZERO_WRENCH, 1e199, 1e200, 1),
            (MassParams(0.5, 0.3, 0.1), REST, Wrench(tauy=1e99), 1e-3, 1000.0, 10_400),
            # Positions out of range from the start, with velocities that
            # are fixed points: the first step's position is out too.
            (CANONICAL_MASSES, StageState(0.0, 2e100, 0.0, 0.0, 0.0), ZERO_WRENCH,
             0.1, 1.0, 1),
            (CANONICAL_MASSES, StageState(0.0, 0.0, -2e100, 0.0, 0.0), ZERO_WRENCH,
             0.1, 1.0, 1),
            (CANONICAL_MASSES, StageState(0.0, -2e100, 0.0, 1.0, 0.0), Wrench(taux=1.0),
             0.1, 1.0, 1),
        ],
        ids=["x-first", "y-first", "same-step", "y-nan", "y-past-a-round",
             "x-starts-out", "y-starts-out", "x-starts-out-moving-in"],
    )
    def test_divergence_names_the_first_step_out(self, m, init, w, dt, t_end, step):
        with pytest.raises(OverflowError) as raised:
            simulate(m, init, w, dt, t_end)
        assert str(raised.value) == f"state left [-1e+100, 1e+100] at step {step}"

    def test_y_divergence_stops_x_within_a_round(self, monkeypatch):
        # 10**6 steps asked, y out at step 10,400: the axes run in rounds,
        # so x is not integrated to the horizon first. x at rest takes the
        # fixed-point tail, so its rows are counted, not its RK4 steps.
        m = MassParams(0.5, 0.3, 0.1)
        x_rows = []
        axis_round = _backend._rk4_round

        def counting(m_eff, c, poss, vels, dt, stop):
            before = len(poss)
            axis_round(m_eff, c, poss, vels, dt, stop)
            if m_eff == m.x_effective:
                x_rows.append(len(poss) - before)

        monkeypatch.setattr(_backend, "_rk4_round", counting)
        with pytest.raises(OverflowError, match=r" at step 10400$"):
            simulate(m, REST, Wrench(tauy=1e99), 1e-3, 1000.0)
        assert 10_400 <= sum(x_rows) <= 10_400 + _backend._ROUND_STEPS

    @pytest.mark.parametrize(
        "cx, cy", [(1.06e99, 5e98), (1e99, 1e99)], ids=["x-first", "y-first"]
    )
    def test_kernel_columns_stop_before_the_first_step_out(self, cx, cy):
        # Both cases leave at step 105: the columns hold rows 0..104.
        path = _backend.rk4_stage_path(1.0, 0.5, cx, cy, 0.0, 0.0, 0.0, 0.0, 0.1, 130)
        assert [len(column) for column in path] == [105] * 4
        assert all(abs(v) <= 1e100 for column in path for v in column)

    def test_step_cap_admits_a_horizon_of_exactly_the_cap(self, monkeypatch):
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        init = StageState(0.0, 0.0, 0.0, 1.0, 1.0)
        traj = simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 0.5, 10.5 * 0.5)
        assert len(traj) == 11

    @pytest.mark.parametrize(
        "dt, t_end",
        [(0.5, 11 * 0.5), (5e-324, 1.0)],
        ids=["one-step-more", "infinite-span"],
    )
    def test_step_cap_rejects(self, monkeypatch, dt, t_end):
        # 1.0 / 5e-324 overflows to inf, which math.floor cannot take.
        monkeypatch.setattr(dynamics, "MAX_STEPS", 10)
        init = StageState(0.0, 0.0, 0.0, 1.0, 1.0)
        with pytest.raises(DomainError, match="above the 10 step cap"):
            simulate(CANONICAL_MASSES, init, ZERO_WRENCH, dt, t_end)


class TestBenchmarkImportContract:
    def test_simulate_calls_the_backend_kernel(self, monkeypatch):
        # The cellbench tracer wraps _backend.rk4_stage_path and records
        # kernel_backend(); both must stay where it looks them up.
        assert cellstage.kernel_backend() == "python"
        calls = []
        kernel = _backend.rk4_stage_path

        def counting(*args):
            calls.append(args)
            return kernel(*args)

        monkeypatch.setattr(_backend, "rk4_stage_path", counting)
        init = StageState(0.0, 0.0, 0.0, 1.0, 1.0)
        simulate(CANONICAL_MASSES, init, ZERO_WRENCH, 0.1, 1.0)
        assert len(calls) == 1

    def test_every_traced_name_resolves(self):
        # A name missing here makes `cellbench/run.py --trace 1` fail with
        # AttributeError when the tracer installs its wrappers.
        path = Path(__file__).resolve().parent.parent / "cellbench" / "tracer.py"
        spec = importlib.util.spec_from_file_location("cellbench_tracer", path)
        tracer = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tracer)
        targets = [
            (dynamics, tracer._CLOSED_FORMS + tracer._DYNAMICS_OTHER),
            (frames, tracer._FRAMES),
            (linalg2, tracer._LINALG2),
            (_rng.SplitMix64, tracer._RNG_METHODS),
        ]
        for owner, names in targets:
            missing = [name for name in names if not callable(vars(owner).get(name))]
            assert missing == [], f"{owner.__name__} lacks {missing}"

    def test_state_keeps_its_post_init(self):
        # tracer.install counts dynamics.states_built by patching
        # StageState.__post_init__, so StageState must keep its own one rather
        # than check its fields in a hand-written __init__ like the point types.
        assert callable(vars(StageState).get("__post_init__"))


class TestTrajectory:
    def test_rejects_empty(self):
        with pytest.raises(DomainError):
            Trajectory(0.0, 0.1, [], [], [], [])

    def test_rejects_non_increasing_times(self):
        with pytest.raises(DomainError):
            Trajectory(0.0, 0.0, [0.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0])
        # t0 + dt rounds back to t0: the time column does not increase.
        with pytest.raises(DomainError, match="strictly increasing"):
            Trajectory(1e20, 1.0, [0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [0.0, 0.0])

    #: 3 * OVERFLOWING_DT rounds to inf, so row 3 of a path is at t = inf.
    OVERFLOWING_DT = 5.992310449541053e307

    def test_rejects_an_infinite_time_naming_its_path_row(self):
        zeros = [0.0] * 4
        with pytest.raises(DomainError, match=r"^t\[3\] must be finite, got inf$"):
            Trajectory(0.0, self.OVERFLOWING_DT, zeros, zeros, zeros, zeros)
        # The same row as the second sample of a window from row 2.
        zeros = [0.0] * 2
        with pytest.raises(DomainError, match=r"^t\[3\] must be finite, got inf$"):
            Trajectory(0.0, self.OVERFLOWING_DT, zeros, zeros, zeros, zeros, first=2)

    def test_simulate_rejects_a_horizon_whose_last_time_overflows(self):
        init = StageState(0.0, 0.0, 0.0, 0.0, 0.0)
        dt = self.OVERFLOWING_DT
        with pytest.raises(DomainError, match=r"^t\[3\] must be finite, got inf$"):
            simulate(CANONICAL_MASSES, init, ZERO_WRENCH, dt, sys.float_info.max)

    @pytest.mark.parametrize("column", ["x", "y", "xdot", "ydot"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_column(self, column, bad):
        columns = {name: [0.0, 1.0, 2.0] for name in ("x", "y", "xdot", "ydot")}
        columns[column][2] = bad
        with pytest.raises(DomainError, match=rf"{column}\[2\] must be finite"):
            Trajectory(0.0, 0.1, **columns)

    def test_rejects_ragged_columns(self):
        with pytest.raises(DomainError):
            Trajectory(0.0, 0.1, [0.0, 1.0], [0.0], [0.0, 1.0], [0.0, 1.0])

    def test_states_are_built_from_columns(self):
        traj = Trajectory(
            2.0, 0.5, [1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [0.1, 0.2, 0.3], [0.0] * 3
        )
        assert len(traj) == 3
        assert traj.times() == [2.0, 2.5, 3.0]
        assert traj[1] == StageState(2.5, 2.0, 5.0, 0.2, 0.0)
        assert traj[-1] == traj.final == StageState(3.0, 3.0, 6.0, 0.3, 0.0)
        assert list(traj) == [traj[0], traj[1], traj[2]]
        with pytest.raises(IndexError):
            traj[3]


class TestImageSpaceDynamics:
    def test_inertia_matrix_identity_calibration(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        assert inertia_matrix(CANONICAL_MASSES, c) == mass_matrix(CANONICAL_MASSES)

    def test_inertia_matrix_hand_example(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=2.0, fy=1.0)
        got = inertia_matrix(MassParams(1.0, 1.0, 1.0), c)
        assert got == Mat2(1.5, 0.0, 0.0, 2.0)

    def test_inertia_determinant_scaling(self):
        rng = SplitMix64(13)
        for _ in range(100):
            m = MassParams(*(rng.log_uniform(1e-3, 10.0) for _ in range(3)))
            c = Calibration(
                alpha=rng.uniform(-math.pi, math.pi),
                dx=rng.uniform_open_low(10.0),
                dy=rng.uniform_open_low(10.0),
                fx=rng.log_uniform(0.1, 100.0),
                fy=rng.log_uniform(0.1, 100.0),
            )
            det_inertia = determinant(inertia_matrix(m, c))
            want = determinant(mass_matrix(m)) / (c.fx * c.fy)
            assert abs(det_inertia - want) <= 1e-12 * max(1.0, abs(want))

    def test_posit_table_matrix_fin_identity_calibration(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        assert posit_table_matrix_fin(c) == IDENTITY

    def test_posit_table_matrix_fin_is_inverse_transform(self):
        c = Calibration(alpha=0.4, dx=1.0, dy=1.0, fx=2.0, fy=0.5)
        got = posit_table_matrix_fin(c)
        want = inverse2(transformation_matrix(c))
        assert got == want

    def test_posit_table_matrix_fin_diagonal_example(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=2.0, fy=4.0)
        assert posit_table_matrix_fin(c) == Mat2(0.5, 0.0, 0.0, 0.25)

    def test_zero_state_zero_wrench(self):
        c = Calibration(alpha=0.3, dx=1.0, dy=1.0, fx=2.0, fy=3.0)
        r = image_dynamics_residual(
            CANONICAL_MASSES, c, Vec2(0, 0), Vec2(0, 0), ZERO_WRENCH
        )
        assert r == Vec2(0.0, 0.0)

    def test_identity_calibration_collapses_to_stage_residual(self):
        c = Calibration(alpha=0.0, dx=1.0, dy=1.0, fx=1.0, fy=1.0)
        rng = SplitMix64(77)
        for _ in range(100):
            accel = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
            vel = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
            w = Wrench(*(rng.uniform(-10, 10) for _ in range(4)))
            img = image_dynamics_residual(CANONICAL_MASSES, c, accel, vel, w)
            stage = dynamics_residual(CANONICAL_MASSES, accel, vel, w)
            assert (img - stage).inf_norm() <= 1e-15

    def test_transformed_zero_residual_states(self):
        rng = SplitMix64(123)
        for _ in range(200):
            m = MassParams(*(rng.log_uniform(1e-3, 10.0) for _ in range(3)))
            c = Calibration(
                alpha=rng.uniform(-math.pi, math.pi),
                dx=rng.uniform_open_low(10.0),
                dy=rng.uniform_open_low(10.0),
                fx=rng.log_uniform(0.1, 100.0),
                fy=rng.log_uniform(0.1, 100.0),
            )
            vel = Vec2(rng.uniform(-100, 100), rng.uniform(-100, 100))
            w = Wrench(*(rng.uniform(-10, 10) for _ in range(4)))
            net = w.net_input()
            accel = Vec2(
                (net.e1 - vel.e1) / m.x_effective,
                (net.e2 - vel.e2) / m.y_effective,
            )
            t_mat = transformation_matrix(c)
            residual = image_dynamics_residual(
                m, c, mat_vec_mul(t_mat, accel), mat_vec_mul(t_mat, vel), w
            )
            assert residual.inf_norm() <= 1e-9 * (1.0 + w.inf_norm())

    def test_singular_guard_propagates(self):
        bad = object.__new__(Calibration)
        for name, value in dict(alpha=0.0, dx=1.0, dy=1.0, fx=0.0, fy=1.0).items():
            object.__setattr__(bad, name, value)
        with pytest.raises(SingularError):
            inertia_matrix(CANONICAL_MASSES, bad)
        with pytest.raises(SingularError):
            posit_table_matrix_fin(bad)
